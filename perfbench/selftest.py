"""Self-test of the output checks.

    python3 perfbench/selftest.py

For each workload it runs a few real operations through the CLI,
requires the checks to accept their output, then tampers with that
output and requires the checks to reject it:

* a certificate with one face swapped for another face of its size,
* a Betti table with one entry raised by one, and one with
  beta_{i,j} and beta_{i+1,j} both raised, which keeps the alternating
  sum (on the last table of each construction),
* a `classify` report that breaks the implication chain,
* `chordal: true` on a planted `refute` instance.

It also compares the benchmark's own upper-Koszul Betti numbers, and
the closed form for square-free stable ideals, with
`tests/oracles.koszul_betti_squarefree` on small ideals, when the test
suite is present. Exits 0 when every expectation holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import corpus  # noqa: E402
from srchordal import cli  # noqa: E402

FAILURES: list[str] = []


def run(op) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(op.input_text())
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([op.command, path, *op.argv])
    return code, out.getvalue()


def expect(label: str, problems: list[str], *, rejected: bool) -> None:
    ok = bool(problems) == rejected
    verdict = "rejected" if problems else "accepted"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}" + (f" ({problems[0]})" if problems else ""))
    if not ok:
        FAILURES.append(label)


def first(ops, pred):
    return next(op for op in ops if pred(op))


def swap_face(faces: list[list[int]], n: int) -> list[list[int]]:
    """Replace the middle nonempty face by the first other subset of [n]
    of the same size, preferring one the certificate does not use."""
    nonempty = [k for k, f in enumerate(faces) if f]
    k = nonempty[len(nonempty) // 2]
    used = {tuple(f) for f in faces}
    size = len(faces[k])
    cands = [tuple(corpus.verts(m)) for m in range(1, 1 << n) if m.bit_count() == size]
    cands = sorted(c for c in cands if c != tuple(faces[k]))
    cand = next((c for c in cands if c not in used), cands[0])
    return faces[:k] + [list(cand)] + faces[k + 1 :]


def test_certify() -> None:
    ops = corpus.certify_corpus(random.Random(11))
    op = first(ops, lambda o: o.command == "chordal" and o.kind == "gotzmann"
               and o.extra["range"][0] <= o.extra["range"][1])
    code, out = run(op)
    expect("certify: genuine chordal certificates", checks.check(op, code, out), rejected=False)
    payload = json.loads(out)
    d = max(payload["certificates"], key=lambda key: len(payload["certificates"][key]["faces"]))
    cert = payload["certificates"][d]
    cert["faces"] = swap_face(cert["faces"], op.n)
    expect(f"certify: simplicial order (d={d}) with one face swapped",
           checks.check(op, code, json.dumps(payload)), rejected=True)

    op = first(ops, lambda o: o.command == "collapsible" and o.kind == "vd_dual")
    code, out = run(op)
    expect("certify: genuine collapse certificate", checks.check(op, code, out), rejected=False)
    payload = json.loads(out)
    payload["certificate"]["faces"] = swap_face(payload["certificate"]["faces"], op.n)
    expect("certify: collapse with one face swapped",
           checks.check(op, code, json.dumps(payload)), rejected=True)
    payload = json.loads(out)
    payload["collapsible"] = False
    expect("certify: collapsible=false on a chordal closure",
           checks.check(op, 1, json.dumps(payload)), rejected=True)


def raise_pair(payload: dict) -> dict:
    """Raise beta_{i,j} and beta_{i+1,j} by one for the last entry
    (i, j): what one rank off by one in one induced subcomplex does.
    The alternating sum and the beta_0 row stay as they were."""
    entries = payload["gf2"]["entries"]
    last = max(entries, key=lambda e: (e["i"], e["j"]))
    last["beta"] += 1
    entries.append({"i": last["i"] + 1, "j": last["j"], "beta": 1})
    return payload


def test_betti() -> None:
    ops = corpus.betti_corpus(random.Random(12))
    # the last table of each construction: every table is checked, not
    # only the first of its kind
    for kind, n in (("split", 10), ("split", 11), ("gotzmann", 10), ("stable", 10)):
        op = [o for o in ops if o.command == "betti" and o.kind == kind and o.n == n][-1]
        code, out = run(op)
        label = f"betti: {kind} table in {n} variables"
        expect(f"{label}, genuine", checks.check(op, code, out), rejected=False)
        payload = json.loads(out)
        entries = payload["gf2"]["entries"]
        entries[len(entries) // 2]["beta"] += 1
        expect(f"{label}, one entry raised by one",
               checks.check(op, code, json.dumps(payload)), rejected=True)
        problems = checks.check(op, code, json.dumps(raise_pair(json.loads(out))))
        expect(f"{label}, a cancelling pair raised", problems, rejected=True)
        if kind == "stable":
            expect(f"{label}, a cancelling pair raised (closed form alone)",
                   [p for p in problems if "closed form" in p], rejected=True)
    op = first(ops, lambda o: o.command == "cwl")
    code, out = run(op)
    expect("betti: genuine cwl verdict", checks.check(op, code, out), rejected=False)
    expect("betti: cwl true on a split ideal",
           checks.check(op, 0, json.dumps({"componentwise_linear": {"gf2": True}})), rejected=True)


def test_classify() -> None:
    ops = corpus.classify_corpus(random.Random(13))
    for kind in ("stable", "gotzmann", "vd_dual", "split"):
        op = first(ops, lambda o: o.kind == kind and o.n == 7)
        code, out = run(op)
        expect(f"classify: genuine {kind} report", checks.check(op, code, out), rejected=False)
    op = first(ops, lambda o: o.kind == "stable" and o.n == 7)
    code, out = run(op)
    report = json.loads(out)
    report["chordal"] = False
    expect("classify: stable but not chordal", checks.check(op, code, json.dumps(report)),
           rejected=True)
    report = json.loads(out)
    report["componentwise_linear"]["char0"] = False
    expect("classify: chordal but not componentwise linear over char 0",
           checks.check(op, code, json.dumps(report)), rejected=True)
    report = json.loads(out)
    report["stable"] = False
    report["strongly_stable"] = False
    report["shifted"] = False
    expect("classify: stable construction reported not stable",
           checks.check(op, code, json.dumps(report)), rejected=True)


def test_refute() -> None:
    ops = corpus.refute_corpus(random.Random(14))
    op = ops[0]
    code, out = run(op)
    expect("refute: genuine refutation", checks.check(op, code, out), rejected=False)
    fake = {"d": 2, "d_chordal": True, "certificate": {"kind": "simplicial_order", "d": 2, "faces": []}}
    expect("refute: chordal true on a planted instance",
           checks.check(op, 0, json.dumps(fake)), rejected=True)
    gadget = ops[-1]
    code, out = run(gadget)
    expect(f"refute: fixed budget instance exits {code} and counts as failed",
           checks.check(gadget, code, out) if code == checks.EXIT_BUDGET else ["not exit 3"],
           rejected=False)
    expect("refute: budget exit on a seeded instance",
           checks.check(op, checks.EXIT_BUDGET, ""), rejected=True)


def test_koszul_against_oracle() -> None:
    """The benchmark's GF(2) upper-Koszul numbers against the test
    suite's rational Koszul-strand oracle on ideals in five variables,
    where no induced subcomplex has torsion, so the fields agree."""
    try:
        sys.path.insert(0, os.path.join(ROOT, "tests"))
        import oracles
    except ImportError:
        print("skip koszul oracle: tests/oracles.py not importable")
        return
    from srchordal import SquarefreeIdeal

    rng = random.Random(15)
    bad = 0
    for _ in range(40):
        n = 5
        gens = corpus.minimal(corpus.mask(rng.sample(range(1, n + 1), rng.randint(1, 3)))
                              for _ in range(rng.randint(1, 5)))
        want = oracles.koszul_betti_squarefree(SquarefreeIdeal(n, gens))
        if checks.koszul_betti_gf2(n, gens) != want:
            bad += 1
        alt: dict[int, int] = {}
        for (i, j), b in want.items():
            alt[j] = alt.get(j, 0) + (-1) ** i * b
        if {j: c for j, c in alt.items() if c} != checks.hilbert_numerator(n, gens):
            bad += 1
    expect("koszul: benchmark Koszul and Hilbert checks agree with tests/oracles on 40 ideals",
           ["disagreement"] * bad, rejected=False)
    bad = 0
    for n in (5, 6) * 10:
        gens = corpus.stable_ideal(rng, n)
        if checks.stable_betti(gens) != oracles.koszul_betti_squarefree(SquarefreeIdeal(n, gens)):
            bad += 1
    expect("koszul: closed form for stable ideals agrees with tests/oracles on 20 ideals",
           ["disagreement"] * bad, rejected=False)


def main() -> int:
    for test in (test_certify, test_betti, test_classify, test_refute, test_koszul_against_oracle):
        test()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
