"""Output checks, made apart from the library.

Each check takes an operation from `corpus` and the exit code and
stdout of the CLI call, and returns a list of problems (empty when the
output is right). Nothing is compared with a saved copy of earlier
output: every expected value is either computed here, from the input,
by code that shares nothing with `srchordal`, or is a property the
method must have (a verdict known by the construction of the input, an
implication between families, a certificate that replays).
"""

from __future__ import annotations

import json

from corpus import all_subsets, closure_faces, contains, mask, verts

EXIT_OK, EXIT_FALSE, EXIT_BUDGET = 0, 1, 3


def faces_of_ideal(n: int, gens: list[int]) -> list[int]:
    """Every face of the Stanley-Reisner complex: the subsets of [n]
    that contain no generator."""
    return [s for s in all_subsets((1 << n) - 1) if not contains(gens, s)]


# -- Betti tables --------------------------------------------------------------


def hilbert_numerator(n: int, gens: list[int]) -> dict[int, int]:
    """Coefficients of 1 - sum over faces F of t^|F| (1-t)^(n-|F|), which
    equals sum (-1)^i beta_{i,j} t^j for the ideal."""
    by_size: dict[int, int] = {}
    for f in faces_of_ideal(n, gens):
        by_size[f.bit_count()] = by_size.get(f.bit_count(), 0) + 1
    poly = {0: 1}
    for k, count in by_size.items():
        for e in range(n - k + 1):  # (1-t)^(n-k) = sum C(n-k, e) (-t)^e
            c = _binom(n - k, e) * (-1) ** e
            poly[k + e] = poly.get(k + e, 0) - count * c
    return {j: c for j, c in poly.items() if c}


def _binom(a: int, b: int) -> int:
    out = 1
    for i in range(b):
        out = out * (a - i) // (i + 1)
    return out


def gf2_rank(rows: list[int]) -> int:
    """Rank over GF(2) of bitset rows, keeping pivots by leading bit."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = row
                break
            row ^= pivots[lead]
    return len(pivots)


def koszul_betti_gf2(n: int, gens: list[int]) -> dict[tuple[int, int], int]:
    """Graded Betti numbers over GF(2) from upper Koszul simplicial
    complexes: beta_{i,b} = dim H~_{i-1}(K^b) with K^b the sets F inside
    b for which b minus F still holds a generator, over every b that is
    a union of generators (the LCM lattice). This is a different
    formula from Hochster's, which the library uses."""
    lcms = {0}
    for g in gens:
        lcms |= {b | g for b in lcms}
    lcms.discard(0)
    out: dict[tuple[int, int], int] = {}
    for b in lcms:
        faces = [f for f in all_subsets(b) if contains(gens, b & ~f)]
        by_dim: dict[int, list[int]] = {}
        for f in faces:
            by_dim.setdefault(f.bit_count() - 1, []).append(f)
        ranks = {}
        for k in by_dim:
            if k - 1 in by_dim:
                index = {f: i for i, f in enumerate(by_dim[k - 1])}
                rows = []
                for f in by_dim[k]:
                    row = 0
                    for v in verts(f):
                        row |= 1 << index[f & ~(1 << (v - 1))]
                    rows.append(row)
                ranks[k] = gf2_rank(rows)
        for k, level in by_dim.items():
            h = len(level) - ranks.get(k, 0) - ranks.get(k + 1, 0)
            if h:
                key = (k + 1, b.bit_count())
                out[key] = out.get(key, 0) + h
    return out


def stable_betti(gens: list[int]) -> dict[tuple[int, int], int]:
    """Graded Betti numbers of a square-free stable ideal in closed form
    (Aramova-Herzog-Hibi): beta_{i,i+j} = sum over the minimal
    generators u of degree j of C(max(u) - j, i). They hold over every
    field."""
    out: dict[tuple[int, int], int] = {}
    for u in gens:
        j, top = u.bit_count(), u.bit_length()
        for i in range(top - j + 1):
            out[(i, i + j)] = out.get((i, i + j), 0) + _binom(top - j, i)
    return out


def parse_table(payload: dict, label: str = "gf2") -> dict[tuple[int, int], int]:
    table = payload[label]
    if table.get("field") != label:
        raise ValueError(f"table field is {table.get('field')!r}, not {label!r}")
    return {(e["i"], e["j"]): e["beta"] for e in table["entries"]}


def check_betti(op, code: int, out: str) -> list[str]:
    if code != EXIT_OK:
        return [f"betti exited {code}"]
    table = parse_table(json.loads(out))
    problems = []
    if any(b <= 0 for b in table.values()):
        problems.append("table lists a zero or negative entry")
    row0 = {j: b for (i, j), b in table.items() if i == 0}
    want0: dict[int, int] = {}
    for g in op.gens:
        want0[g.bit_count()] = want0.get(g.bit_count(), 0) + 1
    if row0 != want0:
        problems.append(f"beta_0 row {row0} != generator degrees {want0}")
    alt: dict[int, int] = {}
    for (i, j), b in table.items():
        alt[j] = alt.get(j, 0) + (-1) ** i * b
    alt = {j: c for j, c in alt.items() if c}
    if alt != hilbert_numerator(op.n, op.gens):
        problems.append("alternating sum of the table breaks the Hilbert series identity")
    if table != koszul_betti_gf2(op.n, op.gens):
        problems.append("table differs from the upper-Koszul GF(2) computation")
    if op.kind == "stable" and table != stable_betti(op.gens):
        problems.append("table differs from the closed form for square-free stable ideals")
    return problems


def check_cwl(op, code: int, out: str) -> list[str]:
    verdict = json.loads(out)["componentwise_linear"]
    want = op.kind in ("stable", "gotzmann")
    problems = []
    if verdict != {"gf2": want}:
        problems.append(f"cwl reports {verdict}, construction says {want}")
    if code != (EXIT_OK if want else EXIT_FALSE):
        problems.append(f"cwl exited {code}")
    return problems


# -- classify ------------------------------------------------------------------


def squarefree_members(n: int, gens: list[int]) -> set[int]:
    return {s for s in all_subsets((1 << n) - 1) if contains(gens, s)}


def is_stable(n: int, gens: list[int], *, strongly: bool) -> bool:
    """The exchange condition over every square-free member of the
    ideal (not only its generators): x_i u / x_j stays in the ideal for
    x_j | u, i < j, x_i not dividing u; j = max(u) unless strongly."""
    members = squarefree_members(n, gens)
    for u in members:
        js = verts(u) if strongly else [u.bit_length()]
        for j in js:
            base = u & ~(1 << (j - 1))
            for i in range(1, j):
                if not u >> (i - 1) & 1 and base | (1 << (i - 1)) not in members:
                    return False
    return True


REPORT_KEYS = {
    "stable", "strongly_stable", "shifted", "vertex_decomposable", "gotzmann", "chordal",
    "componentwise_linear",
}


def check_classify_report(op, report: dict) -> list[str]:
    if set(report) != REPORT_KEYS:
        return [f"report keys {sorted(report)}"]
    cwl = report["componentwise_linear"]
    if set(cwl) != {"gf2", "char0"}:
        return [f"componentwise_linear fields {sorted(cwl)}"]
    problems = []
    chain = [
        ("shifted", "strongly_stable"),
        ("strongly_stable", "stable"),
        ("stable", "chordal"),
        ("vertex_decomposable", "chordal"),
        ("gotzmann", "chordal"),
    ]
    for a, b in chain:
        if report[a] and not report[b]:
            problems.append(f"{a} without {b}")
    if report["chordal"] and not all(cwl.values()):
        problems.append("chordal without componentwise linear over every field")
    by_construction = {
        "stable": ("stable", True),
        "gotzmann": ("gotzmann", True),
        "vd_dual": ("vertex_decomposable", True),
    }
    if op.kind in by_construction:
        key, want = by_construction[op.kind]
        if report[key] is not want:
            problems.append(f"{op.kind} input reported {key}={report[key]}")
    if op.kind == "split" and any(cwl.values()):
        problems.append("split input reported componentwise linear")
    for key, strongly in (("stable", False), ("strongly_stable", True)):
        if report[key] is not is_stable(op.n, op.gens, strongly=strongly):
            problems.append(f"{key}={report[key]} disagrees with the exchange check")
    return problems


def check_classify(op, code: int, out: str) -> list[str]:
    if code != EXIT_OK:
        return [f"classify exited {code}"]
    return check_classify_report(op, json.loads(out))


# -- certificates ----------------------------------------------------------------


def down_closure(facets) -> set[int]:
    out: set[int] = set()
    for f in facets:
        if f not in out:
            out.update(all_subsets(f))
    return out


def _unique_cover(faces: set[int], e: int) -> int | None:
    """The largest face containing e when the faces containing e have a
    single maximal element (e is free), else None."""
    union = 0
    for f in faces:
        if f & e == e:
            union |= f
    return union if union in faces else None


def replay_order(n: int, faces: set[int], d: int, order: list[int]) -> str | None:
    """Replay a simplicial order on an explicit face set; None if valid.

    Each face must have d vertices, lie in a single maximal face other
    than itself, and then lose every face strictly above it; the end
    must be every set of at most d vertices, the (d-1)-skeleton."""
    cur = set(faces)
    for step, e in enumerate(order):
        if e.bit_count() != d or e not in cur:
            return f"step {step}: {verts(e)} is not a {d}-vertex face"
        top = _unique_cover(cur, e)
        if top is None or top == e:
            return f"step {step}: {verts(e)} is not a free non-facet face"
        cur = {f for f in cur if f == e or f & e != e}
    want = {s for s in all_subsets((1 << n) - 1) if s.bit_count() <= d}
    return None if cur == want else "replay does not end at the full (d-1)-skeleton"


def replay_collapse(faces: set[int], d: int, order: list[int]) -> str | None:
    """Replay a d-collapse; each face has at most d vertices, is free,
    and goes with every face above it; the end is the void complex."""
    cur = set(faces)
    for step, e in enumerate(order):
        if e.bit_count() > d or e not in cur:
            return f"step {step}: {verts(e)} is not a face with at most {d} vertices"
        if _unique_cover(cur, e) is None:
            return f"step {step}: {verts(e)} is not free"
        cur = {f for f in cur if f & e != e}
    return None if not cur else "replay does not end at the void complex"


def _cert_faces(cert: dict, kind: str, d: int) -> list[int]:
    if cert.get("kind") != kind or cert.get("d") != d:
        raise ValueError(f"certificate is {cert.get('kind')!r} for d={cert.get('d')}")
    return [mask(f) for f in cert["faces"]]


def check_chordal_full(op, code: int, out: str) -> list[str]:
    """`chordal` over the deciding range on a complex proven chordal."""
    payload = json.loads(out)
    lo, hi = op.extra["range"]
    problems = []
    if code != EXIT_OK or payload["chordal"] is not True:
        problems.append(f"chordal input reported chordal={payload['chordal']}, exit {code}")
    if payload["checked_d"] != list(range(lo, hi + 1)):
        problems.append(f"checked_d {payload['checked_d']} != deciding range {lo}..{hi}")
    certs = payload["certificates"]
    if set(certs) != {str(d) for d in range(lo, hi + 1)}:
        problems.append(f"certificates for d in {sorted(certs)}")
        return problems
    for d in range(lo, hi + 1):
        faces = closure_faces(op.n, op.facets, d)
        why = replay_order(op.n, faces, d, _cert_faces(certs[str(d)], "simplicial_order", d))
        if why:
            problems.append(f"d={d}: {why}")
    return problems


def check_collapsible(op, code: int, out: str) -> list[str]:
    payload = json.loads(out)
    d = op.extra["d"]
    if code != EXIT_OK or payload["collapsible"] is not True:
        return [f"{d}-closure of a chordal complex reported not {d}-collapsible, exit {code}"]
    why = replay_collapse(down_closure(op.facets), d, _cert_faces(payload["certificate"], "collapse", d))
    return [why] if why else []


def check_refuted(op, code: int, out: str) -> list[str]:
    """A planted octahedron: never 2-chordal. Exit 3 (budget) is allowed
    only where the operation says so, and is counted as failed."""
    if code == EXIT_BUDGET and op.kind == "budget":
        return [] if not out.strip() else ["budget exit printed a verdict"]
    if code != EXIT_FALSE:
        return [f"planted instance exited {code}"]
    payload = json.loads(out)
    if payload != {"d": 2, "d_chordal": False, "certificate": None}:
        return [f"planted instance reported {payload}"]
    return []


def check(op, code: int, out: str) -> list[str]:
    """Problems with one operation's output; malformed output is one."""
    try:
        if op.command == "betti":
            return check_betti(op, code, out)
        if op.command == "cwl":
            return check_cwl(op, code, out)
        if op.command == "classify":
            return check_classify(op, code, out)
        if op.command == "collapsible":
            return check_collapsible(op, code, out)
        if op.kind in ("planted", "budget"):
            return check_refuted(op, code, out)
        return check_chordal_full(op, code, out)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed output: {exc!r}"]

