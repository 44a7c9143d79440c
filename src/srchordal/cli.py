"""Command-line surface.

Input formats (also shown by --help of each subcommand):

* Complexes are JSON: {"n": 5, "facets": [[2,5],[1,4,5],[1,2,3,4]]}.
  The void complex is {"n": k, "facets": null}; the empty complex {∅}
  is {"n": k, "facets": [[]]}. Vertex labels are 1-based integers.
* Ideals are text: one square-free monomial per line as variable tokens
  ("x3 x5" or "x3*x5"), '#' comments, and an optional "n=5" header line
  fixing the ambient size. The sigma subcommand additionally accepts
  exponents ("x1^2*x3").
* Certificates are JSON: {"kind": "simplicial_order", "d": 2,
  "faces": [[1,5],[1,2],[1,3],[2,3]]}.

Exit status: 0 = computed (or verdict true), 1 = negative verdict,
2 = input error, 3 = budget exhausted (search nodes, or LCM lattice
members for betti, linres, cwl and classify). Verdict-valued
subcommands use status 1 for "false" so shell pipelines can branch on
them; this deliberately diverges from errors-only conventions.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from . import __version__
from .betti import CHAR0, GF2, FieldSpec, betti_table, has_linear_resolution, is_componentwise_linear
from .chordality import (
    DEFAULT_BUDGET,
    FreeSequence,
    chordality_check_range,
    d_closure,
    find_simplicial_order,
    is_d_chordal,
    is_d_collapsible,
    simplicial_faces,
    verify_sequence,
)
from .complexes import SimplicialComplex
from .errors import SearchBudgetExceeded, SRChordalError
from .families import classify, sigma_pipeline
from .ideals import (
    format_squarefree_ideal,
    parse_monomial_ideal,
    parse_squarefree_ideal,
    stanley_reisner_ideal,
)
from .bitsets import vertices_from_mask

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_complex(path: str) -> SimplicialComplex:
    try:
        data = json.loads(_read_input(path))
    except json.JSONDecodeError as exc:
        raise SRChordalError(f"complex input is not valid JSON: {exc}") from exc
    return SimplicialComplex.from_json_dict(data)


def _load_ideal(path: str):
    return parse_squarefree_ideal(_read_input(path))


def _emit(payload: dict, fmt: str, pretty_text: str | None = None) -> None:
    if fmt == "pretty" and pretty_text is not None:
        print(pretty_text)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _fields_for(choice: str) -> list[FieldSpec]:
    if choice == "both":
        return [GF2, CHAR0]
    return [FieldSpec.parse(choice)]


def _cert_json(seq: FreeSequence | None):
    return None if seq is None else seq.to_json_dict()


def _budget(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"budget must be >= 0, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser, *, with_field: bool = False) -> None:
    parser.add_argument("input", help="input file path, or - for stdin")
    parser.add_argument(
        "--format", choices=("json", "pretty"), default="json", help="output format"
    )
    parser.add_argument(
        "--budget",
        type=_budget,
        default=DEFAULT_BUDGET,
        help="node budget for backtracking searches, and member budget for each "
        "LCM lattice of a Betti or linearity computation (default 10^7)",
    )
    if with_field:
        parser.add_argument(
            "--field",
            default="gf2",
            help="coefficient field: gf2 (default), gfp:P, char0, or both",
        )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="srchordal",
        description="Exact chordality, collapsibility and Betti tables for "
        "simplicial complexes and square-free monomial ideals.",
        epilog=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("closure", help="emit the d-closure of a complex")
    p.add_argument("--d", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("chordal", help="decide (d-)chordality of a complex")
    p.add_argument("--d", type=int, default=None, help="check d-chordality for this d only")
    _add_common(p)

    p = sub.add_parser("collapsible", help="decide d-collapsibility of a complex")
    p.add_argument("--d", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("verify", help="replay a certificate against a complex")
    p.add_argument("--certificate", required=True, help="certificate JSON file, or - for stdin")
    _add_common(p)

    p = sub.add_parser("betti", help="graded Betti table of an ideal")
    _add_common(p, with_field=True)

    p = sub.add_parser("linres", help="decide d-linear resolution of an equigenerated ideal")
    p.add_argument("--d", type=int, required=True)
    _add_common(p, with_field=True)

    p = sub.add_parser("cwl", help="decide componentwise linearity of an ideal")
    _add_common(p, with_field=True)

    p = sub.add_parser("classify", help="run every family checker on an ideal")
    _add_common(p)

    p = sub.add_parser("dual", help="Alexander dual of a complex")
    _add_common(p)

    p = sub.add_parser("nonfaces", help="minimal nonfaces of a complex")
    _add_common(p)

    p = sub.add_parser("sigma", help="square-free operator pipeline on a strongly stable ideal")
    _add_common(p)

    p = sub.add_parser(
        "experiment",
        help="randomized probes (report-only)",
        description="experiment q2: sample d-chordal d-closures and test whether "
        "deleting a non-facet simplicial face preserves d-chordality. Reports "
        "counts and any counterexamples; asserts nothing.",
    )
    p.add_argument("name", choices=("q2",))
    p.add_argument("--seed", type=int, required=True, help="RNG seed (required, no wall clock)")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--format", choices=("json", "pretty"), default="json")
    p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)

    return parser


def _run_closure(args) -> int:
    cx = _load_complex(args.input)
    out = d_closure(cx, args.d)
    _emit(out.to_json_dict(), args.format, pretty_text=repr(out))
    return EXIT_OK


def _run_chordal(args) -> int:
    cx = _load_complex(args.input)
    if args.d is not None:
        closure = d_closure(cx, args.d)
        seq = find_simplicial_order(closure, args.d, budget=args.budget)
        payload = {
            "d": args.d,
            "d_chordal": seq is not None,
            "certificate": _cert_json(seq),
        }
        _emit(payload, args.format, pretty_text=f"{args.d}-chordal: {seq is not None}")
        return EXIT_OK if seq is not None else EXIT_FALSE
    lo, hi = chordality_check_range(cx)
    checked = list(range(lo, hi + 1))
    certificates = {}
    verdict = True
    for d in checked:
        closure = d_closure(cx, d)
        seq = find_simplicial_order(closure, d, budget=args.budget)
        if seq is None:
            verdict = False
            certificates[str(d)] = None
            break
        certificates[str(d)] = seq.to_json_dict()
    payload = {"chordal": verdict, "checked_d": checked, "certificates": certificates}
    _emit(payload, args.format, pretty_text=f"chordal: {verdict} (checked d = {checked})")
    return EXIT_OK if verdict else EXIT_FALSE


def _run_collapsible(args) -> int:
    cx = _load_complex(args.input)
    seq = is_d_collapsible(cx, args.d, budget=args.budget)
    payload = {"d": args.d, "collapsible": seq is not None, "certificate": _cert_json(seq)}
    _emit(payload, args.format, pretty_text=f"{args.d}-collapsible: {seq is not None}")
    return EXIT_OK if seq is not None else EXIT_FALSE


def _run_verify(args) -> int:
    cx = _load_complex(args.input)
    try:
        cert_data = json.loads(_read_input(args.certificate))
    except json.JSONDecodeError as exc:
        raise SRChordalError(f"certificate is not valid JSON: {exc}") from exc
    seq = FreeSequence.from_json_dict(cert_data)
    ok = verify_sequence(cx, seq, seq.d)
    _emit({"valid": ok}, args.format, pretty_text=f"valid: {ok}")
    return EXIT_OK if ok else EXIT_FALSE


def _run_betti(args) -> int:
    ideal = _load_ideal(args.input)
    fields = _fields_for(args.field)
    tables = {f.label: betti_table(ideal, f, budget=args.budget) for f in fields}
    payload = {label: t.to_json_dict() for label, t in tables.items()}
    if len(tables) > 1:
        entry_sets = [t.entries for t in tables.values()]
        payload["agree"] = all(e == entry_sets[0] for e in entry_sets)
    pretty = "\n\n".join(f"[{label}]\n{t.pretty()}" for label, t in tables.items())
    _emit(payload, args.format, pretty_text=pretty)
    return EXIT_OK


def _run_linres(args) -> int:
    ideal = _load_ideal(args.input)
    degs = set(ideal.degrees())
    if degs != {args.d}:
        raise SRChordalError(
            f"ideal is generated in degrees {sorted(degs)}, not equigenerated in {args.d}"
        )
    results = {
        f.label: has_linear_resolution(ideal, f, budget=args.budget)
        for f in _fields_for(args.field)
    }
    verdict = all(results.values())
    payload = {"d": args.d, "linear_resolution": results}
    _emit(payload, args.format, pretty_text=f"{args.d}-linear resolution: {results}")
    return EXIT_OK if verdict else EXIT_FALSE


def _run_cwl(args) -> int:
    ideal = _load_ideal(args.input)
    results = {
        f.label: is_componentwise_linear(ideal, f, budget=args.budget)
        for f in _fields_for(args.field)
    }
    verdict = all(results.values())
    payload = {"componentwise_linear": results}
    _emit(payload, args.format, pretty_text=f"componentwise linear: {results}")
    return EXIT_OK if verdict else EXIT_FALSE


def _run_classify(args) -> int:
    ideal = _load_ideal(args.input)
    report = classify(ideal, budget=args.budget)
    lines = [f"{k}: {v}" for k, v in report.items()]
    _emit(report, args.format, pretty_text="\n".join(lines))
    return EXIT_OK


def _run_dual(args) -> int:
    cx = _load_complex(args.input)
    out = cx.alexander_dual()
    _emit(out.to_json_dict(), args.format, pretty_text=repr(out))
    return EXIT_OK


def _run_nonfaces(args) -> int:
    cx = _load_complex(args.input)
    nf = [list(vertices_from_mask(f)) for f in cx.minimal_nonfaces()]
    _emit({"minimal_nonfaces": nf}, args.format, pretty_text="\n".join(map(str, nf)))
    return EXIT_OK


def _run_sigma(args) -> int:
    ideal = parse_monomial_ideal(_read_input(args.input))
    image, cx = sigma_pipeline(ideal)
    payload = {
        "ideal": {
            "n": image.n,
            "generators": [list(vertices_from_mask(g)) for g in image.gens],
        },
        "complex": cx.to_json_dict(),
    }
    _emit(payload, args.format, pretty_text=format_squarefree_ideal(image) + repr(cx))
    return EXIT_OK


def _run_experiment(args) -> int:
    rng = random.Random(args.seed)
    d = args.d
    checked_pairs = 0
    chordal_closures = 0
    counterexamples = []
    for _ in range(args.trials):
        n = rng.randint(max(d + 1, 3), args.max_n)
        num_facets = rng.randint(1, n + 2)
        facets = []
        for _ in range(num_facets):
            size = rng.randint(1, n)
            facets.append(rng.sample(range(1, n + 1), size))
        cx = SimplicialComplex.from_facets(n, facets)
        closure = d_closure(cx, d)
        if find_simplicial_order(closure, d, budget=args.budget) is None:
            continue
        chordal_closures += 1
        facet_set = set(closure.facets)
        for e in simplicial_faces(closure, d):
            if e in facet_set:
                continue
            checked_pairs += 1
            deleted = closure.face_deletion(e)
            if find_simplicial_order(deleted, d, budget=args.budget) is None:
                counterexamples.append(
                    {
                        "complex": closure.to_json_dict(),
                        "face": list(vertices_from_mask(e)),
                    }
                )
    payload = {
        "experiment": "q2",
        "d": d,
        "seed": args.seed,
        "trials": args.trials,
        "chordal_closures": chordal_closures,
        "checked_pairs": checked_pairs,
        "counterexamples": counterexamples,
    }
    _emit(payload, args.format)
    return EXIT_OK


_RUNNERS = {
    "closure": _run_closure,
    "chordal": _run_chordal,
    "collapsible": _run_collapsible,
    "verify": _run_verify,
    "betti": _run_betti,
    "linres": _run_linres,
    "cwl": _run_cwl,
    "classify": _run_classify,
    "dual": _run_dual,
    "nonfaces": _run_nonfaces,
    "sigma": _run_sigma,
    "experiment": _run_experiment,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _RUNNERS[args.command](args)
    except SearchBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (SRChordalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
