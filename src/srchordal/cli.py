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
2 = input error (including an option the subcommand does not take),
3 = budget exhausted (search nodes, d-closure faces for closure,
chordal, classify and experiment, or LCM lattice members for betti,
linres, cwl and classify). Verdict-valued subcommands use status 1
for "false" so shell pipelines can branch on them; this deliberately
diverges from errors-only conventions.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from . import __version__
from .betti import (
    CHAR0,
    GF2,
    FieldSpec,
    betti_table,
    has_linear_resolution,
    is_componentwise_linear,
    linear_by_field,
)
from .chordality import (
    DEFAULT_BUDGET,
    FreeSequence,
    chordality_check_range,
    d_chordal_order,
    d_closure,
    is_d_collapsible,
    simplicial_deletions,
    verify_sequence,
)
from .complexes import SimplicialComplex
from .errors import SearchBudgetExceeded, SRChordalError
from .families import classify, sigma_pipeline
from .ideals import format_squarefree_ideal, parse_monomial_ideal, parse_squarefree_ideal
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


def _fields_for(choice: str) -> list[FieldSpec]:
    if choice == "both":
        return [GF2, CHAR0]
    return [FieldSpec.parse(choice)]


def _cert_json(seq: FreeSequence | None):
    return None if seq is None else seq.to_json_dict()


def _nonnegative(what: str):
    """An argparse type for an integer >= 0, named `what` in its errors."""

    def parse(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"{what} must be >= 0, got {value}")
        return value

    parse.__name__ = what  # argparse reports "invalid <what> value" for non-integers
    return parse


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

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", help="input file path, or - for stdin")
    common.add_argument(
        "--format", choices=("json", "pretty"), default="json", help="output format"
    )
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument(
        "--budget",
        type=_nonnegative("budget"),
        default=DEFAULT_BUDGET,
        help="node budget for backtracking searches, face budget for each d-closure, "
        "and member budget for each LCM lattice of a Betti or linearity computation "
        "(default 10^7)",
    )
    field = argparse.ArgumentParser(add_help=False)
    field.add_argument(
        "--field",
        default="gf2",
        help="coefficient field: gf2 (default), gfp:P, char0, or both (gf2 and char0); "
        "with both, linres and cwl take a gf2 \"linear\" for char0 too, without a second "
        "walk, since no Betti number over char0 exceeds the one over gf2",
    )

    # each subcommand declares only the options its runner reads
    subs = {}
    for name, parents, text, run in [
        ("closure", [common, budget], "emit the d-closure of a complex", _run_closure),
        ("chordal", [common, budget], "decide (d-)chordality of a complex", _run_chordal),
        ("collapsible", [common, budget], "decide d-collapsibility of a complex",
         _run_collapsible),
        ("verify", [common], "replay a certificate against a complex", _run_verify),
        ("betti", [common, budget, field], "graded Betti table of an ideal", _run_betti),
        ("linres", [common, budget, field],
         "decide d-linear resolution of an equigenerated ideal", _run_linres),
        ("cwl", [common, budget, field], "decide componentwise linearity of an ideal", _run_cwl),
        ("classify", [common, budget], "run every family checker on an ideal", _run_classify),
        ("dual", [common], "Alexander dual of a complex", _run_dual),
        ("nonfaces", [common], "minimal nonfaces of a complex", _run_nonfaces),
        ("sigma", [common], "square-free operator pipeline on a strongly stable ideal",
         _run_sigma),
    ]:
        subs[name] = sub.add_parser(name, parents=parents, help=text)
        subs[name].set_defaults(run=run)
    for name in ("closure", "collapsible", "linres"):
        subs[name].add_argument("--d", type=int, required=True)
    subs["chordal"].add_argument(
        "--d", type=int, default=None, help="check d-chordality for this d only"
    )
    subs["verify"].add_argument(
        "--certificate", required=True, help="certificate JSON file, or - for stdin"
    )

    p = sub.add_parser(
        "experiment",
        parents=[budget],
        help="randomized probes (report-only)",
        description="experiment q2: sample d-chordal d-closures and test whether "
        "deleting a non-facet simplicial face preserves d-chordality. Reports "
        "counts and any counterexamples; asserts nothing.",
    )
    p.add_argument("name", choices=("q2",))
    p.add_argument("--seed", type=int, required=True, help="RNG seed (required, no wall clock)")
    p.add_argument("--trials", type=_nonnegative("trials"), default=100)
    p.add_argument(
        "--max-n", type=int, default=6, help="largest vertex count drawn; at least max(d+1, 3)"
    )
    p.add_argument("--d", type=int, default=2)
    p.set_defaults(run=_run_experiment)

    return parser


# A runner returns its verdict (None if it gives none), its JSON payload
# and its --format pretty text (None if it prints JSON only).
_Result = tuple[bool | None, dict, str | None]


def _run_closure(args) -> _Result:
    out = d_closure(_load_complex(args.input), args.d, budget=args.budget)
    return None, out.to_json_dict(), repr(out)


def _run_chordal(args) -> _Result:
    cx = _load_complex(args.input)
    if args.d is not None:
        seq = d_chordal_order(cx, args.d, budget=args.budget)
        payload = {
            "d": args.d,
            "d_chordal": seq is not None,
            "certificate": _cert_json(seq),
        }
        return seq is not None, payload, f"{args.d}-chordal: {seq is not None}"
    lo, hi = chordality_check_range(cx)
    checked = list(range(lo, hi + 1))
    certificates = {}
    for d in checked:
        certificates[str(d)] = _cert_json(d_chordal_order(cx, d, budget=args.budget))
        if certificates[str(d)] is None:
            break
    verdict = None not in certificates.values()
    payload = {"chordal": verdict, "checked_d": checked, "certificates": certificates}
    return verdict, payload, f"chordal: {verdict} (checked d = {checked})"


def _run_collapsible(args) -> _Result:
    seq = is_d_collapsible(_load_complex(args.input), args.d, budget=args.budget)
    payload = {"d": args.d, "collapsible": seq is not None, "certificate": _cert_json(seq)}
    return seq is not None, payload, f"{args.d}-collapsible: {seq is not None}"


def _run_verify(args) -> _Result:
    cx = _load_complex(args.input)
    try:
        cert_data = json.loads(_read_input(args.certificate))
    except json.JSONDecodeError as exc:
        raise SRChordalError(f"certificate is not valid JSON: {exc}") from exc
    seq = FreeSequence.from_json_dict(cert_data)
    ok = verify_sequence(cx, seq, seq.d)
    return ok, {"valid": ok}, f"valid: {ok}"


def _run_betti(args) -> _Result:
    ideal = parse_squarefree_ideal(_read_input(args.input))
    fields = _fields_for(args.field)
    tables = {f.label: betti_table(ideal, f, budget=args.budget) for f in fields}
    payload = {label: t.to_json_dict() for label, t in tables.items()}
    if len(tables) > 1:
        entry_sets = [t.entries for t in tables.values()]
        payload["agree"] = all(e == entry_sets[0] for e in entry_sets)
    pretty = "\n\n".join(f"[{label}]\n{t.pretty()}" for label, t in tables.items())
    return None, payload, pretty


def _run_linres(args) -> _Result:
    ideal = parse_squarefree_ideal(_read_input(args.input))
    degs = set(ideal.degrees())
    if degs != {args.d}:
        raise SRChordalError(
            f"ideal is generated in degrees {sorted(degs)}, not equigenerated in {args.d}"
        )
    results = linear_by_field(
        has_linear_resolution, ideal, _fields_for(args.field), budget=args.budget
    )
    payload = {"d": args.d, "linear_resolution": results}
    return all(results.values()), payload, f"{args.d}-linear resolution: {results}"


def _run_cwl(args) -> _Result:
    ideal = parse_squarefree_ideal(_read_input(args.input))
    results = linear_by_field(
        is_componentwise_linear, ideal, _fields_for(args.field), budget=args.budget
    )
    payload = {"componentwise_linear": results}
    return all(results.values()), payload, f"componentwise linear: {results}"


def _run_classify(args) -> _Result:
    report = classify(parse_squarefree_ideal(_read_input(args.input)), budget=args.budget)
    return None, report, "\n".join(f"{k}: {v}" for k, v in report.items())


def _run_dual(args) -> _Result:
    out = _load_complex(args.input).alexander_dual()
    return None, out.to_json_dict(), repr(out)


def _run_nonfaces(args) -> _Result:
    nf = [list(vertices_from_mask(f)) for f in _load_complex(args.input).minimal_nonfaces()]
    return None, {"minimal_nonfaces": nf}, "\n".join(map(str, nf))


def _run_sigma(args) -> _Result:
    ideal = parse_monomial_ideal(_read_input(args.input))
    image, cx = sigma_pipeline(ideal)
    payload = {
        "ideal": {
            "n": image.n,
            "generators": [list(vertices_from_mask(g)) for g in image.gens],
        },
        "complex": cx.to_json_dict(),
    }
    return None, payload, format_squarefree_ideal(image) + repr(cx)


def _run_experiment(args) -> _Result:
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
        probe = simplicial_deletions(cx, d, budget=args.budget)
        if probe is None:
            continue
        closure, pairs = probe
        chordal_closures += 1
        checked_pairs += len(pairs)
        counterexamples += [
            {"complex": closure.to_json_dict(), "face": list(vertices_from_mask(e))}
            for e, has_order in pairs
            if not has_order
        ]
    payload = {
        "experiment": "q2",
        "d": d,
        "seed": args.seed,
        "trials": args.trials,
        "chordal_closures": chordal_closures,
        "checked_pairs": checked_pairs,
        "counterexamples": counterexamples,
    }
    return None, payload, None


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    # parse_args would name the leftovers, and with `dual --budget 5 FILE`
    # those are --budget and FILE, since 5 was taken as the input path
    args, extras = parser.parse_known_args(argv)
    options = [a.split("=", 1)[0] for a in extras if a.startswith("-") and a != "-"]
    if options:
        parser.error(f"{args.command} does not take {' '.join(options)}")
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    if args.command == "experiment" and args.max_n < max(args.d + 1, 3):
        # trials draw n from max(d+1, 3)..max_n
        parser.error(f"experiment q2 needs --max-n >= {max(args.d + 1, 3)} for --d {args.d}")
    try:
        verdict, payload, pretty = args.run(args)
        if pretty is not None and args.format == "pretty":
            print(pretty)
        else:
            print(json.dumps(payload, indent=2, sort_keys=True))
        return EXIT_FALSE if verdict is False else EXIT_OK
    except SearchBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (SRChordalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
