"""Seeded mutation fuzzing of every subcommand that reads a file: each
input ends in exit 0, 1, 2 or 3, never in an escaped exception, and an
exit of 2 or 3 prints one `error:` line and nothing on stdout.

The mutants are drawn from the complexes of `data.py`, their
Stanley-Reisner ideals, strongly stable monomial ideals and replayable
certificates: bytes are flipped, deleted, duplicated or spliced between
inputs of the same kind, and numbers are replaced by other numbers or
other JSON values. The Berge transversals behind chordal (its range
of d), dual, nonfaces and sigma run without a budget, and so does the
vertex decomposability check of classify, so a mutant is kept only if
every number in it is at most 12; inputs with deep nesting and huge
numbers, and large option values, are run separately, besides those
`test_cli.py` pins with their messages."""

import json
import random
import re
import sys

import pytest

from srchordal import (
    SimplicialComplex,
    d_chordal_order,
    d_closure,
    format_squarefree_ideal,
    is_d_collapsible,
    stanley_reisner_ideal,
)
from srchordal.cli import EXIT_BUDGET, EXIT_INPUT, main
from data import (
    BUDGET_GADGET_FACETS,
    DUNCE_HAT_FACETS,
    EX0_FACETS,
    FIG4_FACETS,
    HOLLOW_TETRA_FACETS,
    RP2_FACETS,
)

MUTANTS = 200  # per subcommand
LARGEST_NUMBER = 12
BUDGET = "300"

_COMPLEXES = [
    (5, EX0_FACETS), (6, RP2_FACETS), (4, HOLLOW_TETRA_FACETS),
    (8, DUNCE_HAT_FACETS), (7, FIG4_FACETS), (10, BUDGET_GADGET_FACETS),
]


def _complex_json(n, facets) -> bytes:
    return json.dumps({"n": n, "facets": facets}).encode()


def _seeds() -> dict[str, list[bytes]]:
    complexes = [SimplicialComplex.from_facets(n, facets) for n, facets in _COMPLEXES]
    ex0, fig4 = complexes[0], complexes[4]
    certificates = [
        d_chordal_order(d_closure(ex0, 2), 2).to_json_dict(),
        is_d_collapsible(fig4, 2).to_json_dict(),
    ]
    return {
        "complex": [_complex_json(n, facets) for n, facets in _COMPLEXES]
        + [_complex_json(3, None), _complex_json(3, [[]])],
        "ideal": [
            format_squarefree_ideal(stanley_reisner_ideal(cx)).encode() for cx in complexes
        ] + [b"x1 x2\nx1 x3\nx2 x3\n", b"n=4\nx1*x2\nx3*x4\n"],
        "monomial": [b"x1^2\nx1*x2\nx2^2\n", b"n=4\nx1^3\nx1^2*x2\nx1*x2^2\nx2^3\nx1*x3\n",
                     b"# stable\nx1^2 x2\nx1^2 x3\nx1 x2^2\n"],
        "certificate": [json.dumps(cert).encode() for cert in certificates],
    }


_POOL = b'[]{},:"0123456789xn=^* \n\t-.e#'
# what a number becomes: other numbers, and values of other JSON types
_TOKENS = [b"0", b"-1", b"1", b"2", b"3", b"12", b"01", b"1.5", b"1e1", b"true", b"null",
           b'"1"', b"[]", b"[[]]", b"{}"]


def _mutate(rng: random.Random, data: bytes, others: list[bytes]) -> bytes:
    for _ in range(rng.choice((1, 1, 2, 3))):
        i = rng.randrange(len(data) + 1)
        op = rng.randrange(8)  # half of the edits replace a number, to keep mutants parsing
        numbers = list(re.finditer(rb"[0-9]+", data))
        if op >= 4 and numbers:  # replace a number
            m = rng.choice(numbers)
            data = data[:m.start()] + rng.choice(_TOKENS) + data[m.end():]
        elif op == 0 and i < len(data):  # flip a byte
            byte = rng.randrange(256) if rng.random() < 0.3 else rng.choice(_POOL)
            data = data[:i] + bytes([byte]) + data[i + 1:]
        elif op == 1:  # delete a run
            data = data[:i] + data[i + rng.randint(1, 8):]
        elif op == 2:  # duplicate a run
            run = data[i:i + rng.randint(1, 16)]
            data = data[:i] + run + data[i:]
        else:  # splice another input's tail onto this one's head
            other = rng.choice(others)
            data = data[:i] + other[rng.randrange(len(other) + 1):]
    return data


def _small(data: bytes) -> bool:
    return all(int(digits) <= LARGEST_NUMBER for digits in re.findall(rb"[0-9]+", data))


def _mutants(rng: random.Random, seeds: list[bytes]) -> list[bytes]:
    out = []
    while len(out) < MUTANTS:
        mutant = _mutate(rng, rng.choice(seeds), seeds)
        if _small(mutant):
            out.append(mutant)
    return out


def _check(argv, capsys, label):
    try:
        code = main(argv)
    except Exception as exc:  # any escape is the defect under test
        pytest.fail(f"{label}: {argv[0]} raised {exc!r}")
    captured = capsys.readouterr()
    assert code in (0, 1, 2, 3), label
    if code in (EXIT_INPUT, EXIT_BUDGET):
        assert captured.out == "", label
        assert captured.err.startswith("error: "), label
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n"), label
    return code, captured.err


_FIELD = ["gf2", "char0", "gfp:3", "both"]

# subcommand: (kind of the input it reads, options before the input)
COMMANDS = {
    "closure": ("complex", ["--d", "2", "--budget", BUDGET]),
    "chordal": ("complex", ["--budget", BUDGET]),
    "collapsible": ("complex", ["--d", "2", "--budget", BUDGET]),
    "dual": ("complex", []),
    "nonfaces": ("complex", []),
    "verify": ("complex", []),
    "betti": ("ideal", ["--budget", BUDGET, "--field"]),
    "linres": ("ideal", ["--d", "3", "--budget", BUDGET, "--field"]),
    "cwl": ("ideal", ["--budget", BUDGET, "--field"]),
    "classify": ("ideal", ["--budget", BUDGET]),
    "sigma": ("monomial", []),
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_mutants_exit_0_to_3(command, tmp_path, capsys):
    kind, options = COMMANDS[command]
    rng = random.Random(f"fuzz-{command}")
    seeds = _seeds()
    for k, mutant in enumerate(_mutants(rng, seeds[kind])):
        path = tmp_path / f"{k}.in"
        path.write_bytes(mutant)
        argv = [command, *options]
        if options[-1:] == ["--field"]:
            argv.append(rng.choice(_FIELD))
        argv += ["--format", rng.choice(["json", "pretty"]), str(path)]
        if command == "verify":
            cert = tmp_path / f"{k}.cert"
            certificate = rng.choice(seeds["certificate"])
            if k % 2:  # a mutated certificate against an intact complex
                path.write_bytes(rng.choice(seeds["complex"]))
                certificate = _mutate(rng, certificate, seeds["certificate"])
            cert.write_bytes(certificate)
            argv += ["--certificate", str(cert)]
        _check(argv, capsys, f"{command} mutant {k}: {path.read_bytes()!r}")


_DEEP = 100_000
_HUGE = "9" * 5000

EXTREMES = [
    ("dual", '{"n": ' * _DEEP),
    ("nonfaces", '{"n": %s, "facets": []}' % _HUGE),
    ("dual", '{"n": 1e400, "facets": []}'),
    ("dual", '{"n": 3, "facets": [[1, %s]]}' % _HUGE),
    ("dual", '{"n": 3, "facets": [[1, 99999999999999999999]]}'),
    ("dual", '{"n": 3, "facets": [[1, 2]], "vertices": [%s]}' % ("1, " * 10000 + "1")),
    ("chordal", '{"n": 99999999999999999999, "facets": [[1]]}'),
    ("cwl", "x1 " * 20000 + "\n"),
    ("sigma", "x1^65\n"),
    ("sigma", "x1^32*x2^32\n"),
]


@pytest.mark.parametrize("command, text", EXTREMES, ids=range(len(EXTREMES)))
def test_deep_and_huge_inputs_exit_2(command, text, tmp_path, capsys):
    path = tmp_path / "in"
    path.write_text(text)
    code, err = _check([command, str(path)], capsys, text[:40])
    assert code == EXIT_INPUT
    # Python's advice to raise its int limit is no step a user can take
    assert "set_int_max_str_digits" not in err
    limit = getattr(sys, "get_int_max_str_digits", int)()  # no limit before 3.10.7
    if _HUGE in text and 0 < limit < len(_HUGE):
        assert err == (
            f"error: complex input is not valid JSON: an integer has more than {limit} digits\n"
        )


LARGE_OPTIONS = [
    ["collapsible", "--d", str(10**6), "--budget", BUDGET],
    ["chordal", "--d", str(10**6), "--budget", BUDGET],
    ["closure", "--d", str(10**6), "--budget", BUDGET],
]


@pytest.mark.parametrize("options", LARGE_OPTIONS, ids=[o[0] for o in LARGE_OPTIONS])
def test_large_options_exit_0_to_3(options, tmp_path, capsys):
    for k, data in enumerate(_seeds()["complex"]):
        path = tmp_path / f"{k}.json"
        path.write_bytes(data)
        _check([*options, str(path)], capsys, f"{options[0]} on {data!r}")


def test_large_max_n_exits_2(capsys):
    # argparse prints its usage before the one error line
    argv = ["experiment", "q2", "--seed", "1", "--trials", "1", "--max-n", str(10**5)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_INPUT
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if "error: " in line] == [
        "srchordal experiment: error: experiment q2 needs --max-n <= 64"
    ]


@pytest.mark.parametrize(
    "certificate",
    ['{"kind": "collapse", "d": %s, "faces": []}' % _HUGE,
     '{"kind": ["collapse"], "d": 1, "faces": []}', '{"kind": {}, "d": 1, "faces": []}'],
    ids=["huge_d", "list_kind", "dict_kind"],
)
def test_bad_certificates_exit_2(certificate, tmp_path, capsys):
    cx, cert = tmp_path / "cx.json", tmp_path / "cert.json"
    cx.write_bytes(_complex_json(5, EX0_FACETS))
    cert.write_text(certificate)
    argv = ["verify", str(cx), "--certificate", str(cert)]
    assert _check(argv, capsys, certificate[:40])[0] == EXIT_INPUT
