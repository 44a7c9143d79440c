"""Exit statuses and output of the command line, driven through main(argv)."""

import json

import pytest

from srchordal.cli import EXIT_BUDGET, EXIT_FALSE, EXIT_INPUT, EXIT_OK, build_parser, main
from data import EX0_FACETS


@pytest.fixture
def files(tmp_path):
    paths = {
        "triangle": tmp_path / "triangle.txt",
        "two_edges": tmp_path / "two_edges.txt",
        "malformed": tmp_path / "malformed.txt",
        "ex0": tmp_path / "ex0.json",
    }
    paths["triangle"].write_text("x1 x2\nx1 x3\nx2 x3\n")
    paths["two_edges"].write_text("n=4\nx1 x2\nx3 x4\n")
    paths["malformed"].write_text("x1 x1\n")
    paths["ex0"].write_text(json.dumps({"n": 5, "facets": EX0_FACETS}))
    return {name: str(p) for name, p in paths.items()}


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestExitStatus:
    def test_betti_computes(self, files, capsys):
        code, out = run(["betti", files["triangle"]], capsys)
        assert code == EXIT_OK
        entries = json.loads(out)["gf2"]["entries"]
        assert {"i": 0, "j": 2, "beta": 3} in entries
        assert {"i": 1, "j": 3, "beta": 2} in entries

    def test_cwl_false_on_two_disjoint_edges(self, files, capsys):
        code, out = run(["cwl", "--field", "both", files["two_edges"]], capsys)
        assert code == EXIT_FALSE
        assert json.loads(out) == {"componentwise_linear": {"gf2": False, "char0": False}}

    def test_malformed_ideal_is_an_input_error(self, files, capsys):
        code = main(["betti", files["malformed"]])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert "square-free" in captured.err

    def test_exhausted_budget(self, files, capsys):
        code = main(["chordal", "--d", "2", "--budget", "1", files["ex0"]])
        assert code == EXIT_BUDGET
        assert "budget" in capsys.readouterr().err

    def test_workers_is_rejected(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["betti", "--workers", "2", files["triangle"]])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestParserReuse:
    def test_consecutive_calls_match_fresh_calls(self, files, capsys):
        first = ["chordal", "--d", "2", files["ex0"]]
        second = ["betti", "--format", "pretty", "--field", "both", files["two_edges"]]
        in_a_row = [run(first, capsys), run(second, capsys)]
        fresh = []
        for argv in (first, second):
            build_parser.cache_clear()
            fresh.append(run(argv, capsys))
        assert in_a_row == fresh
        assert [code for code, _ in fresh] == [EXIT_OK, EXIT_OK]
        assert build_parser() is build_parser()
