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
        "wide_lattice": tmp_path / "wide_lattice.txt",
    }
    paths["triangle"].write_text("x1 x2\nx1 x3\nx2 x3\n")
    paths["two_edges"].write_text("n=4\nx1 x2\nx3 x4\n")
    paths["malformed"].write_text("x1 x1\n")
    paths["ex0"].write_text(json.dumps({"n": 5, "facets": EX0_FACETS}))
    # I_[3] has 55 generators and an LCM lattice of about 4 * 10^8
    # members; never run this input without a small budget
    paths["wide_lattice"].write_text("n=30\nx1 x2\nx1 x3\nx4 x5 x6 x7\n")
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

    def test_lattice_budget_counts_for_cwl(self, files, capsys):
        code = main(["cwl", "--budget", "10000", files["wide_lattice"]])
        captured = capsys.readouterr()
        assert code == EXIT_BUDGET
        assert captured.out == ""
        assert "budget" in captured.err

    @pytest.mark.parametrize(
        "complex_json",
        [
            {"n": 3, "facets": [[0, 1]]},
            {"n": 3, "facets": [["1", 2]]},
            {"n": 3, "facets": [[1.0, 2]]},
            {"n": True, "facets": [[1]]},
        ],
        ids=["label_zero", "string_label", "float_label", "boolean_n"],
    )
    def test_malformed_complex_is_an_input_error(self, tmp_path, capsys, complex_json):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(complex_json))
        code = main(["dual", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_malformed_certificate_is_an_input_error(self, files, tmp_path, capsys):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps({"kind": "collapse", "d": 1, "faces": [[0]]}))
        code = main(["verify", "--certificate", str(path), files["ex0"]])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert "vertex labels" in captured.err

    def test_negative_budget_is_rejected(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chordal", "--budget", "-5", files["ex0"]])
        assert exc.value.code == 2
        assert "budget must be >= 0" in capsys.readouterr().err

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
