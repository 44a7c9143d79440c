"""Exit statuses and output of the command line, driven through main(argv)."""

import io
import json
import tracemalloc

import pytest

from srchordal.cli import EXIT_BUDGET, EXIT_FALSE, EXIT_INPUT, EXIT_OK, build_parser, main
from data import BUDGET_GADGET_FACETS, EX0_FACETS


@pytest.fixture
def files(tmp_path):
    paths = {
        "triangle": tmp_path / "triangle.txt",
        "two_edges": tmp_path / "two_edges.txt",
        "malformed": tmp_path / "malformed.txt",
        "ex0": tmp_path / "ex0.json",
        "wide_lattice": tmp_path / "wide_lattice.txt",
        "hollow_triangle": tmp_path / "hollow_triangle.json",
        "rp2_ideal": tmp_path / "rp2_ideal.txt",
        "stable_squares": tmp_path / "stable_squares.txt",
        "not_stable": tmp_path / "not_stable.txt",
        "simplex30": tmp_path / "simplex30.json",
        "principal30": tmp_path / "principal30.txt",
        "gadget": tmp_path / "gadget.json",
    }
    paths["triangle"].write_text("x1 x2\nx1 x3\nx2 x3\n")
    paths["two_edges"].write_text("n=4\nx1 x2\nx3 x4\n")
    paths["malformed"].write_text("x1 x1\n")
    paths["ex0"].write_text(json.dumps({"n": 5, "facets": EX0_FACETS}))
    # I_[3] has 55 generators and an LCM lattice of about 4 * 10^8
    # members; never run this input without a small budget
    paths["wide_lattice"].write_text("n=30\nx1 x2\nx1 x3\nx4 x5 x6 x7\n")
    paths["hollow_triangle"].write_text(json.dumps({"n": 3, "facets": [[1, 2], [1, 3], [2, 3]]}))
    # the Stanley-Reisner ideal of the minimal 6-vertex real projective plane
    paths["rp2_ideal"].write_text(
        "x1 x2 x3\nx2 x3 x4\nx1 x2 x5\nx1 x4 x5\nx3 x4 x5\n"
        "x1 x3 x6\nx1 x4 x6\nx2 x4 x6\nx2 x5 x6\nx3 x5 x6\n"
    )
    paths["stable_squares"].write_text("x1^2\nx1*x2\nx2^2\n")
    paths["not_stable"].write_text("x1*x2\nx2^2\n")
    # closures of these two have about 2^30 faces; never run them without
    # a small budget
    paths["simplex30"].write_text(json.dumps({"n": 30, "facets": [list(range(1, 31))]}))
    paths["principal30"].write_text("n=30\nx1*x2\n")
    paths["gadget"].write_text(json.dumps({"n": 10, "facets": BUDGET_GADGET_FACETS}))
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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["closure", "--d", "2", "--budget", "1000", "simplex30"],
             "the 2-closure exceeded the face budget (1000)"),
            (["classify", "--budget", "10000", "principal30"],
             "the 1-closure exceeded the face budget (10000)"),
            (["chordal", "--d", "2", "--budget", "2000", "gadget"],
             "simplicial-order search exceeded the node budget (2000)"),
        ],
        ids=["closure", "classify", "search_after_a_small_closure"],
    )
    def test_closure_budget(self, files, capsys, argv, message):
        code = main(argv[:-1] + [files[argv[-1]]])
        captured = capsys.readouterr()
        assert code == EXIT_BUDGET
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "n, argv, message",
        [
            (22, ["--d", "11", "--budget", "1000"],
             "the 11-closure exceeded the face budget (1000)"),
            (64, ["--d", "32"], "the 32-closure exceeded the face budget (10000000)"),
        ],
        ids=["22_vertices", "64_vertices_default_budget"],
    )
    def test_closure_budget_is_checked_before_any_level_is_listed(
        self, tmp_path, capsys, n, argv, message
    ):
        # comb(n, d) d-sets are over the budget before one is built
        path = tmp_path / "simplex.json"
        path.write_text(json.dumps({"n": n, "facets": [list(range(1, n + 1))]}))
        tracemalloc.start()
        try:
            code = main(["closure", *argv, str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == EXIT_BUDGET
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert peak < 1 << 20

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["dual", "{bad}"], "complex input is not valid JSON: "),
            (["verify", "--certificate", "{bad}", "{ex0}"], "certificate is not valid JSON: "),
        ],
        ids=["complex", "certificate"],
    )
    def test_invalid_json_is_an_input_error(self, files, tmp_path, capsys, argv, message):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 3, "facets": [[1, 2]')
        code = main([a.format(bad=bad, **files) for a in argv])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")

    def test_field_characteristic_error(self, files, capsys):
        code = main(["betti", "--field", "gfp:4", files["triangle"]])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert captured.err == "error: field characteristic must be 0 or a prime < 2^31, got 4\n"

    def test_negative_budget_is_rejected(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chordal", "--budget", "-5", files["ex0"]])
        assert exc.value.code == 2
        assert "budget must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["betti", "sigma"])
    def test_huge_variable_index_is_an_input_error(self, tmp_path, capsys, command):
        path = tmp_path / "huge.txt"
        path.write_text("x99999999999999999999\n")
        code = main([command, str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert captured.err == "error: line 1: variable index must be in 1..64\n"

    def test_large_variable_index_is_rejected_before_any_mask(self, tmp_path, capsys):
        # x1000000000 alone would need a mask of 10^9 bits
        path = tmp_path / "large.txt"
        path.write_text("x1000000000\n")
        tracemalloc.start()
        try:
            code = main(["betti", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_INPUT
        assert "variable index must be in 1..64" in capsys.readouterr().err
        assert peak < 1 << 20

    @pytest.mark.parametrize("header", ["n=0", "n=65", "n=100000000000000000000"])
    def test_header_outside_the_range_is_an_input_error(self, tmp_path, capsys, header):
        # sigma builds an exponent list of length n from the header
        path = tmp_path / "header.txt"
        path.write_text(f"{header}\nx1^2\n")
        code = main(["sigma", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert captured.err == "error: line 1: n= must be in 1..64\n"

    def test_overlong_exponent_is_an_input_error(self, tmp_path, capsys):
        # more digits than int() converts
        path = tmp_path / "exponent.txt"
        path.write_text("x1^" + "9" * 5000 + "\n")
        code = main(["sigma", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert "exponent 99999999999999999999... is too long" in captured.err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--max-n", "2"], "needs --max-n >= 3 for --d 2"),
            (["--max-n", "3", "--d", "3"], "needs --max-n >= 4 for --d 3"),
            (["--trials", "-1"], "trials must be >= 0, got -1"),
        ],
        ids=["max_n_below_three", "max_n_below_d_plus_one", "negative_trials"],
    )
    def test_bad_experiment_arguments_are_rejected(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "q2", "--seed", "1", *argv])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_experiment_format_is_rejected(self, capsys):
        # experiment prints JSON only
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "q2", "--seed", "1", "--format", "pretty"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--certificate", "{ex0}", "{ex0}"],
            ["dual", "{ex0}"],
            ["nonfaces", "{ex0}"],
            ["sigma", "{stable_squares}"],
        ],
        ids=["verify", "dual", "nonfaces", "sigma"],
    )
    def test_budget_is_rejected_where_nothing_reads_it(self, files, capsys, argv):
        argv = [a.format(**files) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv[:1] + ["--budget", "5"] + argv[1:])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        # argparse takes 5 for the input path; only the option is named
        assert f"error: {argv[0]} does not take --budget\n" in captured.err
        assert not any(str(path) in captured.err for path in files.values())

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("betti", "# no monomials\n", "cannot infer the variable count; add an n= header"),
            ("sigma", "", "cannot infer the variable count; add an n= header"),
            ("betti", "n=2\nx1\nx3\n", "variable x3 exceeds the declared n=2"),
            ("sigma", "n=2\nx3^2\n", "variable x3 exceeds the declared n=2"),
            ("betti", "x2\nx1^2*x3\n", "exponent on x1: input must be square-free"),
            ("betti", "x2 x3 x2\n", "repeated variable x2: input must be square-free"),
            # Arabic-Indic digits: int() reads them, the format does not
            ("betti", "n=\u0663\nx\u0661 x\u0662\n", "line 1: bad monomial token 'n=\u0663'"),
            ("sigma", "n=\u0663\nx\u0661 x\u0662\n", "line 1: bad monomial token 'n=\u0663'"),
            ("betti", "x\u0661 x2\n", "line 1: bad monomial token 'x\u0661'"),
            ("sigma", "x\u0661 x2\n", "line 1: bad monomial token 'x\u0661'"),
            ("betti", "x1^\u0662 x2\n", "line 1: bad monomial token 'x1^\u0662'"),
            ("sigma", "x1^\u0662 x2\n", "line 1: bad monomial token 'x1^\u0662'"),
        ],
        ids=["infer_squarefree", "infer_monomial", "exceeds_squarefree", "exceeds_monomial",
             "exponent", "repeated", "arabic_header_betti", "arabic_header_sigma",
             "arabic_variable_betti", "arabic_variable_sigma", "arabic_exponent_betti",
             "arabic_exponent_sigma"],
    )
    def test_whole_input_ideal_errors(self, tmp_path, capsys, command, text, message):
        path = tmp_path / "ideal.txt"
        path.write_text(text, encoding="utf-8")
        code = main([command, str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_workers_is_rejected(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["betti", "--workers", "2", files["triangle"]])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestSubcommands:
    def test_closure(self, files, capsys):
        # the 1-closure is the clique complex of the graph of EX0
        code, out = run(["closure", "--d", "1", files["ex0"]], capsys)
        assert code == EXIT_OK
        assert json.loads(out) == {"n": 5, "facets": [[1, 2, 3, 4], [1, 2, 4, 5]]}

    @pytest.mark.parametrize(
        "facets, checked",
        [
            ([[1, 2], [2, 3], [3, 4], [1, 4]], [1]),
            # the range is [1, 2], d = 2 has an order and d = 1 has none:
            # the search stops at the first d that fails
            ([[1, 3, 4, 6], [2, 3, 5, 6], [1, 4, 7], [1, 3, 5, 7]], [1, 2]),
        ],
        ids=["four_cycle", "fails_first_of_two"],
    )
    def test_chordal_stops_at_the_first_failing_d(self, tmp_path, capsys, facets, checked):
        path = tmp_path / "cx.json"
        path.write_text(json.dumps({"n": max(map(max, facets)), "facets": facets}))
        code, out = run(["chordal", str(path)], capsys)
        assert code == EXIT_FALSE
        assert json.loads(out) == {
            "certificates": {"1": None}, "checked_d": checked, "chordal": False
        }

    @pytest.mark.parametrize("command, name", [("betti", "triangle"), ("dual", "ex0")])
    def test_dash_reads_stdin(self, files, monkeypatch, capsys, command, name):
        from_file = run([command, files[name]], capsys)
        with open(files[name], encoding="utf-8") as fh:
            monkeypatch.setattr("sys.stdin", io.StringIO(fh.read()))
        assert run([command, "-"], capsys) == from_file

    def test_collapsible_certificate_replays(self, files, tmp_path, capsys):
        code, out = run(["collapsible", "--d", "2", files["ex0"]], capsys)
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["d"] == 2 and payload["collapsible"] is True
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(payload["certificate"]))
        code, out = run(["verify", "--certificate", str(cert), files["ex0"]], capsys)
        assert (code, json.loads(out)) == (EXIT_OK, {"valid": True})

    def test_verify_replays_an_order_without_building_the_closure(
        self, files, tmp_path, capsys
    ):
        # deleting the proper superfaces of {1}, ..., {29} in turn leaves
        # the 30 vertices, the 0-skeleton; the 1-closure of the simplex
        # has 2^30 faces and is never listed
        cert = tmp_path / "cert.json"
        faces = [[v] for v in range(1, 30)]
        cert.write_text(json.dumps({"kind": "simplicial_order", "d": 1, "faces": faces}))
        tracemalloc.start()
        try:
            code = main(["verify", "--certificate", str(cert), files["simplex30"]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, json.loads(capsys.readouterr().out)) == (EXIT_OK, {"valid": True})
        assert peak < 1 << 20

    def test_collapsible_false_on_hollow_triangle(self, files, capsys):
        # every vertex lies in two edges, so no face of dimension < 1 is free
        code, out = run(["collapsible", "--d", "1", files["hollow_triangle"]], capsys)
        assert code == EXIT_FALSE
        assert json.loads(out) == {"d": 1, "collapsible": False, "certificate": None}

    def test_linres(self, files, capsys):
        code, out = run(["linres", "--d", "2", files["triangle"]], capsys)
        assert (code, json.loads(out)) == (EXIT_OK, {"d": 2, "linear_resolution": {"gf2": True}})
        code, out = run(["linres", "--d", "2", "--field", "both", files["two_edges"]], capsys)
        assert code == EXIT_FALSE
        assert json.loads(out)["linear_resolution"] == {"gf2": False, "char0": False}

    @pytest.mark.parametrize(
        "argv", [["cwl"], ["linres", "--d", "3"]], ids=["cwl", "linres"]
    )
    def test_both_fields_on_rp2(self, files, capsys, argv):
        # a gf2 "linear" is taken for char0 too, but RP^2's 2-torsion makes
        # gf2 nonlinear alone, so char0 gets its own walk and its own verdict
        key = "componentwise_linear" if argv[0] == "cwl" else "linear_resolution"
        code, out = run(argv + ["--field", "both", files["rp2_ideal"]], capsys)
        assert code == EXIT_FALSE
        assert json.loads(out)[key] == {"gf2": False, "char0": True}
        code, out = run(argv + ["--field", "both", "--format", "pretty", files["rp2_ideal"]],
                        capsys)
        assert out.endswith(": {'gf2': False, 'char0': True}\n")

    def test_linres_degree_mismatch_is_an_input_error(self, files, capsys):
        code = main(["linres", "--d", "3", files["triangle"]])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert "not equigenerated in 3" in captured.err

    def test_classify(self, files, capsys):
        # the edge ideal of the triangle is square-free strongly stable, and
        # its complex (three points) is chordal with a linear resolution
        code, out = run(["classify", files["triangle"]], capsys)
        report = json.loads(out)
        assert code == EXIT_OK
        assert set(report) == {
            "stable", "strongly_stable", "shifted", "vertex_decomposable",
            "gotzmann", "chordal", "componentwise_linear",
        }
        assert report["stable"] and report["strongly_stable"] and report["chordal"]
        assert report["componentwise_linear"] == {"gf2": True, "char0": True}

    def test_nonfaces(self, files, capsys):
        code, out = run(["nonfaces", files["ex0"]], capsys)
        assert code == EXIT_OK
        assert json.loads(out) == {"minimal_nonfaces": [[1, 2, 5], [3, 5], [2, 4, 5]]}

    def test_dual(self, files, capsys):
        # the complements in [5] of the minimal nonfaces 125, 35 and 245
        code, out = run(["dual", files["ex0"]], capsys)
        assert code == EXIT_OK
        assert json.loads(out) == {"n": 5, "facets": [[1, 3], [1, 2, 4], [3, 4]]}

    def test_experiment_q2(self, capsys):
        code, out = run(["experiment", "q2", "--seed", "1", "--trials", "20"], capsys)
        assert code == EXIT_OK
        assert json.loads(out) == {
            "experiment": "q2", "d": 2, "seed": 1, "trials": 20,
            "chordal_closures": 20, "checked_pairs": 122, "counterexamples": [],
        }

    def test_sigma(self, files, capsys):
        # sigma(x1^2) = x1x2, sigma(x1x2) = x1x3, sigma(x2^2) = x2x3
        code, out = run(["sigma", files["stable_squares"]], capsys)
        assert code == EXIT_OK
        assert json.loads(out) == {
            "ideal": {"n": 3, "generators": [[1, 2], [1, 3], [2, 3]]},
            "complex": {"n": 3, "facets": [[1], [2], [3]]},
        }

    def test_sigma_rejects_an_ideal_that_is_not_strongly_stable(self, files, capsys):
        code = main(["sigma", files["not_stable"]])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert "strongly stable" in captured.err

    def test_betti_both_fields_agree(self, files, capsys):
        code, out = run(["betti", "--field", "both", files["two_edges"]], capsys)
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["agree"] is True
        for label in ("gf2", "char0"):
            assert payload[label]["field"] == label
            assert payload[label]["entries"] == [
                {"i": 0, "j": 2, "beta": 2}, {"i": 1, "j": 4, "beta": 1},
            ]

    def test_betti_both_fields_disagree_on_rp2(self, files, capsys):
        # RP^2 has 2-torsion: its ideal is 3-linear except over GF(2)
        code, out = run(["betti", "--field", "both", files["rp2_ideal"]], capsys)
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["agree"] is False
        linear = [{"i": 0, "j": 3, "beta": 10}, {"i": 1, "j": 4, "beta": 15},
                  {"i": 2, "j": 5, "beta": 6}]
        assert payload["char0"]["entries"] == linear
        assert payload["gf2"]["entries"] == linear + [
            {"i": 2, "j": 6, "beta": 1}, {"i": 3, "j": 6, "beta": 1},
        ]


class TestPrettyFormat:
    @pytest.mark.parametrize(
        "argv, expected_code, expected",
        [
            (["betti", "{triangle}"], EXIT_OK, "[gf2]\n        0  1\n    2:  3  2\n"),
            (["closure", "--d", "1", "{ex0}"], EXIT_OK,
             "SimplicialComplex(n=5, <{1,2,3,4},{1,2,4,5}>)\n"),
            (["chordal", "{ex0}"], EXIT_OK, "chordal: True (checked d = [1, 2])\n"),
            (["chordal", "--d", "2", "{ex0}"], EXIT_OK, "2-chordal: True\n"),
            (["collapsible", "--d", "1", "{hollow_triangle}"], EXIT_FALSE,
             "1-collapsible: False\n"),
            (["linres", "--d", "2", "{triangle}"], EXIT_OK,
             "2-linear resolution: {'gf2': True}\n"),
            (["cwl", "{triangle}"], EXIT_OK, "componentwise linear: {'gf2': True}\n"),
            (["nonfaces", "{ex0}"], EXIT_OK, "[1, 2, 5]\n[3, 5]\n[2, 4, 5]\n"),
            (
                ["sigma", "{stable_squares}"],
                EXIT_OK,
                "n=3\nx1*x2\nx1*x3\nx2*x3\nSimplicialComplex(n=3, <{1},{2},{3}>)\n",
            ),
        ],
        ids=["betti", "closure", "chordal", "chordal_d", "collapsible", "linres", "cwl",
             "nonfaces", "sigma"],
    )
    def test_pretty_output(self, files, capsys, argv, expected_code, expected):
        argv = [a.format(**files) for a in argv]
        code, out = run(argv[:1] + ["--format", "pretty"] + argv[1:], capsys)
        assert code == expected_code
        assert out == expected

    def test_classify_pretty_lists_every_family(self, files, capsys):
        code, out = run(["classify", "--format", "pretty", files["two_edges"]], capsys)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "stable", "strongly_stable", "shifted", "vertex_decomposable",
            "gotzmann", "chordal", "componentwise_linear",
        ]
        assert lines[-1] == "componentwise_linear: {'gf2': False, 'char0': False}"


class TestClosureCount:
    def test_one_closure_per_chordal_d_operation(self, files, monkeypatch, capsys):
        # the search trusts the closure it is handed instead of rebuilding it
        import srchordal.chordality
        import srchordal.cli

        real = srchordal.chordality.d_closure
        calls = []

        def counting(cx, d, **budget):
            calls.append(d)
            return real(cx, d, **budget)

        monkeypatch.setattr(srchordal.chordality, "d_closure", counting)
        monkeypatch.setattr(srchordal.cli, "d_closure", counting)
        code, out = run(["chordal", "--d", "2", files["ex0"]], capsys)
        assert code == EXIT_OK and json.loads(out)["d_chordal"] is True
        assert calls == [2]
        calls.clear()
        code, _ = run(["chordal", files["ex0"]], capsys)
        assert code == EXIT_OK
        assert calls == [1, 2]
        calls.clear()
        assert srchordal.chordality.is_d_chordal(
            srchordal.cli.SimplicialComplex.from_facets(5, EX0_FACETS), 2
        )
        assert calls == [2]


    def test_one_closure_per_experiment_trial(self, monkeypatch, capsys):
        # a face deletion of a d-closure is a d-closure, so neither the
        # closure nor its deletions are checked again
        import srchordal.chordality
        import srchordal.cli

        real = srchordal.chordality.d_closure
        calls = []

        def counting(cx, d, **budget):
            calls.append(d)
            return real(cx, d, **budget)

        monkeypatch.setattr(srchordal.chordality, "d_closure", counting)
        monkeypatch.setattr(srchordal.cli, "d_closure", counting)
        code, out = run(["experiment", "q2", "--seed", "1", "--trials", "20"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["checked_pairs"] == 122
        assert calls == [2] * 20


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
