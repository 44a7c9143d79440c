"""Exchange-condition checkers, vertex decomposability, the nested-block
form, the σ pipeline, and the family-level implications."""

import random
from collections import Counter

import pytest

from srchordal import (
    CHAR0,
    GF2,
    Monomial,
    MonomialIdeal,
    NotStronglyStableError,
    SimplicialComplex,
    SquarefreeIdeal,
    VertexRangeError,
    ZeroIdealError,
    betti_table,
    classify,
    degree_component,
    gotzmann_decomposition,
    is_chordal,
    is_componentwise_linear,
    is_shifted,
    is_squarefree_stable,
    is_squarefree_strongly_stable,
    is_strongly_stable,
    is_vertex_decomposable,
    mask_from_vertices,
    shedding_vertices,
    sigma_pipeline,
    stanley_reisner_complex,
    stanley_reisner_ideal,
)
from srchordal.families import _alexander_dual_of
from data import DUNCE_HAT_FACETS, EX0_FACETS, FIG4_FACETS, RP2_FACETS
from generators import (
    random_complex,
    random_gotzmann_ideal,
    random_ideal,
    random_proper_complex,
    random_rp2_extension,
    random_shifted_complex,
    random_small_facet_complex,
    random_split_ideal,
    random_stable_ideal,
    random_strongly_stable_monomial_ideal,
    random_vd_dual_ideal,
)
from oracles import (
    brute_exchange_closed,
    brute_is_shifted,
    brute_is_vertex_decomposable,
    brute_shedding_vertices,
    stable_betti,
    unbounded_componentwise_linear,
)


class TestStableCheckers:
    def test_stable_examples(self):
        assert is_squarefree_stable(SquarefreeIdeal(3, [[1, 2], [1, 3]]))
        assert not is_squarefree_stable(SquarefreeIdeal(3, [[2, 3]]))
        assert is_squarefree_stable(SquarefreeIdeal(3, [[1]]))

    def test_strongly_stable_examples(self):
        assert is_squarefree_strongly_stable(SquarefreeIdeal(3, [[1, 2], [1, 3], [2, 3]]))
        assert not is_squarefree_strongly_stable(SquarefreeIdeal(3, [[1, 3]]))

    def test_strongly_stable_implies_stable(self):
        rng = random.Random(501)
        checked = 0
        for _ in range(1000):
            ideal = random_ideal(rng, 7)
            if is_squarefree_strongly_stable(ideal):
                checked += 1
                assert is_squarefree_stable(ideal)
        assert checked > 10

    def test_zero_ideal_rejected(self):
        with pytest.raises(ZeroIdealError):
            is_squarefree_stable(SquarefreeIdeal.zero(3))

    @pytest.mark.parametrize(
        "check, zero, message",
        [
            (is_squarefree_strongly_stable, SquarefreeIdeal.zero(3),
             "stability of the zero ideal is undefined"),
            (is_strongly_stable, MonomialIdeal(3), "stability of the zero ideal is undefined"),
            (gotzmann_decomposition, SquarefreeIdeal.zero(3),
             "the zero ideal has no block decomposition"),
            (sigma_pipeline, MonomialIdeal(3), "the zero ideal has no σ pipeline"),
            (classify, SquarefreeIdeal.zero(3), "the zero ideal is not classified"),
        ],
        ids=["strongly_stable", "monomial_strongly_stable", "gotzmann", "sigma_pipeline",
             "classify"],
    )
    def test_zero_ideal_rejected_by_every_checker(self, check, zero, message):
        with pytest.raises(ZeroIdealError) as exc:
            check(zero)
        assert str(exc.value) == message

    def test_agree_with_the_exchange_over_every_member(self):
        rng = random.Random(513)
        stable, strongly = [], []
        for k in range(600):
            ideal = random_stable_ideal(rng, 7) if k % 2 else random_ideal(rng, 7, min_n=1)
            stable.append(is_squarefree_stable(ideal))
            strongly.append(is_squarefree_strongly_stable(ideal))
            assert stable[-1] == brute_exchange_closed(ideal, strongly=False), ideal
            assert strongly[-1] == brute_exchange_closed(ideal, strongly=True), ideal
        for verdicts in (stable, strongly):
            assert 0 < sum(verdicts) < len(verdicts)

    def test_definition_replay_on_accepted_inputs(self):
        # re-running the raw exchange over every member never fails on
        # ideals the checker accepted
        rng = random.Random(502)
        done = 0
        while done < 25:
            ideal = random_stable_ideal(rng, 6)
            assert is_squarefree_stable(ideal)
            done += 1
            full = (1 << ideal.n) - 1
            sub = full
            while True:
                if ideal.contains(sub) and sub:
                    top = sub.bit_length()
                    base = sub & ~(1 << (top - 1))
                    for i in range(1, top):
                        bit = 1 << (i - 1)
                        if not sub & bit:
                            assert ideal.contains(base | bit)
                if sub == 0:
                    break
                sub = (sub - 1) & full


class TestShifted:
    def test_examples(self):
        assert is_shifted(SimplicialComplex.from_facets(3, [[2, 3]]))
        assert not is_shifted(SimplicialComplex.from_facets(3, [[1, 2]]))
        assert is_shifted(SimplicialComplex.simplex(4))
        for ambient in (0b1111, 0b1010, 0):
            for facets in ((), (0,)):  # the void complex and {∅}
                cx = SimplicialComplex(4, facets, ambient=ambient)
                assert is_shifted(cx) and brute_is_shifted(cx)

    def test_generator_output_is_shifted(self):
        rng = random.Random(503)
        for _ in range(40):
            assert is_shifted(random_shifted_complex(rng, 7))

    def test_facets_agree_with_every_face(self):
        rng = random.Random(512)
        w_rng = random.Random(514)
        verdicts = []
        for _ in range(300):
            cx = random_complex(rng, 7, max_facets=4)
            # an induced subcomplex lives on W, so exchanges stay inside W
            for sub in (cx, cx.induced(w_rng.getrandbits(cx.n))):
                verdicts.append(is_shifted(sub))
                assert verdicts[-1] == brute_is_shifted(sub), sub
        for side in (verdicts[0::2], verdicts[1::2]):
            assert 0 < sum(side) < len(side)

    def test_dual_shifted_iff_strongly_stable(self):
        # classify reads both entries off one check: G is a face of the
        # dual iff its complement lies in the ideal, and G - i + j is the
        # complement of C - j + i
        rng = random.Random(511)
        verdicts = []
        for k in range(2000):
            ideal = random_stable_ideal(rng, 7) if k % 2 else random_ideal(rng, 7, min_n=1)
            verdicts.append(is_squarefree_strongly_stable(ideal))
            assert is_shifted(_alexander_dual_of(ideal)) == verdicts[-1], ideal
        assert 0 < sum(verdicts) < len(verdicts)


class TestVertexDecomposable:
    def test_simplex(self):
        assert is_vertex_decomposable(SimplicialComplex.from_facets(3, [[1, 2, 3]]))
        assert is_vertex_decomposable(SimplicialComplex.void(2))
        assert is_vertex_decomposable(SimplicialComplex.empty(2))

    def test_path(self):
        path = SimplicialComplex.from_facets(3, [[1, 2], [2, 3]])
        assert is_vertex_decomposable(path)
        assert shedding_vertices(path) == [1, 3]

    def test_two_disjoint_edges_not_decomposable(self):
        cx = SimplicialComplex.from_facets(4, [[1, 2], [3, 4]])
        assert not is_vertex_decomposable(cx)
        assert shedding_vertices(cx) == []

    def test_dunce_hat_not_decomposable(self):
        # Cohen-Macaulay but not shellable, so certainly not here
        assert not is_vertex_decomposable(SimplicialComplex.from_facets(8, DUNCE_HAT_FACETS))

    def test_simplex_has_no_shedding_vertices(self):
        # the deletion's facet [n]-v lies inside the link, which is why
        # simplices are the recursion's base case
        assert shedding_vertices(SimplicialComplex.simplex(4)) == []

    def test_no_vertices_errors(self):
        with pytest.raises(VertexRangeError):
            shedding_vertices(SimplicialComplex.empty(3))

    def test_matches_the_definition_on_face_sets(self):
        rng = random.Random(510)
        draws = [
            lambda: random_small_facet_complex(rng, 3, 7),
            lambda: random_shifted_complex(rng, 7),
            lambda: random_complex(rng, 7),
        ]
        verdicts = []
        for k in range(300):
            cx = draws[k % 3]()
            verdicts.append(is_vertex_decomposable(cx))
            assert verdicts[-1] == brute_is_vertex_decomposable(cx), cx
        assert 0 < sum(verdicts) < len(verdicts)

    @pytest.mark.parametrize(
        "n, facets, verdict, splits",
        [
            (3, [[1, 2], [2, 3]], True, 1),
            (4, [[1, 2], [3, 4]], False, 4),
            (5, EX0_FACETS, True, 7),
            (7, FIG4_FACETS, False, 134),
            (8, DUNCE_HAT_FACETS, False, 231),
        ],
        ids=["path", "two_edges", "example0", "fig4", "dunce_hat"],
    )
    def test_each_subcomplex_is_split_once(self, monkeypatch, n, facets, verdict, splits):
        # the memo decides each subcomplex once, so no (subcomplex,
        # vertex) pair is tried twice; without it the dunce hat takes
        # 582 splits and figure 4 takes 211. A subcomplex is its facet
        # tuple and a vertex its one-bit mask, as the split takes them
        import srchordal.families

        real = srchordal.families._shedding_split
        calls = []

        def counting(facets, bit):
            calls.append((facets, bit))
            return real(facets, bit)

        monkeypatch.setattr(srchordal.families, "_shedding_split", counting)
        assert is_vertex_decomposable(SimplicialComplex.from_facets(n, facets)) == verdict
        assert len(calls) == splits
        assert len(set(calls)) == splits

    @pytest.mark.parametrize(
        "n, facets", [(7, FIG4_FACETS), (8, DUNCE_HAT_FACETS)], ids=["fig4", "dunce_hat"]
    )
    def test_the_recursion_builds_no_complex(self, monkeypatch, n, facets):
        # the recursion splits facet tuples: it takes no deletion or link
        # of a complex and builds no complex at all, here on two complexes
        # whose failed recursion visits every subcomplex it reaches
        cx = SimplicialComplex.from_facets(n, facets)
        calls = Counter()
        for name in ("delete_all", "link"):
            real = getattr(SimplicialComplex, name)
            monkeypatch.setattr(
                SimplicialComplex, name,
                lambda self, face, real=real, name=name: calls.update([name]) or real(self, face),
            )
        raw = SimplicialComplex._raw
        monkeypatch.setattr(
            SimplicialComplex, "_raw",
            lambda *args: calls.update(["_raw"]) or raw(*args),
        )
        assert not is_vertex_decomposable(cx)
        shedding_vertices(cx)
        assert calls == Counter()
        # the counters see the object-level operations
        cx.delete_all((1,)).link((2,))
        assert calls == Counter(delete_all=1, link=1, _raw=2)

    def test_shedding_vertices_and_verdicts_match_the_definition(self):
        # the shedding vertices and the verdict of the mask recursion are
        # those of the face-set definition, on random complexes and on
        # the Alexander duals of the complexes of stable, Gotzmann and
        # vd_dual ideals on 7 and 8 variables, whose duals are often
        # (stable, Gotzmann) or always (vd_dual) decomposable
        rng = random.Random(512)

        def stable(n: int) -> SquarefreeIdeal:  # the draw's n is at most the one asked for
            while (ideal := random_stable_ideal(rng, n)).n != n:
                pass
            return ideal

        cxs = [(random_complex(rng, 7), None) for _ in range(200)]
        for n in (7, 8):
            for _ in range(10):
                cxs += [
                    (_alexander_dual_of(stable(n)), None),
                    (_alexander_dual_of(random_gotzmann_ideal(rng, n)), None),
                    (_alexander_dual_of(random_vd_dual_ideal(rng, n)), True),
                ]
        verdicts, shed = [], 0
        for cx, known in cxs:
            if cx.vertices():
                got = shedding_vertices(cx)
                assert got == brute_shedding_vertices(cx), cx
                shed += len(got)
            verdicts.append(is_vertex_decomposable(cx))
            assert verdicts[-1] == brute_is_vertex_decomposable(cx), cx
            assert known in (None, verdicts[-1]), cx
        assert 0 < sum(verdicts) < len(verdicts)
        assert shed > 0

    def test_decomposable_implies_dual_chordal(self):
        rng = random.Random(504)
        done = 0
        while done < 30:
            # the full simplex is decomposable but its dual is void, where
            # is_chordal raises; its zero ideal is outside the theorem
            cx = random_proper_complex(rng, 7)
            if not is_vertex_decomposable(cx):
                continue
            done += 1
            assert is_chordal(cx.alexander_dual())


class TestGotzmann:
    def test_single_variable(self):
        dec = gotzmann_decomposition(SquarefreeIdeal(1, [[1]]))
        assert dec is not None and dec.is_single_variable

    def test_star_block(self):
        dec = gotzmann_decomposition(SquarefreeIdeal(3, [[1, 2], [1, 3]]))
        assert dec is not None
        assert dec.blocks == ((mask_from_vertices([1]), (2, 3)),)

    def test_two_disjoint_edges_rejected(self):
        assert gotzmann_decomposition(SquarefreeIdeal(4, [[1, 2], [3, 4]])) is None

    def test_principal_tail(self):
        dec = gotzmann_decomposition(SquarefreeIdeal(3, [[1, 2, 3]]))
        assert dec is not None and dec.blocks == ((mask_from_vertices([1, 2, 3]), ()),)
        assert gotzmann_decomposition(SquarefreeIdeal(2, [[1, 2]])) is not None

    def test_single_z_tail_rejected(self):
        # a final block with exactly one z is excluded by the side conditions:
        # x1(x2,x3) + x1x4(x5) comes back with the principal tail x4x5
        dec = gotzmann_decomposition(SquarefreeIdeal(5, [[1, 2], [1, 3], [1, 4, 5]]))
        assert dec is not None
        assert dec.blocks == (
            (mask_from_vertices([1]), (2, 3)),
            (mask_from_vertices([4, 5]), ()),
        )
        rng = random.Random(511)
        for _ in range(100):
            dec = gotzmann_decomposition(random_gotzmann_ideal(rng, 7))
            assert dec is not None
            if not dec.is_single_variable:
                assert len(dec.blocks[-1][1]) != 1

    def test_nested_blocks_round_trip(self):
        ideal = SquarefreeIdeal(6, [[1, 2], [1, 3], [1, 4, 5], [1, 4, 6]])
        dec = gotzmann_decomposition(ideal)
        assert dec is not None
        assert dec.generators() == tuple(sorted(ideal.gens))

    def test_generated_instances_decompose_and_are_linear(self):
        rng = random.Random(505)
        for _ in range(25):
            ideal = random_gotzmann_ideal(rng, 7)
            dec = gotzmann_decomposition(ideal)
            assert dec is not None
            assert dec.generators() == tuple(sorted(ideal.gens))
            assert is_chordal(stanley_reisner_complex(ideal))
            assert is_componentwise_linear(ideal, GF2)


class TestSigmaPipeline:
    def test_small_example(self):
        image, cx = sigma_pipeline(MonomialIdeal(2, [Monomial([2, 0]), Monomial([1, 1])]))
        assert image.n == 3
        assert set(image.gens) == {mask_from_vertices([1, 2]), mask_from_vertices([1, 3])}

    def test_degree_one_fixed_point(self):
        image, cx = sigma_pipeline(MonomialIdeal(1, [Monomial([1])]))
        assert image.gens == (1,) and cx.is_empty_complex

    def test_rejects_non_strongly_stable(self):
        with pytest.raises(NotStronglyStableError):
            sigma_pipeline(MonomialIdeal(2, [Monomial([1, 1]), Monomial([0, 2])]))

    def test_strongly_stable_checker(self):
        assert is_strongly_stable(MonomialIdeal(2, [Monomial([2, 0]), Monomial([1, 1])]))
        assert not is_strongly_stable(MonomialIdeal(2, [Monomial([0, 1])]))

    def test_image_is_squarefree_strongly_stable_and_chordal(self):
        rng = random.Random(506)
        for _ in range(20):
            ideal = random_strongly_stable_monomial_ideal(rng, 4, 3)
            image, cx = sigma_pipeline(ideal)
            assert is_squarefree_strongly_stable(image)
            assert is_chordal(cx)

    def test_sigma_preserves_betti_tables(self):
        rng = random.Random(507)
        for _ in range(20):
            ideal = random_strongly_stable_monomial_ideal(rng, 4, 3)
            image, _ = sigma_pipeline(ideal)
            assert betti_table(image, GF2).as_dict() == stable_betti(ideal)


class TestFamilyTheorems:
    def test_stable_ideals_have_chordal_complexes(self):
        rng = random.Random(508)
        for _ in range(25):
            ideal = random_stable_ideal(rng, 7)
            assert is_squarefree_stable(ideal)
            assert is_chordal(stanley_reisner_complex(ideal))

    def test_shifted_complexes_are_vertex_decomposable(self):
        rng = random.Random(509)
        for _ in range(25):
            cx = random_shifted_complex(rng, 7)
            assert is_vertex_decomposable(cx)


class TestClassify:
    def test_example0_report(self):
        cx = SimplicialComplex.from_facets(5, [[2, 5], [1, 4, 5], [1, 2, 3, 4]])
        report = classify(stanley_reisner_ideal(cx))
        assert report["chordal"] is True
        assert report["componentwise_linear"] == {"gf2": True, "char0": True}
        assert set(report) == {
            "stable", "strongly_stable", "shifted", "vertex_decomposable",
            "gotzmann", "chordal", "componentwise_linear",
        }

    def test_dual_read_off_the_generators(self):
        # classify's dual skips the transversals that alexander_dual runs
        rng = random.Random(512)
        for _ in range(300):
            ideal = random_ideal(rng, 8, min_n=1)
            assert _alexander_dual_of(ideal) == stanley_reisner_complex(ideal).alexander_dual()
        assert _alexander_dual_of(SquarefreeIdeal(3, [[1, 2, 3]])).is_empty_complex

    def test_strongly_stable_ideal_has_shifted_dual(self):
        # the dual-side predicates line up with the ideal-side exchange
        rng = random.Random(510)
        done = 0
        while done < 20:
            ideal = random_ideal(rng, 6)
            report = classify(ideal)
            assert report["strongly_stable"] == report["shifted"]
            done += 1

    def test_componentwise_linear_is_each_fields_own_verdict(self):
        # char 0 is read off a GF(2) "linear"; every verdict must still be
        # the one a walk over that field alone gives, and the oracle's
        rng = random.Random(514)
        draws = [random_ideal(rng, 7, min_n=3) for _ in range(30)]
        draws += [stanley_reisner_ideal(random_rp2_extension(rng, 7)) for _ in range(3)]
        seen = []
        for ideal in draws:
            verdicts = classify(ideal)["componentwise_linear"]
            assert list(verdicts) == ["gf2", "char0"]
            for field in (GF2, CHAR0):
                assert verdicts[field.label] == is_componentwise_linear(ideal, field), ideal
                assert verdicts[field.label] == unbounded_componentwise_linear(
                    ideal, field.characteristic
                ), (ideal, field)
            seen.append((verdicts["gf2"], verdicts["char0"]))
        assert {(True, True), (False, False), (False, True)} <= set(seen)

    def test_no_berge_transversal_is_computed(self, monkeypatch):
        # chordality is read off the generators and the dual off their
        # complements, so classify never enumerates the 2^14 transversals
        # of 14 disjoint edges, nor those of any ideal of the benchmark's
        # families; the paper proves stable, Gotzmann and vd-dual ideals
        # chordal, and a split ideal is not componentwise linear, so not
        # chordal
        import srchordal.complexes
        import srchordal.ideals

        def refuse(edges):
            raise AssertionError("minimal_transversals called")

        monkeypatch.setattr(srchordal.ideals, "minimal_transversals", refuse)
        monkeypatch.setattr(srchordal.complexes, "minimal_transversals", refuse)
        rng = random.Random(531)
        draws = [
            random_stable_ideal(rng, 7),
            random_gotzmann_ideal(rng, 7),
            random_vd_dual_ideal(rng, 7),
            random_split_ideal(rng, 7, 2),
        ]
        assert [classify(ideal)["chordal"] for ideal in draws] == [True, True, True, False]
        edges = SquarefreeIdeal(28, [[2 * i + 1, 2 * i + 2] for i in range(14)])
        assert classify(edges)["chordal"] is False

    def test_walks_each_component_once_when_gf2_is_linear(self, monkeypatch):
        import srchordal.betti

        real = srchordal.betti.has_linear_resolution
        checked = []

        def counting(comp, field, **kwargs):
            checked.append((comp, field))
            return real(comp, field, **kwargs)

        monkeypatch.setattr(srchordal.betti, "has_linear_resolution", counting)
        ideal = stanley_reisner_ideal(SimplicialComplex.from_facets(5, EX0_FACETS))
        assert classify(ideal)["componentwise_linear"] == {"gf2": True, "char0": True}
        assert checked == [(degree_component(ideal, j), GF2) for j in (2, 3)]
        # RP^2 is linear over Q but not over GF(2): char 0 walks on its own
        checked.clear()
        rp2 = stanley_reisner_ideal(SimplicialComplex.from_facets(6, RP2_FACETS))
        assert classify(rp2)["componentwise_linear"] == {"gf2": False, "char0": True}
        assert checked == [(rp2, GF2), (rp2, CHAR0)]
