"""Exchange-condition checkers, vertex decomposability, the nested-block
form, the σ pipeline, and the family-level implications."""

import random

import pytest

from srchordal import (
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
from data import DUNCE_HAT_FACETS
from generators import (
    random_complex,
    random_gotzmann_ideal,
    random_ideal,
    random_proper_complex,
    random_shifted_complex,
    random_stable_ideal,
    random_strongly_stable_monomial_ideal,
)
from oracles import brute_is_shifted, stable_betti


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

    def test_generator_output_is_shifted(self):
        rng = random.Random(503)
        for _ in range(40):
            assert is_shifted(random_shifted_complex(rng, 7))

    def test_facets_agree_with_every_face(self):
        rng = random.Random(512)
        verdicts = []
        for _ in range(300):
            cx = random_complex(rng, 7, max_facets=4)
            verdicts.append(is_shifted(cx))
            assert verdicts[-1] == brute_is_shifted(cx), cx
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

    def test_strongly_stable_ideal_has_shifted_dual(self):
        # the dual-side predicates line up with the ideal-side exchange
        rng = random.Random(510)
        done = 0
        while done < 20:
            ideal = random_ideal(rng, 6)
            report = classify(ideal)
            assert report["strongly_stable"] == report["shifted"]
            done += 1
