"""Stanley-Reisner correspondence, degree components, σ, and the text format."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srchordal import (
    FormatError,
    Monomial,
    MonomialIdeal,
    SimplicialComplex,
    SquarefreeIdeal,
    VoidComplexError,
    ZeroIdealError,
    d_closure,
    degree_component,
    format_squarefree_ideal,
    mask_from_vertices,
    parse_monomial_ideal,
    parse_squarefree_ideal,
    sigma_image,
    squarefree_operator,
    stanley_reisner_complex,
    stanley_reisner_ideal,
    truncation_leq,
)
from generators import random_complex, random_ideal
from oracles import all_subsets_component

EX0 = SimplicialComplex.from_facets(5, [[2, 5], [1, 4, 5], [1, 2, 3, 4]])


def masks(*faces):
    # generator order: by (degree, mask), matching SquarefreeIdeal
    return tuple(sorted((mask_from_vertices(f) for f in faces), key=lambda m: (m.bit_count(), m)))


class TestCorrespondence:
    def test_example0_ideal(self):
        ideal = stanley_reisner_ideal(EX0)
        assert set(ideal.gens) == set(masks([3, 5], [1, 2, 5], [2, 4, 5]))

    def test_full_simplex_gives_zero_ideal(self):
        assert stanley_reisner_ideal(SimplicialComplex.simplex(4)).is_zero

    def test_hollow_tetrahedron_principal(self):
        cx = SimplicialComplex.from_facets(4, [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]])
        assert stanley_reisner_ideal(cx).gens == masks([1, 2, 3, 4])

    def test_void_errors(self):
        with pytest.raises(VoidComplexError):
            stanley_reisner_ideal(SimplicialComplex.void(2))

    def test_complex_of_example0_ideal(self):
        ideal = SquarefreeIdeal(5, [[3, 5], [1, 2, 5], [2, 4, 5]])
        assert stanley_reisner_complex(ideal) == EX0

    def test_zero_ideal_gives_full_simplex(self):
        assert stanley_reisner_complex(SquarefreeIdeal.zero(3)) == SimplicialComplex.simplex(3)

    def test_single_variable(self):
        assert stanley_reisner_complex(SquarefreeIdeal(1, [[1]])).is_empty_complex

    def test_round_trip_random(self):
        rng = random.Random(201)
        for _ in range(150):
            cx = random_complex(rng, 8)
            assert stanley_reisner_complex(stanley_reisner_ideal(cx)) == cx
            ideal = random_ideal(rng, 8)
            assert stanley_reisner_ideal(stanley_reisner_complex(ideal)) == ideal


class TestDegreeComponent:
    def test_small_example(self):
        ideal = SquarefreeIdeal(3, [[1, 2], [3]])
        assert degree_component(ideal, 2).gens == masks([1, 2], [1, 3], [2, 3])

    def test_example0_third_component(self):
        ideal = stanley_reisner_ideal(EX0)
        expected = masks([1, 2, 5], [1, 3, 5], [2, 3, 5], [2, 4, 5], [3, 4, 5])
        assert degree_component(ideal, 3).gens == expected

    def test_no_members_gives_zero(self):
        assert degree_component(SquarefreeIdeal(3, [[1, 2, 3]]), 2).is_zero

    def test_matches_all_subsets_definition(self):
        rng = random.Random(203)
        for _ in range(100):
            ideal = random_ideal(rng, 9)
            for j in range(1, ideal.n + 1):
                assert degree_component(ideal, j) == all_subsets_component(ideal, j)

    def test_closure_duality(self):
        # the degree-(d+1) component corresponds to the d-closure
        rng = random.Random(202)
        for _ in range(100):
            ideal = random_ideal(rng, 7)
            d = rng.randint(1, 4)
            left = stanley_reisner_complex(degree_component(ideal, d + 1))
            right = d_closure(stanley_reisner_complex(ideal), d)
            assert left == right


class TestTruncation:
    def test_filters_by_degree(self):
        ideal = SquarefreeIdeal(5, [[3, 5], [1, 2, 5], [2, 4, 5]])
        assert truncation_leq(ideal, 2).gens == masks([3, 5])

    def test_all_above_gives_zero(self):
        assert truncation_leq(SquarefreeIdeal(4, [[1, 2, 3]]), 2).is_zero

    def test_noop_when_high(self):
        ideal = SquarefreeIdeal(3, [[1], [2, 3]])
        assert truncation_leq(ideal, 3) == ideal


class TestGeneratorInsertion:
    def test_delete_all_correspondence(self):
        rng = random.Random(203)
        for _ in range(100):
            ideal = random_ideal(rng, 7)
            cx = stanley_reisner_complex(ideal)
            e = rng.randint(1, (1 << ideal.n) - 1)
            assert stanley_reisner_complex(ideal.with_generator(e)) == cx.delete_all(e)

    def test_antichain_reduction(self):
        ideal = SquarefreeIdeal(3, [[1, 2]])
        assert ideal.with_generator([1]).gens == masks([1])


class TestSigma:
    def test_formula_cases(self):
        assert sigma_image(Monomial([2, 1])) == mask_from_vertices([1, 2, 4])
        assert sigma_image(Monomial([1, 1])) == mask_from_vertices([1, 3])

    def test_not_identity_on_squarefree(self):
        out = squarefree_operator(MonomialIdeal(2, [Monomial([1, 1])]))
        assert out.gens == masks([1, 3])
        assert out.n == 3

    def test_single_generator_exponent(self):
        out = squarefree_operator(MonomialIdeal(2, [Monomial([2, 1])]))
        assert out.gens == masks([1, 2, 4])
        assert out.n == 4

    def test_degree_one_fixed_point(self):
        out = squarefree_operator(MonomialIdeal(1, [Monomial([1])]))
        assert out.gens == masks([1]) and out.n == 1

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=5))
    def test_degree_preservation(self, exps):
        mono = Monomial(exps)
        if mono.degree == 0:
            return
        assert sigma_image(mono).bit_count() == mono.degree


class TestTextFormat:
    def test_parse_with_header_and_comments(self):
        text = "# comment\nn=5\nx3 x5\nx1*x2*x5\n"
        ideal = parse_squarefree_ideal(text)
        assert ideal.n == 5 and ideal.gens == masks([3, 5], [1, 2, 5])

    def test_header_optional(self):
        assert parse_squarefree_ideal("x2*x4\n").n == 4

    def test_exponent_rejected_in_squarefree_mode(self):
        with pytest.raises(FormatError):
            parse_squarefree_ideal("x1^2\n")
        with pytest.raises(FormatError):
            parse_squarefree_ideal("x1 x1\n")

    def test_monomial_mode_accepts_exponents(self):
        ideal = parse_monomial_ideal("n=2\nx1^2\nx1*x2\n")
        assert set(ideal.gens) == {Monomial([2, 0]), Monomial([1, 1])}

    def test_format_round_trip(self):
        rng = random.Random(204)
        for _ in range(50):
            ideal = random_ideal(rng, 7)
            assert parse_squarefree_ideal(format_squarefree_ideal(ideal)) == ideal

    def test_bad_tokens(self):
        with pytest.raises(FormatError):
            parse_squarefree_ideal("y3\n")
        with pytest.raises(FormatError):
            parse_squarefree_ideal("n=2\nx3\n")


class TestInvariants:
    def test_unit_generator_rejected(self):
        with pytest.raises(ZeroIdealError):
            SquarefreeIdeal(3, [0])

    def test_gens_form_divisibility_antichain(self):
        ideal = SquarefreeIdeal(4, [[1, 2], [1, 2, 3], [4]])
        assert ideal.gens == masks([4], [1, 2])

    def test_monomial_ideal_antichain(self):
        ideal = MonomialIdeal(2, [Monomial([1, 1]), Monomial([2, 1])])
        assert ideal.gens == (Monomial([1, 1]),)
