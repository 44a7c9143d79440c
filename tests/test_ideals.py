"""Stanley-Reisner correspondence, degree components, σ, and the text format."""

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srchordal import (
    DimensionRangeError,
    FormatError,
    Monomial,
    MonomialIdeal,
    SimplicialComplex,
    SquarefreeIdeal,
    VertexRangeError,
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
from generators import random_complex, random_ideal, random_small_facet_complex
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
        # most complexes drawn above are the full simplex, whose ideal is zero
        rng = random.Random(1201)
        added = [random_small_facet_complex(rng, 3, 8) for _ in range(150)]
        assert sum(cx.facets != (cx.ambient,) for cx in added) >= 110
        for cx in added:
            assert stanley_reisner_complex(stanley_reisner_ideal(cx)) == cx


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

    def test_forty_variable_component(self):
        # 5-subsets of [40] holding {1,2}, {1,3} or {4,5,6,7}, by inclusion-
        # exclusion: 2 * C(38,3) + C(36,1) - C(37,2). An equal-size antichain
        # of this size took 18.5 s to reduce with all-pairs comparisons.
        ideal = SquarefreeIdeal(40, [[1, 2], [1, 3], [4, 5, 6, 7]])
        comp = degree_component(ideal, 5)
        assert len(comp.gens) == 2 * comb(38, 3) + 36 - comb(37, 2) == 16242
        assert all(g.bit_count() == 5 for g in comp.gens)

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
        # the definition: the k-th of the indices i1 <= ... <= it goes to i_k + k - 1
        indices = [i for i, e in enumerate(exps, start=1) for _ in range(e)]
        assert sigma_image(mono) == sum(1 << (i + k - 1) for k, i in enumerate(indices))

    @pytest.mark.parametrize("exponent", [65, 10**6, 10**11])
    def test_variable_count_is_checked_before_any_image(self, exponent):
        ideal = MonomialIdeal(2, [Monomial([exponent, 0])])
        with pytest.raises(VertexRangeError) as exc:
            squarefree_operator(ideal)
        assert str(exc.value) == f"variable count must be in 1..64, got {exponent + 1}"


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

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (parse_squarefree_ideal, "# no monomials\n",
             "cannot infer the variable count; add an n= header"),
            (parse_monomial_ideal, "", "cannot infer the variable count; add an n= header"),
            (parse_squarefree_ideal, "n=2\nx1\nx3\n", "variable x3 exceeds the declared n=2"),
            (parse_monomial_ideal, "n=2\nx3^2\n", "variable x3 exceeds the declared n=2"),
            (parse_squarefree_ideal, "x2\nx1^2*x3\n", "exponent on x1: input must be square-free"),
            (parse_squarefree_ideal, "x2 x3 x2\n",
             "repeated variable x2: input must be square-free"),
            (parse_squarefree_ideal, "x1^0\n", "line 1: exponent must be >= 1"),
            (parse_monomial_ideal, "x1^0\n", "line 1: exponent must be >= 1"),
            (parse_squarefree_ideal, "n=3\nx1\nn=4\n", "line 3: duplicate n= header"),
            (parse_monomial_ideal, "n=3\nx1\nn=4\n", "line 3: duplicate n= header"),
            (parse_squarefree_ideal, "x1\n*\n", "line 2: empty monomial"),
            (parse_monomial_ideal, "x1\n*\n", "line 2: empty monomial"),
            # digits of other scripts (here Arabic-Indic) are not digits of the format
            (parse_squarefree_ideal, "n=\u0663\nx\u0661 x\u0662\n",
             "line 1: bad monomial token 'n=\u0663'"),
            (parse_monomial_ideal, "n=\u0663\nx\u0661 x\u0662\n",
             "line 1: bad monomial token 'n=\u0663'"),
            (parse_squarefree_ideal, "x\u0661 x2\n", "line 1: bad monomial token 'x\u0661'"),
            (parse_monomial_ideal, "x\u0661 x2\n", "line 1: bad monomial token 'x\u0661'"),
            (parse_squarefree_ideal, "x1^\u0662 x2\n",
             "line 1: bad monomial token 'x1^\u0662'"),
            (parse_monomial_ideal, "x1^\u0662 x2\n", "line 1: bad monomial token 'x1^\u0662'"),
        ],
        ids=["infer_squarefree", "infer_monomial", "exceeds_squarefree", "exceeds_monomial",
             "exponent", "repeated", "zero_exponent_squarefree", "zero_exponent_monomial",
             "second_header_squarefree", "second_header_monomial", "lone_star_squarefree",
             "lone_star_monomial", "arabic_header_squarefree", "arabic_header_monomial",
             "arabic_variable_squarefree", "arabic_variable_monomial",
             "arabic_exponent_squarefree", "arabic_exponent_monomial"],
    )
    def test_whole_input_messages(self, parse, text, message):
        with pytest.raises(FormatError) as exc:
            parse(text)
        assert str(exc.value) == message

    def test_bad_tokens(self):
        with pytest.raises(FormatError):
            parse_squarefree_ideal("y3\n")
        with pytest.raises(FormatError):
            parse_squarefree_ideal("n=2\nx3\n")


class TestValidation:
    @pytest.mark.parametrize(
        "make, error, message",
        [
            (lambda: SquarefreeIdeal(0), VertexRangeError, "variable count must be in 1..64, got 0"),
            (lambda: SquarefreeIdeal(65), VertexRangeError,
             "variable count must be in 1..64, got 65"),
            (lambda: SquarefreeIdeal(3, [[2, 4]]), VertexRangeError,
             "generator (2, 4) uses variables outside 1..3"),
            (lambda: SquarefreeIdeal.zero(3).min_degree(), ZeroIdealError,
             "the zero ideal has no generator degrees"),
            (lambda: SquarefreeIdeal.zero(3).max_degree(), ZeroIdealError,
             "the zero ideal has no generator degrees"),
            (lambda: stanley_reisner_ideal(EX0.induced([1, 2, 3])), VertexRangeError,
             "Stanley-Reisner ideal needs a complex ambient on all of 1..n"),
            (lambda: degree_component(SquarefreeIdeal(3, [[1]]), 0), DimensionRangeError,
             "degree component needs j >= 1, got 0"),
            (lambda: truncation_leq(SquarefreeIdeal(3, [[1]]), -1), DimensionRangeError,
             "truncation needs k >= 0, got -1"),
            (lambda: Monomial([1, -1]), ValueError, "exponents must be nonnegative"),
            (lambda: MonomialIdeal(0), VertexRangeError, "variable count must be in 1..64, got 0"),
            (lambda: MonomialIdeal(65), VertexRangeError,
             "variable count must be in 1..64, got 65"),
            (lambda: MonomialIdeal(2, [Monomial([1, 0, 0])]), VertexRangeError,
             "generator exponent vector has the wrong length"),
            (lambda: MonomialIdeal(2, [Monomial([0, 0])]), ZeroIdealError,
             "the unit generator 1 is not allowed"),
            (lambda: MonomialIdeal(2).max_degree(), ZeroIdealError,
             "the zero ideal has no generator degrees"),
        ],
        ids=["squarefree_n_0", "squarefree_n_65", "generator_above_n", "zero_min_degree",
             "zero_max_degree", "sr_ideal_of_an_induced_complex", "degree_component_j_0",
             "truncation_k_negative", "negative_exponent", "monomial_n_0", "monomial_n_65",
             "exponent_vector_length", "unit_monomial_generator", "zero_monomial_max_degree"],
    )
    def test_rejections(self, make, error, message):
        with pytest.raises(error) as exc:
            make()
        assert type(exc.value) is error
        assert str(exc.value) == message

    def test_unit_monomial_and_zero_ideal_values(self):
        # 1 is divided by no variable; the square-free operator takes the
        # zero ideal to the zero ideal on the same variables
        assert Monomial([0, 0]).max_index() == 0
        assert squarefree_operator(MonomialIdeal(3)) == SquarefreeIdeal.zero(3)


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
