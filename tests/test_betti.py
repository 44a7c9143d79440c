"""Homology conventions, Hochster tables, linearity predicates, and the
paper-level stability statements about adding generators."""

import random
from functools import reduce
from itertools import combinations
from operator import or_

import pytest

from srchordal import (
    CHAR0,
    GF2,
    FieldSpec,
    FormatError,
    NotEquigeneratedError,
    SearchBudgetExceeded,
    SimplicialComplex,
    SquarefreeIdeal,
    ZeroIdealError,
    betti_table,
    d_closure,
    degree_component,
    free_faces,
    has_linear_resolution,
    is_componentwise_linear,
    is_d_chordal,
    nonlinear_witness,
    reduced_homology_dims,
    regularity,
    stanley_reisner_complex,
    stanley_reisner_ideal,
    truncation_leq,
)
from data import DUNCE_HAT_FACETS, EX0_FACETS
from generators import random_complex, random_free_face_instance, random_ideal, random_proper_complex

EX0 = SimplicialComplex.from_facets(5, EX0_FACETS)
BOTH_FIELDS = (GF2, CHAR0)


class TestFieldSpec:
    def test_labels_and_parse(self):
        assert FieldSpec.parse("gf2") == GF2
        assert FieldSpec.parse("char0") == CHAR0
        assert FieldSpec.parse("gfp:7") == FieldSpec(7)
        assert FieldSpec(101).label == "gf101"

    def test_rejects_nonprime(self):
        with pytest.raises(FormatError):
            FieldSpec(6)
        with pytest.raises(FormatError):
            FieldSpec.parse("gf9")


class TestReducedHomology:
    def test_hollow_tetrahedron_is_a_2_sphere(self):
        cx = SimplicialComplex.from_facets(4, [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]])
        for field in BOTH_FIELDS:
            assert reduced_homology_dims(cx, field) == {-1: 0, 0: 0, 1: 0, 2: 1}

    def test_three_points(self):
        cx = SimplicialComplex.from_facets(3, [[1], [2], [3]])
        for field in (GF2, CHAR0, FieldSpec(5)):
            hom = reduced_homology_dims(cx, field)
            assert hom == {-1: 0, 0: 2}

    def test_degenerate_conventions(self):
        assert reduced_homology_dims(SimplicialComplex.void(3), GF2) == {}
        assert reduced_homology_dims(SimplicialComplex.empty(3), GF2) == {-1: 1}

    def test_rp2_distinguishes_characteristic(self):
        # minimal 6-vertex real projective plane: torsion shows up only mod 2
        rp2 = SimplicialComplex.from_facets(
            6,
            [
                [1, 2, 4], [1, 3, 4], [1, 2, 6], [1, 3, 5], [1, 5, 6],
                [2, 3, 5], [2, 4, 5], [2, 3, 6], [3, 4, 6], [4, 5, 6],
            ],
        )
        assert reduced_homology_dims(rp2, GF2)[1] == 1
        assert reduced_homology_dims(rp2, GF2)[2] == 1
        assert reduced_homology_dims(rp2, CHAR0)[1] == 0
        assert reduced_homology_dims(rp2, CHAR0)[2] == 0
        assert reduced_homology_dims(rp2, FieldSpec(3))[1] == 0

    def test_euler_consistency_random(self):
        rng = random.Random(401)
        for _ in range(80):
            cx = random_complex(rng, 7)
            if cx.is_void:
                continue
            field = rng.choice((GF2, CHAR0, FieldSpec(3)))
            hom = reduced_homology_dims(cx, field)
            lhs = sum((-1) ** i * d for i, d in hom.items())
            f_counts = {k: len(cx.faces_of_dim(k)) for k in range(cx.dim + 1)}
            rhs = -1 + sum((-1) ** k * c for k, c in f_counts.items())
            assert lhs == rhs


class TestBettiTable:
    def test_principal_ideal(self):
        table = betti_table(SquarefreeIdeal(2, [[1, 2]]), GF2)
        assert table.as_dict() == {(0, 2): 1}

    def test_triangle_edge_ideal(self):
        for field in BOTH_FIELDS:
            table = betti_table(SquarefreeIdeal(3, [[1, 2], [1, 3], [2, 3]]), field)
            assert table.as_dict() == {(0, 2): 3, (1, 3): 2}

    def test_all_degree_two_on_four(self):
        gens = [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]
        table = betti_table(SquarefreeIdeal(4, gens), GF2)
        assert table.as_dict() == {(0, 2): 6, (1, 3): 8, (2, 4): 3}

    def test_single_variable_unit_case(self):
        assert betti_table(SquarefreeIdeal(1, [[1]]), GF2).as_dict() == {(0, 1): 1}

    def test_zero_ideal_signalled(self):
        with pytest.raises(ZeroIdealError):
            betti_table(SquarefreeIdeal.zero(3), GF2)

    def test_generator_row_counts_generators(self):
        rng = random.Random(402)
        for _ in range(60):
            ideal = random_ideal(rng, 7)
            table = betti_table(ideal, GF2)
            by_degree: dict[int, int] = {}
            for g in ideal.gens:
                by_degree[g.bit_count()] = by_degree.get(g.bit_count(), 0) + 1
            got = {j: b for (i, j), b in table.as_dict().items() if i == 0}
            assert got == by_degree

    def test_agrees_with_koszul_oracle(self):
        # The oracle works over the rationals. Hochster's formula reads the
        # table off complexes on at most 5 vertices, whose integral homology
        # is torsion-free (the 6-vertex RP^2 is the smallest with torsion),
        # so the GF(2) table must agree as well.
        from oracles import koszul_betti_squarefree

        rng = random.Random(403)
        for _ in range(60):
            ideal = random_ideal(rng, 5)
            expected = koszul_betti_squarefree(ideal)
            for field in BOTH_FIELDS:
                assert betti_table(ideal, field).as_dict() == expected

    def test_complete_intersection_on_forty_variables(self):
        # (x1x2, x3x4x5, x10x20, x30x40): the Koszul complex on generators
        # of degrees 2, 3, 2, 2, so beta_{i,j} counts i+1 of them summing to j.
        ideal = SquarefreeIdeal(40, [[1, 2], [3, 4, 5], [10, 20], [30, 40]])
        expected = {
            (0, 2): 3, (0, 3): 1, (1, 4): 3, (1, 5): 3, (2, 6): 1, (2, 7): 3, (3, 9): 1,
        }
        for field in BOTH_FIELDS:
            assert betti_table(ideal, field).as_dict() == expected

    @pytest.mark.parametrize(
        "n, gens",
        [
            (10, [[1, 2], [3, 4]]),
            (6, [[1, 2], [1, 3], [2, 3]]),
            (8, [[1, 2, 3], [3, 4], [5, 6, 7], [2, 8], [1, 8]]),
        ],
    )
    def test_visits_only_unions_of_generator_supports(self, monkeypatch, n, gens):
        import srchordal.betti

        supports = [sum(1 << (v - 1) for v in g) for g in gens]
        unions = {
            reduce(or_, chosen)
            for size in range(1, len(supports) + 1)
            for chosen in combinations(supports, size)
        }
        calls = []
        real = srchordal.betti.reduced_homology_dims

        def counting(cx, field):
            calls.append(cx.ambient)
            return real(cx, field)

        monkeypatch.setattr(srchordal.betti, "reduced_homology_dims", counting)
        betti_table(SquarefreeIdeal(n, gens), GF2)
        assert sorted(calls) == sorted(unions)

    def test_json_and_pretty(self):
        table = betti_table(SquarefreeIdeal(3, [[1, 2], [1, 3], [2, 3]]), GF2)
        data = table.to_json_dict()
        assert data["field"] == "gf2"
        assert {"i": 0, "j": 2, "beta": 3} in data["entries"]
        grid = table.pretty()
        assert "2:" in grid and "3" in grid


class TestRegularity:
    def test_triangle(self):
        assert regularity(betti_table(SquarefreeIdeal(3, [[1, 2], [1, 3], [2, 3]]), GF2)) == 2

    def test_koszul_syzygy(self):
        assert regularity(betti_table(SquarefreeIdeal(4, [[1, 2], [3, 4]]), CHAR0)) == 3

    def test_linear_ideal_regularity_is_degree(self):
        rng = random.Random(404)
        found = 0
        while found < 15:
            ideal = random_ideal(rng, 6)
            degs = set(ideal.degrees())
            if len(degs) != 1:
                continue
            d = degs.pop()
            if has_linear_resolution(ideal, GF2):
                found += 1
                assert regularity(betti_table(ideal, GF2)) == d

    def test_empty_table_errors(self):
        from srchordal import BettiTable

        with pytest.raises(ZeroIdealError):
            BettiTable.from_dict({}, GF2).regularity()


class TestLinearResolution:
    def test_triangle_true(self):
        assert has_linear_resolution(SquarefreeIdeal(3, [[1, 2], [1, 3], [2, 3]]), CHAR0)

    def test_principal_true(self):
        assert has_linear_resolution(SquarefreeIdeal(4, [[1, 2, 3, 4]]), GF2)

    def test_two_disjoint_edges_false(self):
        assert not has_linear_resolution(SquarefreeIdeal(4, [[1, 2], [3, 4]]), GF2)

    def test_requires_equigenerated(self):
        with pytest.raises(NotEquigeneratedError):
            has_linear_resolution(SquarefreeIdeal(3, [[1], [2, 3]]), GF2)

    def test_witness_of_two_disjoint_edges(self):
        # Δ on {1,2,3,4} is the 4-cycle: H̃_1 = 1 gives beta_{1,4}, off j = i + 2
        for field in BOTH_FIELDS:
            assert nonlinear_witness(SquarefreeIdeal(4, [[1, 2], [3, 4]]), field) == (0b1111, 1)
            assert nonlinear_witness(SquarefreeIdeal(3, [[1, 2], [1, 3], [2, 3]]), field) is None

    def test_lattice_budget(self):
        # 18 disjoint edges: the LCM lattice has 2^18 - 1 members
        ideal = SquarefreeIdeal(40, [[2 * k + 1, 2 * k + 2] for k in range(18)])
        for check in (betti_table, nonlinear_witness):
            with pytest.raises(SearchBudgetExceeded):
                check(ideal, GF2, budget=100)
        assert nonlinear_witness(SquarefreeIdeal(4, [[1, 2], [3, 4]]), budget=3) == (0b1111, 1)
        with pytest.raises(SearchBudgetExceeded):
            nonlinear_witness(SquarefreeIdeal(4, [[1, 2], [3, 4]]), budget=2)


class TestComponentwiseLinear:
    def test_mixed_degrees_true(self):
        assert is_componentwise_linear(SquarefreeIdeal(3, [[1], [2, 3]]), GF2)
        assert is_componentwise_linear(SquarefreeIdeal(3, [[1], [2, 3]]), CHAR0)

    def test_four_cycle_false_both_fields(self):
        cycle = SimplicialComplex.from_facets(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
        ideal = stanley_reisner_ideal(cycle)
        assert not is_componentwise_linear(ideal, GF2)
        assert not is_componentwise_linear(ideal, CHAR0)

    def test_example0_true(self):
        ideal = stanley_reisner_ideal(EX0)
        for field in BOTH_FIELDS:
            assert is_componentwise_linear(ideal, field)

    def test_agrees_with_unbounded_oracle(self):
        # The oracle checks every component up to n, built from all
        # j-subsets, with Koszul strands over the same field.
        from oracles import unbounded_componentwise_linear

        rng = random.Random(410)
        verdicts = []
        for _ in range(150):
            n = rng.randint(3, 6)
            gens = [
                rng.sample(range(1, n + 1), rng.randint(2, min(3, n)))
                for _ in range(rng.randint(2, 5))
            ]
            ideal = SquarefreeIdeal(n, gens)
            for field in BOTH_FIELDS:
                verdicts.append(is_componentwise_linear(ideal, field))
                assert verdicts[-1] == unbounded_componentwise_linear(
                    ideal, field.characteristic
                ), (ideal, field)
        assert 0 < sum(verdicts) < len(verdicts)

    @pytest.mark.parametrize("n", [12, 40])
    def test_stops_at_top_generator_degree(self, monkeypatch, n):
        # (x1x2, x1x3) is generated in degree 2, so I_[2] is the only
        # component to check, however many variables lie in no generator.
        import srchordal.betti

        real = srchordal.betti.has_linear_resolution
        checked = []

        def only_once(comp, field, **kwargs):
            checked.append(comp)
            if len(checked) > 1:
                raise AssertionError(f"a second component was checked: {comp}")
            return real(comp, field, **kwargs)

        monkeypatch.setattr(srchordal.betti, "has_linear_resolution", only_once)
        ideal = SquarefreeIdeal(n, [[1, 2], [1, 3]])
        assert is_componentwise_linear(ideal, GF2)
        assert checked == [ideal]


class TestTruncationStability:
    def test_betti_agree_below_cutoff(self):
        rng = random.Random(405)
        for _ in range(50):
            ideal = random_ideal(rng, 6)
            k = rng.randint(1, 6)
            trunc = truncation_leq(ideal, k)
            if trunc.is_zero:
                continue
            full = betti_table(ideal, GF2).as_dict()
            cut = betti_table(trunc, GF2).as_dict()
            for (i, jt), b in full.items():
                if jt - i <= k:
                    assert cut.get((i, jt), 0) == b
            for (i, jt), b in cut.items():
                if jt - i <= k:
                    assert full.get((i, jt), 0) == b


class TestFreeFaceStability:
    def test_adding_a_free_face_generator_moves_little(self):
        rng = random.Random(406)
        done = 0
        while done < 60:
            inst = random_free_face_instance(rng, 6)
            if inst is None:
                continue
            cx, e = inst
            ideal = stanley_reisner_ideal(cx)
            if ideal.is_zero:
                continue
            done += 1
            d = e.bit_count()
            bigger = ideal.with_generator(e)
            for field in BOTH_FIELDS:
                before = betti_table(ideal, field).as_dict()
                after = betti_table(bigger, field).as_dict()
                keys = set(before) | set(after)
                for i, jt in keys:
                    if jt - i not in (d, d + 1):
                        assert before.get((i, jt), 0) == after.get((i, jt), 0)

    def test_neighbor_generators_stability(self):
        # adding x_m * x_E for all m in A with E∪{m} a face moves only j = d+1
        rng = random.Random(407)
        done = 0
        while done < 40:
            inst = random_free_face_instance(rng, 5)
            if inst is None:
                continue
            cx, e = inst
            ideal = stanley_reisner_ideal(cx)
            if ideal.is_zero:
                continue
            d = e.bit_count()
            if d + 1 < ideal.max_degree():
                continue
            neighbors = [
                m
                for m in range(1, cx.n + 1)
                if not e & (1 << (m - 1)) and cx.is_face(e | (1 << (m - 1)))
            ]
            if not neighbors:
                continue
            size = rng.randint(1, len(neighbors))
            chosen = rng.sample(neighbors, size)
            done += 1
            extended = ideal
            for m in chosen:
                extended = extended.with_generator(e | (1 << (m - 1)))
            for field in BOTH_FIELDS:
                before = betti_table(ideal, field).as_dict()
                after = betti_table(extended, field).as_dict()
                keys = set(before) | set(after)
                for i, jt in keys:
                    if jt - i != d + 1:
                        assert before.get((i, jt), 0) == after.get((i, jt), 0), (
                            cx, e, chosen, field, (i, jt),
                        )


class TestChordalLinearity:
    def test_d_chordal_gives_linear_component(self):
        rng = random.Random(408)
        done = 0
        while done < 40:
            cx = random_proper_complex(rng, 6)
            d = rng.randint(1, 3)
            if not is_d_chordal(cx, d):
                continue
            comp = degree_component(stanley_reisner_ideal(cx), d + 1)
            if comp.is_zero:
                continue
            done += 1
            for field in BOTH_FIELDS:
                assert has_linear_resolution(comp, field)

    def test_chordal_gives_componentwise_linear(self):
        from srchordal import is_chordal

        rng = random.Random(409)
        done = 0
        while done < 30:
            cx = random_proper_complex(rng, 6)
            if not is_chordal(cx):
                continue
            done += 1
            ideal = stanley_reisner_ideal(cx)
            for field in BOTH_FIELDS:
                assert is_componentwise_linear(ideal, field)

    def test_dunce_hat_closure_linear_but_not_chordal(self):
        dunce = SimplicialComplex.from_facets(8, DUNCE_HAT_FACETS)
        closure = d_closure(dunce, 2)
        ideal = stanley_reisner_ideal(closure)
        assert not is_d_chordal(dunce, 2)
        for field in BOTH_FIELDS:
            assert has_linear_resolution(ideal, field)
            assert regularity(betti_table(ideal, field)) == 3
