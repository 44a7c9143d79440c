"""Homology conventions, Hochster tables, linearity predicates, and the
paper-level stability statements about adding generators."""

import random
import re
from functools import reduce
from itertools import combinations
from math import comb
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
    classify,
    d_closure,
    degree_component,
    free_faces,
    has_linear_resolution,
    is_componentwise_linear,
    is_d_chordal,
    is_vertex_decomposable,
    linear_by_field,
    nonlinear_witness,
    reduced_homology_dims,
    regularity,
    stanley_reisner_complex,
    stanley_reisner_ideal,
    truncation_leq,
)
from srchordal.bitsets import iter_vertices
from data import DUNCE_HAT_FACETS, EX0_FACETS, RP2_FACETS
from generators import (
    random_complex,
    random_free_face_instance,
    random_ideal,
    random_gotzmann_ideal,
    random_proper_complex,
    random_rp2_extension,
    random_small_facet_complex,
    random_split_ideal,
    random_stable_ideal,
    random_vd_dual_ideal,
)
from oracles import (
    koszul_betti_squarefree,
    modular_rank,
    rational_rank,
    unbounded_componentwise_linear,
)

EX0 = SimplicialComplex.from_facets(5, EX0_FACETS)
RP2_IDEAL = stanley_reisner_ideal(SimplicialComplex.from_facets(6, RP2_FACETS))
BOTH_FIELDS = (GF2, CHAR0)


def dense_boundaries(cx: SimplicialComplex) -> list[list[list[int]]]:
    """Dense integer boundary matrices of a complex, by size of the faces
    mapped from 1 up: the rows of the faces with k + 1 vertices over the
    columns of those with k, each size in `faces_of_dim` order."""
    maps = []
    lower = {0: 0}
    for k in range(cx.dim + 1):
        faces = cx.faces_of_dim(k)
        rows = []
        for face in faces:
            row = [0] * len(lower)
            for i, v in enumerate(iter_vertices(face)):
                row[lower[face & ~(1 << (v - 1))]] = (-1) ** i
            rows.append(row)
        maps.append(rows)
        lower = {f: i for i, f in enumerate(faces)}
    return maps


def dense_homology(cx: SimplicialComplex, rank) -> dict[int, int]:
    """Reduced homology from the dense boundary matrices and `rank`,
    degree by degree."""
    maps = dense_boundaries(cx)
    counts = [1] + [len(rows) for rows in maps]
    ranks = [0] + [rank(rows) for rows in maps] + [0]
    return {k - 1: counts[k] - ranks[k] - ranks[k + 1] for k in range(len(counts))}


def rational_homology(cx: SimplicialComplex) -> dict[int, int]:
    """Reduced homology over Q, from the oracle's rank."""
    return dense_homology(cx, rational_rank)


class TestFieldSpec:
    def test_labels_and_parse(self):
        assert FieldSpec.parse("gf2") == GF2
        assert FieldSpec.parse("char0") == CHAR0
        assert FieldSpec.parse("gfp:7") == FieldSpec(7)
        assert FieldSpec(101).label == "gf101"
        for label in ("q", "0", "CHAR0", " Q "):
            assert FieldSpec.parse(label) == CHAR0
        assert FieldSpec.parse("GF3") == FieldSpec.parse("GFP:3") == FieldSpec(3)
        assert FieldSpec.parse("gf2147483647") == FieldSpec(2147483647)

    def test_rejects_nonprime(self):
        with pytest.raises(FormatError, match=re.escape("prime < 2^31, got 6")):
            FieldSpec(6)
        with pytest.raises(FormatError, match=re.escape("prime < 2^31, got 9")):
            FieldSpec.parse("gf9")

    @pytest.mark.parametrize("c", [2.0, 3.0, "3", True, False])
    def test_rejects_a_characteristic_that_is_not_an_int(self, c):
        # a float would be labelled gf2.0 and fail in pow only once a
        # rank is taken; a bool is not an int either
        with pytest.raises(FormatError) as exc:
            FieldSpec(c)
        assert str(exc.value) == f"field characteristic must be an int, got {c!r}"

    @pytest.mark.parametrize("label, p", [("gfp:4", 4), ("gf9", 9), ("gf1", 1)])
    def test_reports_the_characteristic_error(self, label, p):
        with pytest.raises(FormatError) as exc:
            FieldSpec.parse(label)
        assert str(exc.value) == f"field characteristic must be 0 or a prime < 2^31, got {p}"

    @pytest.mark.parametrize(
        "label",
        # int() reads the first four as 3, 3, 13 and 3 (an Arabic-Indic digit)
        ["gf+3", "gf 3", "gf1_3", "gf\u0663", "gf", "gfp:", "gf-2", "gf3.0", "gf00000000003",
         "gf99999999999999999999", "f2", "gfq:3"],
    )
    def test_rejects_labels_that_are_not_ascii_digits(self, label):
        with pytest.raises(FormatError) as exc:
            FieldSpec.parse(label)
        assert str(exc.value) == f"bad field label {label!r}"

    @pytest.mark.parametrize("label", ["gf0", "gfp:0", "gf00"])
    def test_rejects_gf0(self, label):
        # a GF label names a prime field; char 0 is spelled char0, q or 0
        with pytest.raises(FormatError) as exc:
            FieldSpec.parse(label)
        assert str(exc.value) == f"bad field label {label!r}"


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
        rp2 = SimplicialComplex.from_facets(6, RP2_FACETS)
        assert reduced_homology_dims(rp2, GF2)[1] == 1
        assert reduced_homology_dims(rp2, GF2)[2] == 1
        assert reduced_homology_dims(rp2, CHAR0)[1] == 0
        assert reduced_homology_dims(rp2, CHAR0)[2] == 0
        assert reduced_homology_dims(rp2, FieldSpec(3))[1] == 0

    def test_char0_chain_signs_only_the_map_it_ranks_over_q(self, monkeypatch):
        # A char-0 chain keeps the GF(2) rows alone. On RP^2 both sizes of
        # the map from triangles to edges carry GF(2) homology, so that map
        # alone is ranked over Q, on signed rows built for it.
        import srchordal.betti
        from srchordal.betti import _ChainComplex, _signed_row

        calls = []
        real = srchordal.betti.int_rank

        def counting(rows):
            calls.append(rows)
            return real(rows)

        monkeypatch.setattr(srchordal.betti, "int_rank", counting)
        rp2 = SimplicialComplex.from_facets(6, RP2_FACETS)
        chain = _ChainComplex.of_complex(rp2, CHAR0)
        assert all(type(row) is int for rows in chain.rows for row in rows)
        assert chain.reduced_homology(rp2.ambient) == {-1: 0, 0: 0, 1: 0, 2: 0}
        triangles = chain.faces[2]
        assert sorted(triangles) == sorted(rp2.facets)
        assert calls == [[_signed_row(f, chain.columns[2]) for f in triangles]]
        gf3 = _ChainComplex.of_complex(rp2, FieldSpec(3))
        assert gf3.rows[2] == calls[0]

    def test_rp2_torsion_inside_larger_complexes(self, monkeypatch):
        # Over Q the ranks are taken mod 2 except on maps between sizes that
        # both carry GF(2) homology, which 2-torsion gives. RP^2 induced on
        # 1..6 of 7-8 vertices puts it in every Betti table here, so the
        # tables over GF(2) and Q differ and int_rank must run.
        import srchordal.betti

        real = srchordal.betti.int_rank
        calls = []

        def counting(rows):
            calls.append(rows)
            return real(rows)

        monkeypatch.setattr(srchordal.betti, "int_rank", counting)
        rng = random.Random(412)
        differ = 0
        for k in range(8):
            cx = random_rp2_extension(rng, 7 + k % 2)
            assert reduced_homology_dims(cx, CHAR0) == rational_homology(cx)
            differ += reduced_homology_dims(cx, GF2) != reduced_homology_dims(cx, CHAR0)
            ideal = stanley_reisner_ideal(cx)
            table = betti_table(ideal, CHAR0)
            assert table.as_dict() == koszul_betti_squarefree(ideal, 0)
            assert table.as_dict() != betti_table(ideal, GF2).as_dict()
        assert differ > 0 and calls

    def test_euler_consistency_random(self):
        def check(cx, field):
            hom = reduced_homology_dims(cx, field)
            lhs = sum((-1) ** i * d for i, d in hom.items())
            f_counts = {k: len(cx.faces_of_dim(k)) for k in range(cx.dim + 1)}
            rhs = -1 + sum((-1) ** k * c for k, c in f_counts.items())
            assert lhs == rhs
            return any(hom.values())

        rng = random.Random(401)
        for _ in range(80):
            cx = random_complex(rng, 7)
            if cx.is_void:
                continue
            check(cx, rng.choice((GF2, CHAR0, FieldSpec(3))))
        # most of the draws above are the full simplex, which is acyclic
        rng = random.Random(402)
        proper = with_homology = 0
        for _ in range(80):
            cx = random_small_facet_complex(rng, 3, 7)
            proper += cx.facets != (cx.ambient,)
            with_homology += check(cx, rng.choice((GF2, CHAR0, FieldSpec(3))))
        assert proper >= 60 and with_homology >= 30


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
        from srchordal.betti import _ChainComplex

        supports = [sum(1 << (v - 1) for v in g) for g in gens]
        unions = {
            reduce(or_, chosen)
            for size in range(1, len(supports) + 1)
            for chosen in combinations(supports, size)
        }
        calls = []
        real = _ChainComplex.reduced_homology

        def counting(chain, w):
            calls.append(w)
            return real(chain, w)

        monkeypatch.setattr(_ChainComplex, "reduced_homology", counting)
        betti_table(SquarefreeIdeal(n, gens), GF2)
        assert sorted(calls) == sorted(unions)

    @pytest.mark.parametrize("field", [GF2, CHAR0, FieldSpec(3)])
    def test_lists_each_face_once_per_walk(self, monkeypatch, field):
        # The faces and boundary rows of Δ_U are built once, a vertex at a
        # time, and restricted to each W: every face of Δ_U is listed
        # exactly once, however many W, and no face outside U.
        from srchordal.betti import _ChainComplex

        ideal = SquarefreeIdeal(9, [[1, 2, 3], [3, 4], [5, 6, 7], [2, 8], [1, 8]])
        top = reduce(or_, ideal.gens)
        delta = stanley_reisner_complex(ideal).induced(top)
        listed = []
        real = _ChainComplex._list

        def counting(chain, k, faces):
            listed.extend(faces)
            return real(chain, k, faces)

        monkeypatch.setattr(_ChainComplex, "_list", counting)
        table = betti_table(ideal, field)
        assert sorted(listed) == sorted(
            f for k in range(delta.dim + 1) for f in delta.faces_of_dim(k)
        )
        assert sum(table.as_dict().values()) > len(ideal.gens)

    @pytest.mark.parametrize("field", BOTH_FIELDS)
    def test_early_witness_lists_only_the_faces_it_reaches(self, monkeypatch, field):
        # 18 disjoint edges in 40 variables: Δ_U is the join of 18 copies
        # of S^0, about 3^18 faces, but the witness is the third member
        # of the lattice. The walk lists only the faces on its vertices.
        from srchordal.betti import _ChainComplex

        ideal = SquarefreeIdeal(40, [[2 * k + 1, 2 * k + 2] for k in range(18)])
        listed = []
        real = _ChainComplex._list

        def counting(chain, k, faces):
            listed.extend(faces)
            return real(chain, k, faces)

        monkeypatch.setattr(_ChainComplex, "_list", counting)
        assert nonlinear_witness(ideal, field) == (0b1111, 1)
        assert sorted(listed) == sorted(
            a | b for a in (0, 1, 2) for b in (0, 4, 8) if a | b
        )

    def test_gf3_agrees_with_koszul_oracle(self):
        rng = random.Random(411)
        for _ in range(40):
            ideal = random_ideal(rng, 5)
            assert betti_table(ideal, FieldSpec(3)).as_dict() == koszul_betti_squarefree(
                ideal, char=3
            )

    def test_json_and_pretty(self):
        table = betti_table(SquarefreeIdeal(3, [[1, 2], [1, 3], [2, 3]]), GF2)
        data = table.to_json_dict()
        assert data["field"] == "gf2"
        assert {"i": 0, "j": 2, "beta": 3} in data["entries"]
        grid = table.pretty()
        assert "2:" in grid and "3" in grid



FIELDS = (GF2, FieldSpec(3), CHAR0)


class TestClearing:
    """Each map is ranked from the top size down, without the faces that
    lead a pivot of the map one size up (see `linalg`), and every rank
    stays as it was."""

    def eliminated_rows(self, monkeypatch, cx, field):
        # the number of rows handed to the elimination, one map per call
        import srchordal.betti

        sizes = []
        for name in ("gf2_pivots", "gfp_pivots"):
            real = getattr(srchordal.betti, name)

            def counting(rows, *p, real=real):
                sizes.append(len(rows))
                return real(rows, *p)

            monkeypatch.setattr(srchordal.betti, name, counting)
        homology = reduced_homology_dims(cx, field)
        monkeypatch.undo()
        return sizes, homology

    def test_rows_eliminated_are_the_faces_less_the_rank_above(self, monkeypatch):
        # Over GF(p) the map out of size s meets c_s - r_{s+1} rows: the
        # c_s faces of size s less one lead for each pivot of the map out
        # of size s + 1. Char 0 clears its GF(2) ranks with GF(2) leads.
        rng = random.Random(431)
        tetrahedron = SimplicialComplex.from_facets(4, [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]])
        rp2 = SimplicialComplex.from_facets(6, RP2_FACETS)
        complexes = [tetrahedron, rp2] + [random_small_facet_complex(rng, 4, 8) for _ in range(20)]
        cleared = 0
        for cx in complexes:
            maps = dense_boundaries(cx)
            for field in FIELDS:
                p = field.characteristic or 2
                ranks = [modular_rank(rows, p) for rows in maps] + [0]
                expected = [len(maps[s]) - ranks[s + 1] for s in reversed(range(len(maps)))]
                sizes, homology = self.eliminated_rows(monkeypatch, cx, field)
                assert sizes == expected, (cx, field)
                rank = rational_rank if field == CHAR0 else (lambda rows: modular_rank(rows, p))
                assert homology == dense_homology(cx, rank), (cx, field)
                cleared += sum(len(rows) for rows in maps) - sum(sizes)
        assert cleared > 0
        sizes, _ = self.eliminated_rows(monkeypatch, tetrahedron, GF2)
        assert sizes == [4, 6 - 3, 4 - 3]

    def test_agrees_with_the_oracles_on_random_ideals(self):
        # Tables against the Koszul oracle over each field, and the
        # homology of the whole complex against dense ranks. The
        # RP^2 extensions have 2-torsion, so GF(2) differs from GF(3)
        # and char 0 on them.
        rng = random.Random(432)
        ideals = [random_ideal(rng, 9, min_n=6) for _ in range(15)]
        ideals += [stanley_reisner_ideal(random_small_facet_complex(rng, 5, 8)) for _ in range(5)]
        ideals += [stanley_reisner_ideal(random_rp2_extension(rng, 7 + k % 2)) for k in range(3)]
        differ = 0
        for ideal in ideals:
            tables = {}
            for field in FIELDS:
                tables[field] = betti_table(ideal, field).as_dict()
                expected = koszul_betti_squarefree(ideal, field.characteristic)
                assert tables[field] == expected, (ideal, field)
            differ += tables[GF2] != tables[CHAR0]
            cx = stanley_reisner_complex(ideal)
            assert reduced_homology_dims(cx, CHAR0) == rational_homology(cx), ideal
            for p in (2, 3):
                expected = dense_homology(cx, lambda rows: modular_rank(rows, p))
                assert reduced_homology_dims(cx, FieldSpec(p)) == expected, (ideal, p)
        assert differ >= 3


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
        assert BettiTable.from_dict({}, GF2).pretty() == "(empty table)"


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

    def test_zero_ideal_signalled(self):
        for check in (nonlinear_witness, has_linear_resolution):
            with pytest.raises(ZeroIdealError, match=r"^the zero ideal has no resolution$"):
                check(SquarefreeIdeal.zero(3), GF2)

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
        # 29 edges through x1 make a lattice of 2^29 - 1 members, but the
        # star has linear quotients and is decided before it is closed
        star = SquarefreeIdeal(30, [[1, v] for v in range(2, 31)])
        assert nonlinear_witness(star, budget=100) is None
        assert is_componentwise_linear(star, CHAR0, budget=100)
        assert nonlinear_witness(SquarefreeIdeal(3, [[1, 2], [1, 3], [2, 3]]), budget=0) is None


class TestComponentwiseLinear:
    def test_mixed_degrees_true(self):
        assert is_componentwise_linear(SquarefreeIdeal(3, [[1], [2, 3]]), GF2)
        assert is_componentwise_linear(SquarefreeIdeal(3, [[1], [2, 3]]), CHAR0)

    def test_zero_ideal_signalled(self):
        with pytest.raises(ZeroIdealError, match=r"^the zero ideal is not classified$"):
            is_componentwise_linear(SquarefreeIdeal.zero(3), GF2)

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


def single_field_verdicts(test, ideal, fields):
    return {f.label: test(ideal, f) for f in fields}


class TestLinearByField:
    # Char 0 is read off a GF(2) "linear" and walked only after a GF(2)
    # "not linear"; every verdict must be the one its own walk gives.
    FIELDS = [GF2, CHAR0, FieldSpec(3)]

    def test_agrees_with_single_fields_and_oracle(self):
        rng = random.Random(416)
        seen = []
        for k in range(30):
            n = rng.randint(3, 8)
            gens = [
                rng.sample(range(1, n + 1), rng.randint(2, min(3, n)))
                for _ in range(rng.randint(2, 5))
            ]
            ideal = SquarefreeIdeal(n, gens)
            fields = self.FIELDS if k % 2 else self.FIELDS[::-1]
            verdicts = linear_by_field(is_componentwise_linear, ideal, fields)
            assert list(verdicts) == [f.label for f in fields]
            assert verdicts == single_field_verdicts(is_componentwise_linear, ideal, fields)
            # char 0 is the verdict the rule may take from GF(2)
            assert verdicts["char0"] == unbounded_componentwise_linear(ideal, 0), ideal
            if len(set(ideal.degrees())) == 1:
                assert linear_by_field(has_linear_resolution, ideal, fields) == (
                    single_field_verdicts(has_linear_resolution, ideal, fields)
                )
            seen.append(verdicts["gf2"])
        assert 0 < sum(seen) < len(seen)

    def test_rp2_is_linear_over_char0_only(self):
        # 2-torsion puts RP^2's H̃_1 and H̃_2 in the GF(2) table alone, so a
        # GF(2) "not linear" must not be copied into char 0
        expected = {"gf2": False, "char0": True, "gf3": True}
        for test in (has_linear_resolution, is_componentwise_linear):
            assert linear_by_field(test, RP2_IDEAL, self.FIELDS) == expected
        assert unbounded_componentwise_linear(RP2_IDEAL, 0)
        assert not unbounded_componentwise_linear(RP2_IDEAL, 2)

    def test_rp2_extensions(self):
        # the oracle runs on the 7-vertex draws only, as it is slow on 8
        rng = random.Random(417)
        split = 0
        for k in range(8):
            n = 7 + k % 2
            ideal = stanley_reisner_ideal(random_rp2_extension(rng, n))
            verdicts = linear_by_field(is_componentwise_linear, ideal, self.FIELDS)
            assert verdicts == single_field_verdicts(is_componentwise_linear, ideal, self.FIELDS)
            assert not verdicts["gf2"]
            if n == 7:
                assert verdicts["char0"] == unbounded_componentwise_linear(ideal, 0), ideal
            split += verdicts["char0"]
        assert 0 < split < 8

    def test_char0_walks_only_after_a_gf2_nonlinear(self, monkeypatch):
        import srchordal.betti

        real = srchordal.betti.has_linear_resolution
        checked = []

        def counting(comp, field, **kwargs):
            checked.append(field)
            return real(comp, field, **kwargs)

        monkeypatch.setattr(srchordal.betti, "has_linear_resolution", counting)
        # the components of degrees 2 and 3, walked over GF(2) and GF(3):
        # no bound ties GF(3) to GF(2)
        linear_by_field(is_componentwise_linear, stanley_reisner_ideal(EX0), self.FIELDS)
        assert checked == [GF2, GF2, FieldSpec(3), FieldSpec(3)]
        checked.clear()
        linear_by_field(is_componentwise_linear, RP2_IDEAL, [GF2, CHAR0])
        assert checked == [GF2, CHAR0]


def colon_variables(order: tuple[int, ...]) -> list[int]:
    """r_k, the number of variables generating (u_1..u_{k-1}) : u_k, for
    each u_k of the order, after checking that each colon generator
    u_i & ~u_k is divisible by one of them."""
    counts = []
    for k, u in enumerate(order):
        colon = {g & ~u for g in order[:k]}
        variables = [c for c in colon if c.bit_count() == 1]
        for c in colon:
            assert any(x & c for x in variables), (order, k, c)
        counts.append(len(variables))
    return counts


def linear_quotient_table(order: tuple[int, ...]) -> dict[tuple[int, int], int]:
    """Herzog-Takayama: β_{i,i+j} = Σ over the u_k of degree j of C(r_k, i)."""
    table: dict[tuple[int, int], int] = {}
    for u, r in zip(order, colon_variables(order)):
        for i in range(r + 1):
            key = (i, i + u.bit_count())
            table[key] = table.get(key, 0) + comb(r, i)
    return table


class TestLinearQuotients:
    # Every order `_linear_quotients` returns is checked here colon by
    # colon, and the Betti table it implies must be the one the walk and
    # the Koszul oracle give over every field asked.
    FIELDS = (GF2, FieldSpec(3), CHAR0)

    def check_order(self, ideal):
        from srchordal.betti import _linear_quotients

        order = _linear_quotients(ideal)
        if order is not None:
            assert sorted(order) == sorted(ideal.gens)
            degrees = [u.bit_count() for u in order]
            assert degrees == sorted(degrees)
            table = linear_quotient_table(order)
            for field in self.FIELDS:
                assert betti_table(ideal, field).as_dict() == table, (ideal, field)
            assert koszul_betti_squarefree(ideal) == table, ideal
        return order

    def test_random_ideals(self):
        rng = random.Random(418)
        found = [self.check_order(random_ideal(rng, 6)) is not None for _ in range(150)]
        assert 0 < sum(found) < len(found)
        found.clear()
        for _ in range(150):
            n = rng.randint(3, 6)
            d = rng.randint(2, min(3, n - 1))
            gens = [rng.sample(range(1, n + 1), d) for _ in range(rng.randint(2, 8))]
            found.append(self.check_order(SquarefreeIdeal(n, gens)) is not None)
        assert 0 < sum(found) < len(found)

    @pytest.mark.parametrize("family", ["stable", "gotzmann", "vd_dual"])
    def test_family_ideals_and_their_components(self, family):
        rng = random.Random(f"lq-{family}")
        for _ in range(25):
            if family == "stable":
                ideal = random_stable_ideal(rng, 6)
            elif family == "gotzmann":
                ideal = random_gotzmann_ideal(rng, 6)
            else:
                ideal = random_vd_dual_ideal(rng, rng.randint(3, 6))
                full = (1 << ideal.n) - 1
                assert is_vertex_decomposable(
                    SimplicialComplex(ideal.n, [full & ~g for g in ideal.gens])
                )
            assert self.check_order(ideal) is not None, ideal
            for j in range(ideal.min_degree(), ideal.max_degree() + 1):
                assert self.check_order(degree_component(ideal, j)) is not None, (ideal, j)

    def test_none_without_linear_quotients(self):
        from srchordal.betti import _linear_quotients

        # RP^2's ideal is not linear over GF(2), so no order can exist
        assert _linear_quotients(RP2_IDEAL) is None
        assert not has_linear_resolution(RP2_IDEAL, GF2)
        rng = random.Random(419)
        for _ in range(40):
            d = rng.randint(2, 3)
            ideal = random_split_ideal(rng, rng.randint(2 * d, 9), d)
            assert _linear_quotients(ideal) is None, ideal
            assert _linear_quotients(degree_component(ideal, d)) is None, ideal

    def test_classify_walks_no_family_ideal(self, monkeypatch):
        from srchordal.betti import _ChainComplex

        walked = []
        real = _ChainComplex.reduced_homology

        def counting(chain, w):
            walked.append(w)
            return real(chain, w)

        monkeypatch.setattr(_ChainComplex, "reduced_homology", counting)
        stable = SquarefreeIdeal(5, [[1, 2], [1, 3], [2, 3], [1, 4], [2, 4, 5]])
        gotzmann = SquarefreeIdeal(6, [[5, 6], [4, 6], [2, 3, 6], [1, 3, 6]])
        vd_dual = random_vd_dual_ideal(random.Random(420), 7)
        reports = [classify(ideal) for ideal in (stable, gotzmann, vd_dual)]
        assert reports[0]["stable"] and not reports[1]["stable"]
        assert reports[1]["gotzmann"] and reports[2]["vertex_decomposable"]
        assert all(r["componentwise_linear"] == {"gf2": True, "char0": True} for r in reports)
        assert walked == []
        # RP^2 has no linear quotients: it is walked over GF(2) up to its
        # witness, then over char 0 in full, as before
        assert classify(RP2_IDEAL)["componentwise_linear"] == {"gf2": False, "char0": True}
        assert len(walked) == 64


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
