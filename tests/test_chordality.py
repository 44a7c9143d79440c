"""Closures, free/simplicial faces, the searches, and certificate replay."""

import random
from collections import Counter
from functools import reduce
from operator import or_

import pytest

import srchordal.chordality
from srchordal import (
    GF2,
    DimensionRangeError,
    FormatError,
    FreeSequence,
    NotAClosureError,
    SearchBudgetExceeded,
    SimplicialComplex,
    SquarefreeIdeal,
    VoidComplexError,
    betti_table,
    chordality_check_range,
    d_chordal_order,
    d_closure,
    find_simplicial_order,
    free_faces,
    has_chordal_complex,
    is_chordal,
    is_d_chordal,
    is_d_closure,
    is_d_collapsible,
    mask_from_vertices,
    simplex_skeleton,
    simplicial_deletions,
    simplicial_faces,
    stanley_reisner_complex,
    stanley_reisner_ideal,
    verify_sequence,
)
from srchordal.bitsets import subsets_of_size
from srchordal.chordality import _collapse_rule, _free_faces
from data import (
    BUDGET_GADGET_FACETS,
    DUNCE_HAT_FACETS,
    EX0_FACETS,
    FIG4_FACETS,
    HOLLOW_TETRA_FACETS,
)
from generators import (
    complex_draws,
    plant_hole,
    random_box_nerve,
    random_complex,
    random_d_closure,
    random_gotzmann_ideal,
    random_ideal,
    random_small_facet_complex,
    random_split_ideal,
    random_stable_ideal,
    random_vd_dual_ideal,
)
from oracles import (
    brute_d_closure,
    brute_free_nonfacet_d_sets,
    brute_has_simplicial_order,
    brute_is_d_collapsible,
)

EX0 = SimplicialComplex.from_facets(5, EX0_FACETS)
HOLLOW = SimplicialComplex.from_facets(4, HOLLOW_TETRA_FACETS)
DUNCE = SimplicialComplex.from_facets(8, DUNCE_HAT_FACETS)
FIG4 = SimplicialComplex.from_facets(7, FIG4_FACETS)
GADGET = SimplicialComplex.from_facets(10, BUDGET_GADGET_FACETS)


def fmask(vs):
    return mask_from_vertices(vs)


def facet_set(cx):
    return set(cx.facets)


class TestDClosure:
    def test_example0_all_four(self):
        assert facet_set(d_closure(EX0, 1)) == {fmask([1, 2, 4, 5]), fmask([1, 2, 3, 4])}
        assert facet_set(d_closure(EX0, 2)) == {
            fmask([2, 5]), fmask([3, 5]), fmask([1, 4, 5]), fmask([1, 2, 3, 4])
        }
        assert facet_set(d_closure(EX0, 3)) == {
            fmask([1, 2, 5]), fmask([1, 3, 5]), fmask([1, 4, 5]), fmask([2, 3, 5]),
            fmask([2, 4, 5]), fmask([3, 4, 5]), fmask([1, 2, 3, 4]),
        }
        for d in (4, 5, 6):
            assert d_closure(EX0, d) == simplex_skeleton(5, EX0.ambient, d - 1)

    def test_matches_definition_bruteforce(self):
        rng = random.Random(301)
        for _ in range(120):
            cx = random_complex(rng, 6)
            d = rng.randint(1, 4)
            assert d_closure(cx, d) == brute_d_closure(cx, d)
        # random_complex mostly draws the full simplex, whose closure adds
        # nothing; closures of edges and triangles, half of them around a
        # planted 4-cycle or octahedron boundary, add faces or do not
        grew = []
        for _ in range(300):
            cx = random_small_facet_complex(rng, 4, 7)
            if rng.random() < 0.5:
                cx = plant_hole(rng, cx, 2 if cx.n >= 6 else 1)
            d = rng.randint(1, 4)
            closed = d_closure(cx, d)
            assert closed == brute_d_closure(cx, d)
            grew.append(closed != cx)
        assert 0 < sum(grew) < len(grew)  # 280 of 300 at this seed
        # as many draws as the random_complex ones, with their values of d,
        # from a second seed: 34 of those 120 are not the full simplex, and
        # 90 of these 120 are not
        rng = random.Random(323)
        proper = 0
        for _ in range(120):
            cx = random_small_facet_complex(rng, 3, 6)
            d = rng.randint(1, 4)
            assert d_closure(cx, d) == brute_d_closure(cx, d)
            proper += cx.facets != (cx.ambient,)
        assert proper >= 80

    @pytest.mark.parametrize(
        "cx, d",
        [
            (SimplicialComplex.from_facets(6, [[1, 2], [3, 4], [5]]), 2),
            (SimplicialComplex(6, [[1, 2], [2, 3]], ambient=fmask([1, 2, 3])), 3),
            (SimplicialComplex(6, [[1], [2]], ambient=fmask([1, 2])), 3),
            (SimplicialComplex(6, [[]], ambient=0), 1),
            (SimplicialComplex.empty(4), 1),
            (SimplicialComplex.empty(4), 3),
            (SimplicialComplex.empty(4), 5),
        ],
        ids=[
            "no_faces_of_d_plus_one_vertices", "ambient_of_d_vertices",
            "ambient_below_d_vertices", "empty_complex_on_no_vertices",
            "empty_complex_d1", "empty_complex_d3", "empty_complex_above_ambient",
        ],
    )
    def test_edge_cases_match_definition(self, cx, d):
        closed = d_closure(cx, d)
        assert closed == brute_d_closure(cx, d)
        size = cx.ambient.bit_count()
        assert closed == simplex_skeleton(cx.n, cx.ambient, min(d, size) - 1)

    def test_budget_counts_the_faces_grown(self):
        # the faces grown are every d-set and every larger face: 45 edges
        # and 20 triangles here
        assert d_closure(GADGET, 2, budget=65) == d_closure(GADGET, 2)
        with pytest.raises(
            SearchBudgetExceeded, match=r"^the 2-closure exceeded the face budget \(64\)$"
        ):
            d_closure(GADGET, 2, budget=64)

    def test_budget_stops_a_large_closure(self):
        # the 2-closure of the 30-vertex simplex has 2^30 faces
        big = SimplicialComplex.simplex(30)
        for build in (d_closure, d_chordal_order, simplicial_deletions):
            with pytest.raises(
                SearchBudgetExceeded, match=r"^the 2-closure exceeded the face budget \(1000\)$"
            ):
                build(big, 2, budget=1000)

    def test_idempotent_and_same_d_faces(self):
        for rng, cx in complex_draws(302, 1302, 100, 7):
            d = rng.randint(1, 4)
            closed = d_closure(cx, d)
            assert d_closure(closed, d) == closed
            assert closed.faces_of_dim(d) == cx.faces_of_dim(d)

    def test_rejects_bad_input(self):
        with pytest.raises(DimensionRangeError):
            d_closure(EX0, 0)
        with pytest.raises(VoidComplexError):
            d_closure(SimplicialComplex.void(3), 1)


class TestIsDClosure:
    def test_closures_are_closures(self):
        assert is_d_closure(d_closure(EX0, 2), 2)

    def test_hollow_tetrahedron_not_1_closure(self):
        assert not is_d_closure(HOLLOW, 1)
        assert d_closure(HOLLOW, 1) == SimplicialComplex.simplex(4)

    def test_full_simplex(self):
        assert is_d_closure(SimplicialComplex.simplex(3), 1)

    def test_equigenerated_ideal_criterion(self):
        # a complex is a d-closure iff its nonface ideal is equigenerated
        # in degree d+1 (or it is the full simplex / skeleton)
        from srchordal import stanley_reisner_ideal

        for rng, cx in complex_draws(303, 1303, 80, 6):
            d = rng.randint(1, 3)
            closed = d_closure(cx, d)
            ideal = stanley_reisner_ideal(closed)
            assert ideal.is_zero or set(ideal.degrees()) == {d + 1}


class TestFreeFaces:
    def test_hollow_tetra_has_no_small_free_faces(self):
        assert free_faces(HOLLOW, 0) == []

    def test_simplex_all_faces_free(self):
        cx = SimplicialComplex.from_facets(3, [[1, 2, 3]])
        assert len(free_faces(cx, 1)) == 7  # ∅, 3 vertices, 3 edges

    def test_example0_closure_contains_15(self):
        assert fmask([1, 5]) in free_faces(d_closure(EX0, 2), 1)

    def test_counts_match_definition(self):
        for _, cx in complex_draws(304, 1304, 100, 7):
            if cx.is_void:
                continue
            got = set(free_faces(cx, cx.dim))
            # no face is larger than a facet, so a far larger bound lists the same
            assert set(free_faces(cx, 10**6)) == got
            from oracles import brute_face_set

            expect = {
                f
                for f in brute_face_set(cx)
                if sum(1 for g in cx.facets if f & ~g == 0) == 1
            }
            assert got == expect


class TestSimplicialFaces:
    def test_example0_closure(self):
        sf = set(simplicial_faces(d_closure(EX0, 2), 2))
        assert fmask([1, 5]) in sf
        assert fmask([2, 5]) in sf and fmask([3, 5]) in sf  # facet free faces

    def test_skeleton_every_face_simplicial(self):
        sk = simplex_skeleton(4, (1 << 4) - 1, 1)
        assert set(simplicial_faces(sk, 2)) == set(sk.facets)

    def test_fig4_unique_nonfacet(self):
        closure = d_closure(FIG4, 2)
        extra = {f for f in closure.facets if f.bit_count() == 2}
        assert extra == {fmask([3, 5]), fmask([5, 7])}
        nonfacet = [e for e in simplicial_faces(closure, 2) if e not in facet_set(closure)]
        assert nonfacet == [fmask([1, 2])]

    def test_requires_closure(self):
        with pytest.raises(NotAClosureError):
            simplicial_faces(HOLLOW, 1)

    def test_rejects_bad_d(self):
        with pytest.raises(DimensionRangeError, match=r"^closure parameter d must be >= 1, got 0$"):
            is_d_closure(EX0, 0)


class TestFindSimplicialOrder:
    def test_requires_closure(self):
        # the hollow tetrahedron lacks its 1-closure's triangles
        with pytest.raises(NotAClosureError, match=r"^complex is not a 1-closure$"):
            find_simplicial_order(HOLLOW, 1)

    def test_example1_order_is_valid_and_search_succeeds(self):
        closure = d_closure(EX0, 2)
        paper = FreeSequence(
            "simplicial_order", 2, tuple(fmask(f) for f in [[1, 5], [1, 2], [1, 3], [2, 3]])
        )
        assert verify_sequence(closure, paper, 2)
        found = find_simplicial_order(closure, 2)
        assert found is not None
        assert verify_sequence(closure, found, 2)

    def test_dunce_hat_closure_has_no_order(self):
        closure = d_closure(DUNCE, 2)
        assert find_simplicial_order(closure, 2) is None

    def test_skeleton_base_case(self):
        # a closure that already is the (d-1)-skeleton needs no move, so
        # even a budget of 0 finds the empty order; with at most d
        # vertices the skeleton is the whole simplex
        for d in (1, 2, 3):
            for n in range(1, 7):
                sk = simplex_skeleton(n, (1 << n) - 1, d - 1)
                assert is_d_closure(sk, d)
                assert find_simplicial_order(sk, d, budget=0) == FreeSequence(
                    "simplicial_order", d, ()
                )

    @pytest.mark.parametrize(
        "n, facets, ambient, d",
        [
            (3, [[1, 2], [3]], [1, 2, 3], 3),
            (3, [[1, 2], [3]], [1, 2, 3], 4),
            (3, [], [1, 2, 3], 3),
            (4, [[1], [2]], [1, 2], 2),
            (5, [[2, 4]], [2, 4, 5], 4),
        ],
        ids=["d_vertices", "under_d_vertices", "void", "two_points", "relabelled"],
    )
    def test_a_small_ambient_set_is_reached_only_as_the_simplex(self, n, facets, ambient, d):
        # with at most d ambient vertices the goal is the simplex on
        # them, so any other start has no order; the search refuses such
        # a start, and on the raw complex answers for its closure, which
        # is that simplex and needs no move
        cx = SimplicialComplex(n, facets, ambient=fmask(ambient))
        assert not is_d_closure(cx, d)
        with pytest.raises(NotAClosureError):
            find_simplicial_order(cx, d)
        if cx.is_void:
            with pytest.raises(VoidComplexError):
                d_chordal_order(cx, d)
        else:
            assert d_closure(cx, d) == SimplicialComplex(n, [ambient], ambient=fmask(ambient))
            assert d_chordal_order(cx, d) == FreeSequence("simplicial_order", d, ())
        assert not brute_has_simplicial_order(cx, d)

    @pytest.mark.parametrize(
        "n, facets, d",
        [
            (3, [[1, 2]], 1),
            (4, [[1, 2, 3], [1, 4], [2, 4]], 2),
            (5, [[1, 2, 3, 4], [1, 5], [2, 5], [3, 5]], 3),
        ],
        ids=["vertex_missing", "edge_missing", "triangle_missing"],
    )
    def test_a_start_without_every_d_set_never_reaches_the_skeleton(self, n, facets, d):
        # moves never add a face, so a start that lacks a d-subset of its
        # ambient set never reaches the (d-1)-skeleton, though its moves
        # remove every (d+1)-face; with the missing d-sets added it has
        # an order, which the search on the raw complex answers with
        cx = SimplicialComplex.from_facets(n, facets)
        filled = d_closure(cx, d)
        order = find_simplicial_order(filled, d)
        assert order is not None
        assert d_chordal_order(cx, d) == order
        assert not verify_sequence(cx, order, d)
        with pytest.raises(NotAClosureError):
            find_simplicial_order(cx, d)
        assert not brute_has_simplicial_order(cx, d)

    def test_budget_exhaustion_raises(self):
        # the messages reach the CLI's stderr word for word
        closure = d_closure(EX0, 2)
        with pytest.raises(
            SearchBudgetExceeded, match=r"^simplicial-order search exceeded the node budget \(2\)$"
        ):
            find_simplicial_order(closure, 2, budget=2)
        with pytest.raises(
            SearchBudgetExceeded, match=r"^collapsing search exceeded the node budget \(1\)$"
        ):
            is_d_collapsible(SimplicialComplex.simplex(5), 2, budget=1)


class TestIsDChordal:
    def test_example0(self):
        assert is_d_chordal(EX0, 2)
        assert is_d_chordal(EX0, 1)

    def test_hollow_tetrahedron_1_chordal(self):
        assert is_d_chordal(HOLLOW, 1)

    def test_dunce_hat_not_2_chordal(self):
        assert not is_d_chordal(DUNCE, 2)

    def test_order_of_the_closure_is_the_searched_order(self):
        # d_chordal_order reads the complex's (d+1)-faces and never builds
        # the closure; its certificate, or None, is the checked search's
        # on the closure, on drawn complexes and on ones with a hole
        # planted that the rest of the complex may or may not fill
        draws, verdicts = 0, set()
        for rng, cx in complex_draws(707, 1707, 75, 7):
            for d in (1, 2, 3):
                starts = [cx]
                if d < 3 and cx.n >= 2 + 2 * d:
                    starts.append(plant_hole(rng, cx, d))
                for start in starts:
                    order = d_chordal_order(start, d)
                    closure = d_closure(start, d)
                    assert order == find_simplicial_order(closure, d)
                    assert (order is not None) == is_d_chordal(start, d)
                    if order is not None:
                        assert verify_sequence(closure, order, d)
                    verdicts.add(order is not None)
                    draws += 1
        assert draws >= 300 and verdicts == {False, True}

    def test_simplicial_deletions_match_the_checked_searches(self):
        # the checked public searches reject a complex that is not a
        # d-closure, so this also checks that every deletion is one
        rng = random.Random(708)
        seen = {None: 0, True: 0, False: 0}
        for i in range(60):
            cx = random_complex(rng, 6) if i % 2 else random_small_facet_complex(rng, 4, 6)
            for d in (1, 2):
                closure = d_closure(cx, d)
                probe = simplicial_deletions(cx, d)
                if find_simplicial_order(closure, d) is None:
                    assert probe is None
                    seen[None] += 1
                    continue
                assert probe[0] == closure
                faces = [e for e in simplicial_faces(closure, d) if e not in closure.facets]
                assert [e for e, _ in probe[1]] == faces
                for e, has_order in probe[1]:
                    assert has_order == (find_simplicial_order(closure.face_deletion(e), d) is not None)
                    seen[has_order] += 1
        assert seen[None] and seen[True], seen


class TestIsChordal:
    def test_example0_checks_d_1_and_2(self):
        assert chordality_check_range(EX0) == (1, 2)
        assert is_chordal(EX0)

    def test_full_simplex(self):
        assert chordality_check_range(SimplicialComplex.simplex(5)) == (1, 0)
        assert is_chordal(SimplicialComplex.simplex(5))

    def test_dunce_hat_not_chordal(self):
        lo, hi = chordality_check_range(DUNCE)
        assert lo <= 2 <= hi  # the failing d is inside the deciding range
        assert not is_chordal(DUNCE)

    def test_void_errors(self):
        with pytest.raises(VoidComplexError):
            is_chordal(SimplicialComplex.void(3))


class TestHasChordalComplex:
    def test_agrees_with_the_stanley_reisner_complex(self):
        # the generators are the minimal nonfaces, and the (d+1)-faces
        # the generator-free (d+1)-subsets; random_ideal with min_n=1
        # leaves variables in no generator, the cone points of the complex
        rng = random.Random(530)
        draws = [random_ideal(rng, 8, min_n=1) for _ in range(200)]
        draws += [random_stable_ideal(rng, 8) for _ in range(30)]
        draws += [random_gotzmann_ideal(rng, 8) for _ in range(30)]
        draws += [random_vd_dual_ideal(rng, rng.randint(2, 8)) for _ in range(30)]
        draws += [random_split_ideal(rng, rng.randint(6, 8), rng.choice((2, 3)))
                  for _ in range(30)]
        verdicts, cones = [], 0
        for ideal in draws:
            verdict = has_chordal_complex(ideal)
            assert verdict == is_chordal(stanley_reisner_complex(ideal)), ideal
            verdicts.append(verdict)
            used = 0
            for g in ideal.gens:
                used |= g
            cones += used != (1 << ideal.n) - 1
        assert verdicts.count(False) >= 30 and cones >= 100

    def test_the_range_ends_at_the_top_degree_not_the_dimension(self):
        # the complex of (x1, x2x3) is the points 2 and 3, of dimension 0,
        # so is_chordal checks no d; at d = 1 none of the comb(3, 2) = 3
        # subsets listed is a face, so the search starts at its goal
        ideal = SquarefreeIdeal(3, [[1], [2, 3]])
        assert chordality_check_range(stanley_reisner_complex(ideal)) == (1, 0)
        assert has_chordal_complex(ideal, budget=3)
        over = r"^the 1-closure exceeded the face budget \(2\)$"
        with pytest.raises(SearchBudgetExceeded, match=over):
            has_chordal_complex(ideal, budget=2)

    def test_the_zero_ideal_has_the_full_simplex(self):
        assert has_chordal_complex(SquarefreeIdeal.zero(4), budget=0)
        assert is_chordal(stanley_reisner_complex(SquarefreeIdeal.zero(4)))

    def test_each_listing_is_charged_before_it_runs(self):
        # (x1x2) on 30 variables checks d = 1 only, on comb(30, 2) = 435
        # subsets; one short of that, the budget stops the listing
        ideal = SquarefreeIdeal(30, [[1, 2]])
        assert has_chordal_complex(ideal, budget=435)
        over = r"^the 1-closure exceeded the face budget \(434\)$"
        with pytest.raises(SearchBudgetExceeded, match=over):
            has_chordal_complex(ideal, budget=434)


class TestIsDCollapsible:
    def test_hollow_tetrahedron_not_1_collapsible(self):
        assert is_d_collapsible(HOLLOW, 1) is None

    def test_rejects_bad_d(self):
        with pytest.raises(
            DimensionRangeError, match=r"^collapsing parameter d must be >= 1, got 0$"
        ):
            is_d_collapsible(EX0, 0)

    def test_full_simplex_collapsible(self):
        for n in (1, 2, 4):
            for d in (1, 2):
                seq = is_d_collapsible(SimplicialComplex.simplex(n), d)
                assert seq is not None
                assert verify_sequence(SimplicialComplex.simplex(n), seq, d)

    def test_dunce_hat_closure_not_2_collapsible(self):
        assert is_d_collapsible(d_closure(DUNCE, 2), 2) is None

    def test_void_trivially_collapsible(self):
        assert is_d_collapsible(SimplicialComplex.void(3), 1) == FreeSequence("collapse", 1, ())

    def test_pruning_is_differentially_safe(self):
        # the search branches only on the maximal free faces; the oracle
        # tries every free face with at most d vertices
        rng = random.Random(305)
        for _ in range(60):
            cx = random_complex(rng, 5)
            d = rng.randint(1, 3)
            assert (is_d_collapsible(cx, d) is not None) == brute_is_d_collapsible(cx, d)
        # random_complex draws the full simplex 40 times in 60 here, so draw
        # complexes of edges and triangles too, which are often not collapsible
        verdicts = set()
        for _ in range(200):
            cx = random_small_facet_complex(rng, 4, 7)
            d = rng.choice((1, 2))
            collapsible = is_d_collapsible(cx, d) is not None
            assert collapsible == brute_is_d_collapsible(cx, d)
            verdicts.add(collapsible)
        assert verdicts == {False, True}

    def test_candidates_are_small_facets_and_free_d_sets(self):
        # the inclusion-maximal free faces with at most d vertices: a free
        # face with fewer than d vertices that is not its facet F extends
        # by any vertex of F outside it to a larger free face
        rng = random.Random(312)
        for i in range(3000):
            if i % 2:
                cx = random_complex(rng, 6, allow_void=True)
            else:
                cx = random_small_facet_complex(rng, 4, 7)
            for d in range(1, 5):
                small = [f for f in cx.facets if f.bit_count() < d]
                expected = sorted(small + _free_faces(cx, (d,)))
                start, candidates, _, _ = _collapse_rule(cx, d)
                assert list(candidates(start)) == expected

    def test_fig4_is_2_collapsible_with_unique_free_edge(self):
        frees = [e for e in free_faces(FIG4, 1)]
        assert frees == [fmask([1, 2])]
        seq = is_d_collapsible(FIG4, 2)
        assert seq is not None and verify_sequence(FIG4, seq, 2)


def faces(*vertex_lists):
    return tuple(fmask(vs) for vs in vertex_lists)


# the octahedron boundary with antipodal pairs 16, 25 and 34, and four more
# triangles: its 2-closure has no simplicial order and is not 2-collapsible
OCTAHEDRON_AND_MORE = SimplicialComplex.from_facets(7, [
    [1, 2, 3], [1, 2, 4], [1, 3, 5], [1, 4, 5], [1, 3, 6], [2, 3, 6],
    [2, 4, 6], [3, 5, 6], [4, 5, 6], [2, 3, 7], [2, 4, 7], [1, 5, 7],
])


class TestSearchPins:
    """Exact certificates and search-tree sizes of both kinds of search:
    a change to the engine that moves either, even to another valid
    certificate, fails here."""

    def test_certificates(self):
        assert find_simplicial_order(d_closure(EX0, 2), 2) == FreeSequence(
            "simplicial_order", 2, faces([1, 2], [1, 3], [2, 3], [1, 4])
        )
        assert is_d_collapsible(FIG4, 2) == FreeSequence("collapse", 2, faces(
            [1, 2], [1, 5], [1, 4], [3, 4], [2, 4], [2, 5], [4, 5], [2, 6], [2, 3],
            [3, 6], [1, 3], [1, 6], [4, 6], [5, 6], [5], [1, 7], [1], [2, 7], [2],
            [3, 7], [3], [4, 7], [4], [6, 7], [6], [7], [],
        ))
        assert is_d_collapsible(SimplicialComplex.simplex(4), 2) == FreeSequence(
            "collapse", 2,
            faces([1, 2], [1, 3], [2, 3], [1, 4], [1], [2, 4], [2], [3, 4], [3], [4], []),
        )

    @pytest.mark.parametrize(
        "cx, order_nodes, collapse_moves",
        [(DUNCE, 0, 32), (OCTAHEDRON_AND_MORE, 48, 1940)],
        ids=["dunce_hat", "octahedron_and_more"],
    )
    def test_exhaustive_search_tree_size(self, cx, order_nodes, collapse_moves):
        # both searches fail, so the nodes counted cover the whole tree;
        # each is counted by its node budget, which also counts the moves
        # onto states known to fail. The order search on the raw complex
        # walks the closure's tree; at budget 0 the closure's face bound
        # refuses it before any search
        closure = d_closure(cx, 2)
        searches = [(find_simplicial_order, closure)]
        if order_nodes:
            searches.append((d_chordal_order, cx))
        for search, start in searches:
            assert search(start, 2, budget=order_nodes) is None
            if order_nodes:
                with pytest.raises(SearchBudgetExceeded, match=r"^simplicial-order search"):
                    search(start, 2, budget=order_nodes - 1)
        assert is_d_collapsible(closure, 2, budget=collapse_moves) is None
        with pytest.raises(SearchBudgetExceeded):
            is_d_collapsible(closure, 2, budget=collapse_moves - 1)

    @pytest.mark.parametrize(
        "cx, built, moves",
        [(DUNCE, 0, 0), (OCTAHEDRON_AND_MORE, 15, 48)],
        ids=["dunce_hat", "octahedron_and_more"],
    )
    def test_dead_children_are_never_built(self, monkeypatch, cx, built, moves):
        # a failed order search expands each state it reaches once: on
        # the octahedron, 15 of its 48 moves reach a new state and the
        # other 33 land on a state known to fail, which is not expanded
        closure = d_closure(cx, 2)
        real = srchordal.chordality._search
        states, steps = [], []

        def watched(rule, kind, d, budget):
            start, candidates, move, done = rule

            def expanding(state):
                states.append(state)
                return candidates(state)

            def moving(state, e):
                steps.append(e)
                return move(state, e)

            return real((start, expanding, moving, done), kind, d, budget)

        monkeypatch.setattr(srchordal.chordality, "_search", watched)
        assert find_simplicial_order(closure, 2) is None
        assert len(steps) == moves
        assert len(states) == built + 1
        assert len(set(states)) == built + 1

    @pytest.mark.parametrize(
        "cx", [OCTAHEDRON_AND_MORE, GADGET], ids=["octahedron_and_more", "budget_gadget"]
    )
    def test_a_failed_order_search_builds_no_complex(self, monkeypatch, cx):
        # the order search moves on the (d+1)-faces alone; face_deletion
        # is left to the replay of `verify_sequence`
        closure = d_closure(cx, 2)
        real = SimplicialComplex.face_deletion
        calls = []

        def building(self, face):
            calls.append(face)
            return real(self, face)

        monkeypatch.setattr(SimplicialComplex, "face_deletion", building)
        assert find_simplicial_order(closure, 2) is None
        assert calls == []

    def test_budget_gadget_tree_size(self):
        # the exhaustive order search behind the budget-exhausting
        # operation of the refute benchmark takes exactly 43,008 moves,
        # on the closure and on the raw complex alike
        closure = d_closure(GADGET, 2)
        for search, start in ((find_simplicial_order, closure), (d_chordal_order, GADGET)):
            assert search(start, 2, budget=43_008) is None
            with pytest.raises(SearchBudgetExceeded, match=r"^simplicial-order search"):
                search(start, 2, budget=43_007)


class TestOrderCandidates:
    def test_candidates_read_off_the_state_match_a_recount(self, monkeypatch):
        # at every state an order search expands, the candidates read off
        # its (d+1)-faces are the free non-facet d-sets counted afresh
        # from every facet of the complex that replaying the moves to it
        # with face_deletion builds; every path to one state builds one
        # complex, and a failed search expands each state it reaches
        # once, right after the move that first reaches it. The planted
        # octahedron and the 2-closure of figure 4 each reach both
        # shortcuts of the rule: a d-set in one live (d+1)-face, free
        # without a lookup, and one whose U, the union of its live
        # (d+1)-faces, is no face of the closure, where the lookup of
        # U's (d+1)-subsets misses
        expanded, moves = [], []
        shapes = Counter()
        real = srchordal.chordality._search

        def watched(rule, kind, d, budget):
            start, candidates, move, done = rule
            built = {start: closure}
            last = [start]
            tops = set(closure.faces_of_dim(d))

            def expanding(state):
                assert state == last[0]
                got = list(candidates(state))
                assert got == brute_free_nonfacet_d_sets(built[state], d)
                expanded.append(state)
                live_tops = built[state].faces_of_dim(d)
                for e in {e for t in live_tops for e in subsets_of_size(t, d)}:
                    live = [t for t in live_tops if e & ~t == 0]
                    if len(live) == 1:
                        shapes["one live face"] += 1
                    elif any(s not in tops for s in subsets_of_size(reduce(or_, live), d + 1)):
                        shapes["lookup misses"] += 1
                return got

            def moving(state, e):
                child = move(state, e)
                cur = built[state].face_deletion(e)
                assert built.setdefault(child, cur) == cur
                last[0] = child
                moves.append(e)
                return child

            return real((start, expanding, moving, done), kind, d, budget)

        def instances():
            for rng, cx in complex_draws(716, 1716, 50, 7):
                for d in (1, 2, 3):
                    yield d, d_closure(cx, d), False
                    if d < 3 and cx.n >= 2 + 2 * d:
                        yield d, d_closure(plant_hole(rng, cx, d), d), False
            for cx in (OCTAHEDRON_AND_MORE, FIG4):
                yield 2, d_closure(cx, 2), True

        monkeypatch.setattr(srchordal.chordality, "_search", watched)
        verdicts, dead_hits = set(), 0
        for d, closure, named in instances():
            expanded.clear()
            moves.clear()
            shapes.clear()
            found = find_simplicial_order(closure, d)
            if found is not None:
                assert verify_sequence(closure, found, d)
            elif expanded:
                # each move of a failed search reaches a state first
                # expanded then, or one already known to fail
                assert len(set(expanded)) == len(expanded)
                dead_hits += len(moves) - (len(expanded) - 1)
            verdicts.add(found is not None)
            if named:
                assert shapes["one live face"] > 0, closure
                assert shapes["lookup misses"] > 0, closure
        assert verdicts == {False, True}
        assert dead_hits > 0

    def test_the_live_star_fixes_the_union_of_the_live_faces(self, monkeypatch):
        # the order rule memoizes freeness by live = star[E] & alive: at
        # every state a search expands, two d-sets with the same nonzero
        # live star have the same U = E + {v : E+v is a live (d+1)-face},
        # the union of those faces alone, so U contains both; the live
        # star is read off the rule's own move, which clears its bits
        real = srchordal.chordality._search
        shared = 0

        def watched(rule, kind, d, budget):
            start, candidates, move, done = rule

            def expanding(state):
                nonlocal shared
                union = {}
                for e in d_sets:
                    mine = [i for i, t in enumerate(tops) if state >> i & 1 and e & ~t == 0]
                    live = state & ~move(state, e)
                    assert live == sum(1 << i for i in mine)
                    if live:
                        u = e
                        for i in mine:
                            u |= tops[i]
                        shared += live in union
                        assert union.setdefault(live, u) == u
                return candidates(state)

            return real((start, expanding, move, done), kind, d, budget)

        monkeypatch.setattr(srchordal.chordality, "_search", watched)
        for rng, cx in complex_draws(724, 1724, 50, 7):
            for d in (1, 2, 3):
                closures = [d_closure(cx, d)]
                if d < 3 and cx.n >= 2 + 2 * d:
                    closures.append(d_closure(plant_hole(rng, cx, d), d))
                for closure in closures:
                    tops = closure.faces_of_dim(d)
                    d_sets = sorted({e for t in tops for e in subsets_of_size(t, d)})
                    find_simplicial_order(closure, d)
        assert shared > 0


class TestOrderOracle:
    def test_order_search_matches_a_brute_force_search(self):
        # the order search against an exhaustive search over explicit
        # face sets: on d-closures, and on starts that are not closures,
        # which have no order and whose search on their (d+1)-faces
        # answers for their closure. Those are each start with every
        # d-set added, and the drawn starts of dimension at most 2: no
        # non-closure reaches the skeleton, so the brute force walks
        # every state one reaches, which is slow on larger ones
        verdicts, closures, others = set(), 0, 0
        for rng, cx in complex_draws(723, 1723, 40, 7):
            for d in (1, 2, 3):
                starts = [cx]
                if d < 3 and cx.n >= 2 + 2 * d:
                    starts.append(plant_hole(rng, cx, d))
                for start in starts:
                    closure = d_closure(start, d)
                    found = find_simplicial_order(closure, d)
                    has_order = brute_has_simplicial_order(closure, d)
                    assert (found is not None) == has_order
                    if found is not None:
                        assert verify_sequence(closure, found, d)
                    verdicts.add(found is not None)
                    closures += 1
                    amb = start.ambient
                    filled = SimplicialComplex(
                        start.n, start.facets + tuple(subsets_of_size(amb, d)), ambient=amb
                    )
                    for other in {start, filled} - {closure}:
                        if other is start and start.dim > 2:
                            continue
                        assert not brute_has_simplicial_order(other, d)
                        # both others have the start's closure, whose
                        # brute-force verdict is has_order
                        assert d_closure(other, d) == closure
                        got = d_chordal_order(other, d)
                        assert (got is not None) == has_order
                        assert got == found
                        if got is not None:
                            assert not verify_sequence(other, got, d)
                        others += 1
        assert verdicts == {False, True}
        assert closures >= 300 and others >= 100


class TestVerifySequence:
    def test_wrong_order_rejected(self):
        closure = d_closure(EX0, 2)
        bad = FreeSequence("simplicial_order", 2, (fmask([1, 2]), fmask([1, 5])))
        assert not verify_sequence(closure, bad, 2)

    def test_empty_collapse_only_on_void(self):
        empty = FreeSequence("collapse", 2, ())
        assert verify_sequence(SimplicialComplex.void(3), empty, 2)
        assert not verify_sequence(SimplicialComplex.empty(3), empty, 2)
        assert not verify_sequence(EX0, empty, 2)

    def test_collapse_face_above_d_vertices_rejected(self):
        # a valid 2-collapse of an edge deletes the edge itself first
        edge = SimplicialComplex.simplex(2)
        steps = faces([1, 2], [1], [2], [])
        assert verify_sequence(edge, FreeSequence("collapse", 2, steps), 2)
        assert not verify_sequence(edge, FreeSequence("collapse", 1, steps), 1)

    def test_certificate_for_another_d_rejected(self):
        # the 1-collapse claim deletes the two-vertex edge first, which
        # only d = 2 allows; an order of the 2-closure claimed for d = 3
        # is replayed at d = 2 only when it says d = 2
        edge = SimplicialComplex.simplex(2)
        steps = faces([1, 2], [1], [2], [])
        assert verify_sequence(edge, FreeSequence("collapse", 2, steps), 2)
        assert not verify_sequence(edge, FreeSequence("collapse", 1, steps), 2)
        closure = d_closure(EX0, 2)
        seq = find_simplicial_order(closure, 2)
        assert verify_sequence(closure, seq, 2)
        assert not verify_sequence(closure, FreeSequence("simplicial_order", 3, seq.faces), 2)

    def test_collapse_face_not_free_rejected(self):
        # {1,3} lies in the facets 134, 136 and 137 of FIG4
        seq = is_d_collapsible(FIG4, 2)
        bad = FreeSequence("collapse", 2, faces([1, 3]) + seq.faces)
        assert not verify_sequence(FIG4, bad, 2)

    def test_order_face_not_free_rejected(self):
        # {1,4} lies in the facets 145 and 1234 of the closure
        closure = d_closure(EX0, 2)
        seq = find_simplicial_order(closure, 2)
        bad = FreeSequence("simplicial_order", 2, faces([1, 4]) + seq.faces)
        assert not verify_sequence(closure, bad, 2)

    def test_order_face_of_wrong_size_rejected(self):
        # {1,2,3} is free and not a facet, but has three vertices, not d = 2
        closure = d_closure(EX0, 2)
        seq = find_simplicial_order(closure, 2)
        assert fmask([1, 2, 3]) in free_faces(closure, 2)
        bad = FreeSequence("simplicial_order", 2, faces([1, 2, 3]) + seq.faces)
        assert not verify_sequence(closure, bad, 2)

    def test_order_face_that_is_a_facet_rejected(self):
        # {2,5} is a free facet; deleting its proper superfaces changes
        # nothing, so only the facet check rejects it
        closure = d_closure(EX0, 2)
        seq = find_simplicial_order(closure, 2)
        bad = FreeSequence("simplicial_order", 2, faces([2, 5]) + seq.faces)
        assert fmask([2, 5]) in closure.facets
        assert not verify_sequence(closure, bad, 2)

    def test_unknown_kind_rejected(self):
        void = SimplicialComplex.void(3)
        assert verify_sequence(void, FreeSequence("collapse", 1, ()), 1)
        assert not verify_sequence(void, FreeSequence("bogus", 1, ()), 1)

    def test_order_requires_closure_start(self):
        seq = FreeSequence("simplicial_order", 1, (fmask([1]),))
        assert not verify_sequence(HOLLOW, seq, 1)

    def test_roundtrip_found_certificates(self):
        rng = random.Random(306)
        for _ in range(60):
            closure, d = random_d_closure(rng, 6, 3)
            seq = find_simplicial_order(closure, d)
            if seq is not None:
                assert verify_sequence(closure, seq, d)
            col = is_d_collapsible(closure, d)
            if col is not None:
                assert verify_sequence(closure, col, d)

    def test_a_replay_that_reaches_the_skeleton_started_at_a_closure(self):
        # a d-closure C and its face deletion at a free non-facet d-set
        # are closures together, so verify needs no closure check of its
        # own: the closure's order is rejected on every non-closure, and
        # the search refuses one, answering for its closure instead
        rng = random.Random(315)
        rejected = accepted = 0
        for k in range(300):
            cx = random_small_facet_complex(rng, 4, 6) if k % 2 else random_complex(rng, 6)
            d = rng.randint(1, 2)
            closure = d_closure(cx, d)
            seq = find_simplicial_order(closure, d)
            if seq is None:
                continue
            for start in (cx, closure):
                expected = is_d_closure(start, d) and replay_reaches_skeleton(start, seq, d)
                assert verify_sequence(start, seq, d) == expected
            accepted += 1
            assert d_chordal_order(cx, d) == seq
            if cx != closure:
                assert not verify_sequence(cx, seq, d)
                with pytest.raises(NotAClosureError):
                    find_simplicial_order(cx, d)
                rejected += 1
        assert rejected > 30 and accepted > rejected

    def test_certificate_json_round_trip(self):
        seq = FreeSequence("simplicial_order", 2, (fmask([1, 5]), fmask([1, 2])))
        assert FreeSequence.from_json_dict(seq.to_json_dict()) == seq

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"kind": "collapse", "d": 1}, 'certificate JSON needs "kind", "d" and "faces"'),
            (["collapse", 1, []], 'certificate JSON needs "kind", "d" and "faces"'),
            ({"kind": "bogus", "d": 1, "faces": []}, "unknown certificate kind 'bogus'"),
            ({"kind": "collapse", "d": 0, "faces": []}, '"d" must be a positive integer'),
            ({"kind": "collapse", "d": True, "faces": []}, '"d" must be a positive integer'),
            ({"kind": "collapse", "d": "2", "faces": []}, '"d" must be a positive integer'),
            ({"kind": "collapse", "d": 1, "faces": {"1": [1]}},
             '"faces" must be a list of vertex lists'),
            ({"kind": "collapse", "d": 1, "faces": None},
             '"faces" must be a list of vertex lists'),
        ],
        ids=["missing_key", "not_an_object", "unknown_kind", "zero_d", "boolean_d", "string_d",
             "faces_object", "faces_null"],
    )
    def test_certificate_json_rejections(self, data, message):
        with pytest.raises(FormatError) as exc:
            FreeSequence.from_json_dict(data)
        assert str(exc.value) == message


def replay_reaches_skeleton(cx, seq, d):
    """Replay a simplicial order step by step, without a closure check:
    each face a free non-facet d-set, ending at the (d-1)-skeleton."""
    cur = cx
    for e in seq.faces:
        if e.bit_count() != d or e in cur.facets:
            return False
        if sum(1 for f in cur.facets if e & ~f == 0) != 1:
            return False
        cur = cur.face_deletion(e)
    return cur == simplex_skeleton(cx.n, cx.ambient, d - 1)


class TestBoxNerves:
    """Wegner (1975): the nerve of convex sets in R^d is d-collapsible,
    hence d-Leray: every induced subcomplex has no homology in degree d
    or above, which by Hochster's formula puts every Betti number of its
    Stanley-Reisner ideal at j <= i + d + 1."""

    def test_nerve_is_d_collapsible_and_the_certificate_replays(self):
        rng = random.Random(316)
        for _ in range(120):
            d = rng.randint(1, 3)
            nerve = random_box_nerve(rng, rng.randint(2, 8), d)
            seq = is_d_collapsible(nerve, d)
            assert seq is not None, nerve
            assert verify_sequence(nerve, seq, d)

    def test_betti_numbers_lie_within_d_plus_one_of_the_diagonal(self):
        rng = random.Random(317)
        tight = 0
        for _ in range(120):
            d = rng.randint(1, 3)
            nerve = random_box_nerve(rng, rng.randint(2, 8), d)
            if nerve.facets == (nerve.ambient,):
                continue  # boxes with a common point: the zero ideal
            entries = betti_table(stanley_reisner_ideal(nerve), GF2).as_dict()
            assert all(j <= i + d + 1 for i, j in entries), (nerve, d)
            tight += any(j == i + d + 1 for i, j in entries)
        assert tight > 10


class TestPaperProperties:
    def test_deletion_commutes_with_closure(self):
        # closing then deleting a (d-1)-face equals deleting then closing
        for rng, cx in complex_draws(307, 1307, 80, 6):
            d = rng.randint(1, 3)
            closure = d_closure(cx, d)
            for e in closure.faces_of_dim(d - 1):
                if rng.random() < 0.7:
                    continue
                assert closure.face_deletion(e) == d_closure(cx.face_deletion(e), d)

    def test_closure_commutes_with_induction(self):
        for rng, cx in complex_draws(308, 1308, 80, 6):
            d = rng.randint(1, 3)
            w = rng.randint(0, cx.ambient)
            w &= cx.ambient
            assert d_closure(cx, d).induced(w) == d_closure(cx.induced(w), d)

    def test_main_equivalence_order_iff_collapsible(self):
        rng = random.Random(309)
        for _ in range(150):
            closure, d = random_d_closure(rng, 6, 3)
            has_order = find_simplicial_order(closure, d) is not None
            collapsible = is_d_collapsible(closure, d) is not None
            assert has_order == collapsible
        # 94 of the 150 closures above are the full simplex, all with an
        # order; closures of edges and triangles, half of them around a
        # planted 4-cycle (d = 1) or octahedron boundary (d = 2), meet both
        # verdicts for each d
        verdicts: dict[int, set[bool]] = {1: set(), 2: set()}
        for _ in range(150):
            cx = random_small_facet_complex(rng, 6, 7)
            d = rng.choice((1, 2))
            if rng.random() < 0.5:
                cx = plant_hole(rng, cx, d)
            closure = d_closure(cx, d)
            has_order = find_simplicial_order(closure, d) is not None
            assert has_order == (is_d_collapsible(closure, d) is not None)
            verdicts[d].add(has_order)
        assert verdicts == {1: {False, True}, 2: {False, True}}

    def test_collapsible_implies_t_chordal_upward(self):
        rng = random.Random(310)
        for _ in range(60):
            cx = random_complex(rng, 5)
            d = rng.randint(1, 3)
            if is_d_collapsible(cx, d) is None:
                continue
            for t in range(d, 5):
                assert is_d_chordal(cx, t)
        # only 16 of the 59 d-collapsible complexes above are not the full
        # simplex; as many draws of edges and triangles from a second seed
        # give 51 d-collapsible complexes, 37 of them not the simplex
        rng = random.Random(324)
        proper = 0
        for _ in range(60):
            cx = random_small_facet_complex(rng, 3, 5)
            d = rng.randint(1, 3)
            if is_d_collapsible(cx, d) is None:
                continue
            for t in range(d, 5):
                assert is_d_chordal(cx, t)
            proper += cx.facets != (cx.ambient,)
        assert proper >= 25

    def test_bounds_reduction_matches_bruteforce(self):
        rng = random.Random(311)
        for _ in range(80):
            cx = random_complex(rng, 6)
            brute = all(is_d_chordal(cx, d) for d in range(1, cx.n + 1))
            assert is_chordal(cx) == brute
        # 51 of the 80 complexes above are the full simplex and none is
        # non-chordal, so draw complexes of edges and triangles too (14 of
        # these 80 are non-chordal)
        rng = random.Random(321)
        verdicts = set()
        for _ in range(80):
            cx = random_small_facet_complex(rng, 4, 7)
            brute = all(is_d_chordal(cx, d) for d in range(1, cx.n + 1))
            assert is_chordal(cx) == brute
            verdicts.add(brute)
        assert verdicts == {False, True}

    def test_heredity_of_chordality(self):
        rng = random.Random(312)
        checked = 0
        while checked < 40:
            cx = random_complex(rng, 6)
            if not is_chordal(cx):
                continue
            checked += 1
            w = rng.randint(0, cx.ambient) & cx.ambient
            sub = cx.induced(w)
            if sub.is_void:
                continue
            assert is_chordal(sub)
        # 30 of the 40 complexes above are the full simplex, whose induced
        # subcomplexes are simplices; complexes of edges and triangles give
        # induced subcomplexes that are not (19 of these 40 draws)
        rng = random.Random(322)
        not_simplices = 0
        for _ in range(40):
            cx = random_small_facet_complex(rng, 4, 7)
            if not is_chordal(cx):
                continue
            sub = cx.induced(rng.randint(0, cx.ambient) & cx.ambient)
            if sub.is_void:
                continue
            assert is_chordal(sub)
            not_simplices += sub.facets != (sub.ambient,)
        assert not_simplices >= 15

    def test_free_face_promotion(self):
        # a free (d-1)-face of the complex stays simplicial in the closure
        for rng, cx in complex_draws(313, 1313, 80, 6):
            if cx.is_void:
                continue
            d = rng.randint(1, 3)
            closure = d_closure(cx, d)
            promoted = set(simplicial_faces(closure, d))
            for e in free_faces(cx, d - 1):
                if e.bit_count() == d:
                    assert e in promoted

    def test_suitable_d_shortcut(self):
        for _, cx in complex_draws(314, 1314, 60, 6):
            if cx.is_void or cx.facets == (cx.ambient,):
                continue
            nonfaces = cx.minimal_nonfaces()
            if not nonfaces:
                continue
            min_nonface_dim = min(f.bit_count() for f in nonfaces) - 1
            for d in range(1, min_nonface_dim + 1):
                if is_d_collapsible(cx, d) is not None:
                    assert is_chordal(cx)
                    break
