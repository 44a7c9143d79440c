"""Core complex representation and elementary operations."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srchordal import (
    DimensionRangeError,
    FormatError,
    NotAFaceError,
    SimplicialComplex,
    VertexRangeError,
    VoidComplexError,
    mask_from_vertices,
    vertices_from_mask,
)
import srchordal.complexes
from generators import complex_draws, random_complex, random_small_facet_complex
from oracles import brute_deletion, brute_face_set, brute_minimal_nonfaces

EX0 = SimplicialComplex.from_facets(5, [[2, 5], [1, 4, 5], [1, 2, 3, 4]])
HOLLOW_TETRA = SimplicialComplex.from_facets(4, [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]])


def masks(*faces):
    return tuple(sorted(mask_from_vertices(f) for f in faces))


@st.composite
def complexes(draw, max_n=7, allow_void=True):
    n = draw(st.integers(min_value=1, max_value=max_n))
    lo = 0 if allow_void else 1
    nfac = draw(st.integers(min_value=lo, max_value=5))
    facets = [
        draw(st.sets(st.integers(min_value=1, max_value=n), max_size=n))
        for _ in range(nfac)
    ]
    return SimplicialComplex.from_facets(n, facets)


class TestConstruction:
    def test_example0_facets(self):
        assert EX0.facets == masks([2, 5], [1, 4, 5], [1, 2, 3, 4])
        assert EX0.dim == 3

    def test_dominated_face_dropped(self):
        cx = SimplicialComplex.from_facets(3, [[1, 2], [1]])
        assert cx.facets == masks([1, 2])

    def test_void_from_empty_input(self):
        cx = SimplicialComplex.from_facets(2, [])
        assert cx.is_void and cx.facets == ()
        assert cx.dim == -2

    def test_void_vs_empty_are_distinct(self):
        void = SimplicialComplex.void(2)
        empty = SimplicialComplex.empty(2)
        assert void != empty
        assert not void.is_face([])
        assert empty.is_face([])
        assert empty.dim == -1

    def test_vertex_range_errors(self):
        with pytest.raises(VertexRangeError):
            SimplicialComplex.from_facets(3, [[4]])
        with pytest.raises(VertexRangeError):
            SimplicialComplex.from_facets(65, [[1]])
        with pytest.raises(VertexRangeError):
            SimplicialComplex.from_facets(0, [])

    def test_antichain_invariant_random(self):
        for _, cx in complex_draws(101, 1101, 200, 7, allow_void=True):
            for f in cx.facets:
                assert sum(1 for g in cx.facets if f & ~g == 0) == 1


class TestIsFace:
    def test_example0_cases(self):
        assert EX0.is_face([1, 4])
        assert not EX0.is_face([3, 5])
        assert EX0.is_face([])

    def test_matches_bruteforce(self):
        rng = random.Random(102)
        drawn = [random_complex(rng, 6) for _ in range(50)]
        # most of the draws above are the full simplex
        rng = random.Random(1102)
        added = [random_small_facet_complex(rng, 3, 6) for _ in range(50)]
        assert sum(cx.facets != (cx.ambient,) for cx in added) >= 35
        for cx in drawn + added:
            faces = brute_face_set(cx)
            for sub in range(1 << cx.n):
                if sub & ~cx.ambient:
                    continue
                assert cx.is_face(sub) == (sub in faces)


class TestPureSkeleton:
    def test_triangle_edges(self):
        cx = SimplicialComplex.from_facets(3, [[1, 2, 3]])
        assert cx.pure_skeleton(1).facets == masks([1, 2], [1, 3], [2, 3])

    def test_simplex_vertices(self):
        assert SimplicialComplex.simplex(5).pure_skeleton(0).facets == masks(
            [1], [2], [3], [4], [5]
        )

    def test_example0_two_skeleton(self):
        expected = {mask_from_vertices(f) for f in ([1, 4, 5],)}
        for tri in ([1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]):
            expected.add(mask_from_vertices(tri))
        assert set(EX0.pure_skeleton(2).facets) == expected

    def test_range_errors(self):
        cx = SimplicialComplex.from_facets(3, [[1, 2, 3]])
        with pytest.raises(DimensionRangeError):
            cx.pure_skeleton(3)
        with pytest.raises(DimensionRangeError):
            cx.pure_skeleton(-1)


class TestInduced:
    def test_facet_window(self):
        sub = EX0.induced([1, 4, 5])
        assert sub.facets == masks([1, 4, 5])
        assert sub.ambient == mask_from_vertices([1, 4, 5])

    def test_nonface_window_gives_points(self):
        sub = EX0.induced([3, 5])
        assert sub.facets == masks([3], [5])

    def test_empty_window(self):
        assert EX0.induced([]).is_empty_complex
        assert SimplicialComplex.void(3).induced([]).is_void


class TestLink:
    def test_path_link(self):
        cx = SimplicialComplex.from_facets(3, [[1, 2], [2, 3]])
        lk = cx.link([3])
        assert lk.facets == masks([2])
        assert lk.ambient == mask_from_vertices([1, 2])

    def test_link_of_empty_face(self):
        cx = SimplicialComplex.from_facets(3, [[1, 2, 3]])
        assert cx.link([]) == cx

    def test_link_of_facet_is_empty_complex(self):
        cx = SimplicialComplex.from_facets(3, [[1, 2, 3]])
        assert cx.link([1, 2, 3]).is_empty_complex

    def test_link_of_nonface_errors(self):
        with pytest.raises(NotAFaceError):
            EX0.link([3, 5])


class TestDeleteAll:
    def test_triangle_vertex(self):
        cx = SimplicialComplex.from_facets(3, [[1, 2, 3]])
        assert cx.delete_all([1]).facets == masks([2, 3])

    def test_nonface_is_noop(self):
        assert EX0.delete_all([3, 5]) == EX0

    def test_empty_face_gives_void(self):
        assert SimplicialComplex.from_facets(2, [[1, 2]]).delete_all([]).is_void


class TestFaceDeletion:
    def test_example1_first_step(self):
        from srchordal import d_closure

        sigma1 = d_closure(EX0, 2).face_deletion([1, 5])
        assert sigma1.facets == masks([1, 5], [2, 5], [3, 5], [4, 5], [1, 2, 3, 4])

    def test_facet_deletion_is_noop(self):
        cx = SimplicialComplex.from_facets(3, [[1, 2, 3]])
        assert cx.face_deletion([1, 2, 3]) == cx

    def test_nonface_is_noop(self):
        cx = SimplicialComplex.from_facets(3, [[1, 2]])
        assert cx.face_deletion([3]) == cx

    def test_keeps_the_face(self):
        for rng, cx in complex_draws(103, 1103, 100, 6):
            faces = sorted(brute_face_set(cx))
            e = rng.choice(faces)
            out = cx.face_deletion(e)
            assert out.is_face(e)
            # identity exactly when E is a facet (or for the complex {∅})
            assert (out == cx) == (e in cx.facets)


class TestMovesAgainstOracle:
    def test_every_set_on_random_complexes(self):
        # every subset E of the ambient set: the empty face, facets, free
        # and non-free faces that are not facets, and nonfaces
        rng = random.Random(104)
        seen = dict.fromkeys(("empty", "facet", "free", "not_free", "nonface"), 0)
        for i in range(500):
            if i % 2:
                cx = random_complex(rng, 6, allow_void=True)
            else:
                cx = random_small_facet_complex(rng, 4, 6)
            faces = brute_face_set(cx)
            for e in range(cx.ambient + 1):
                if e & ~cx.ambient:
                    continue
                deleted = cx.delete_all(e)
                assert deleted.facets == brute_deletion(cx, e, keep_e=False), (cx, e)
                assert deleted.ambient == cx.ambient
                kept = cx.face_deletion(e)
                assert kept.facets == brute_deletion(cx, e, keep_e=True), (cx, e)
                assert kept.ambient == cx.ambient
                containing = sum(1 for f in cx.facets if e & ~f == 0)
                if e not in faces:
                    seen["nonface"] += 1
                elif e == 0:
                    seen["empty"] += 1
                elif e in cx.facets:
                    seen["facet"] += 1
                else:
                    seen["free" if containing == 1 else "not_free"] += 1
        assert all(seen.values()), seen

    def test_moves_need_no_antichain_reduction(self, monkeypatch):
        # both moves, and the link, read their facets straight off the
        # facet antichain
        rng = random.Random(105)
        cxs = [random_small_facet_complex(rng, 4, 6) for _ in range(40)]
        cxs += [random_complex(rng, 6) for _ in range(40)]

        def forbidden(masks):
            raise AssertionError("maximal_elements called by a move")

        monkeypatch.setattr(srchordal.complexes, "maximal_elements", forbidden)
        for cx in cxs:
            for e in range(cx.ambient + 1):
                if e & ~cx.ambient == 0:
                    cx.delete_all(e)
                    cx.face_deletion(e)
                    if cx.is_face(e):
                        cx.link(e)


class TestAlexanderDual:
    def test_two_points_on_two(self):
        cx = SimplicialComplex.from_facets(2, [[1], [2]])
        assert cx.alexander_dual().is_empty_complex

    def test_full_simplex_dual_is_void(self):
        assert SimplicialComplex.simplex(4).alexander_dual().is_void

    def test_void_dual_is_full_simplex(self):
        assert SimplicialComplex.void(3).alexander_dual() == SimplicialComplex.simplex(3)

    @settings(max_examples=150, deadline=None)
    @given(complexes(max_n=8, allow_void=False))
    def test_involution(self, cx):
        assert cx.alexander_dual().alexander_dual() == cx


class TestMinimalNonfaces:
    def test_example0(self):
        assert set(EX0.minimal_nonfaces()) == set(masks([3, 5], [1, 2, 5], [2, 4, 5]))

    def test_full_simplex_has_none(self):
        assert SimplicialComplex.simplex(4).minimal_nonfaces() == ()

    def test_hollow_tetrahedron(self):
        assert HOLLOW_TETRA.minimal_nonfaces() == masks([1, 2, 3, 4])

    def test_void_errors(self):
        with pytest.raises(VoidComplexError):
            SimplicialComplex.void(3).minimal_nonfaces()

    def test_sound_and_complete_by_bruteforce(self):
        rng = random.Random(104)
        drawn = [random_complex(rng, 7) for _ in range(120)]
        # most of the draws above are the full simplex, which has no nonfaces
        rng = random.Random(1104)
        added = [random_small_facet_complex(rng, 3, 7) for _ in range(120)]
        assert sum(cx.facets != (cx.ambient,) for cx in added) >= 90
        for cx in drawn + added:
            got = set(cx.minimal_nonfaces())
            assert got == brute_minimal_nonfaces(cx)


class TestDeletionInducedCommutation:
    @settings(max_examples=150, deadline=None)
    @given(complexes(max_n=7, allow_void=False), st.data())
    def test_commutes_when_e_inside_w(self, cx, data):
        w = data.draw(st.sets(st.integers(min_value=1, max_value=cx.n), max_size=cx.n))
        wm = mask_from_vertices(w)
        e = data.draw(st.sets(st.sampled_from(sorted(w)), max_size=len(w))) if w else set()
        em = mask_from_vertices(e)
        left = cx.delete_all(em).induced(wm)
        right = cx.induced(wm).delete_all(em)
        assert left == right


class TestSerialization:
    def test_round_trip(self):
        data = EX0.to_json_dict()
        assert data["n"] == 5
        assert sorted(data["facets"]) == [[1, 2, 3, 4], [1, 4, 5], [2, 5]]
        assert SimplicialComplex.from_json_dict(json.loads(json.dumps(data))) == EX0

    def test_void_and_empty_forms(self):
        assert SimplicialComplex.from_json_dict({"n": 3, "facets": None}).is_void
        assert SimplicialComplex.from_json_dict({"n": 3, "facets": [[]]}).is_empty_complex
        assert SimplicialComplex.void(3).to_json_dict()["facets"] is None
        assert SimplicialComplex.empty(3).to_json_dict()["facets"] == [[]]

    def test_induced_round_trip_keeps_ambient(self):
        sub = EX0.induced([3, 5])
        data = sub.to_json_dict()
        assert data["vertices"] == [3, 5]
        assert SimplicialComplex.from_json_dict(data) == sub

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"n": 3}, 'complex JSON needs "n" and "facets" keys'),
            ({"facets": [[1]]}, 'complex JSON needs "n" and "facets" keys'),
            ([3, [[1]]], 'complex JSON needs "n" and "facets" keys'),
            ({"n": 3, "facets": [1, 2]},
             "each facet must be a list of integer vertex labels in 1..64"),
            ({"n": 3, "facets": "[[1]]"}, '"facets" must be null or a list of vertex lists'),
            ({"n": 3, "facets": {"1": [1]}}, '"facets" must be null or a list of vertex lists'),
        ],
        ids=["no_facets", "no_n", "not_an_object", "facet_not_a_list", "facets_string",
             "facets_object"],
    )
    def test_rejections(self, data, message):
        with pytest.raises(FormatError) as exc:
            SimplicialComplex.from_json_dict(data)
        assert str(exc.value) == message

    def test_null_facets_keep_the_vertices(self):
        cx = SimplicialComplex.from_json_dict({"n": 4, "vertices": [2, 3], "facets": None})
        assert cx.is_void and cx.ambient == mask_from_vertices([2, 3])

    def test_mask_helpers(self):
        assert vertices_from_mask(mask_from_vertices([5, 1, 3])) == (1, 3, 5)
