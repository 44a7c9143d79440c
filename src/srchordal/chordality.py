"""Closures, free and simplicial faces, one backtracking search for both
kinds of free sequence, and certificate replay.

A collapse (Wegner's d-collapsing) deletes a free face with at most d
vertices and every face above it, and ends at the void complex. A
simplicial order deletes the proper superfaces of a free d-vertex
non-facet of a d-closure, and ends at the (d-1)-skeleton. The paper
proves that a d-closure has a simplicial order iff it is d-collapsible;
here one search, `_search`, runs both with two move rules, and the
kinds differ only in the faces tried, the move and the goal.

The search is exhaustive with memoization of failed states, never
greedy: collapsing can paint itself into a corner through a "bad" free
face, and it is open whether greedy simplicial deletion can do the same,
so a failed branch must not decide the verdict. Certificates are
returned as FreeSequence values that `verify_sequence` replays with the
same move and goal, without trusting the search.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Callable, Sequence

from .bitsets import iter_vertices, maximal_elements, subsets_of_size, vertices_from_mask
from .complexes import SimplicialComplex, mask_from_json_labels
from .errors import (
    DEFAULT_BUDGET,
    DimensionRangeError,
    FormatError,
    NotAClosureError,
    SearchBudgetExceeded,
    VoidComplexError,
)

KIND_COLLAPSE = "collapse"
KIND_SIMPLICIAL_ORDER = "simplicial_order"
# every kind of free sequence, with the name of its search in budget messages
_SEARCH_NAMES = {KIND_COLLAPSE: "collapsing", KIND_SIMPLICIAL_ORDER: "simplicial-order"}


@dataclass(frozen=True, slots=True)
class FreeSequence:
    """A replayable certificate: an ordered list of faces to delete.

    kind "collapse": each face is free of dimension < d and is removed
    with everything above it; the replay must end at the void complex.
    kind "simplicial_order": each face is a non-facet free (d-1)-face of
    the current d-closure and only its proper superfaces are removed;
    the replay must end at the full (d-1)-skeleton of the ambient set.
    """

    kind: str
    d: int
    faces: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "d": self.d,
            "faces": [list(vertices_from_mask(f)) for f in self.faces],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FreeSequence":
        try:
            kind = data["kind"]
            d = data["d"]
            faces = data["faces"]
        except (KeyError, TypeError) as exc:
            raise FormatError('certificate JSON needs "kind", "d" and "faces"') from exc
        if kind not in _SEARCH_NAMES:
            raise FormatError(f"unknown certificate kind {kind!r}")
        if type(d) is not int or d < 1:
            raise FormatError('"d" must be a positive integer')
        if not isinstance(faces, list):
            raise FormatError('"faces" must be a list of vertex lists')
        return cls(kind, d, tuple(mask_from_json_labels(f, "each face") for f in faces))


def d_closure(cx: SimplicialComplex, d: int, *, budget: int = DEFAULT_BUDGET) -> SimplicialComplex:
    """Cl_d(cx): every set of at most d vertices of the ambient set, the
    faces of cx with d+1 vertices, and a larger set exactly when all its
    (d+1)-subsets are faces. It is grown level by level from the d-sets:
    * all sets of at most d vertices are faces, so none below d vertices
      is a facet (an ambient set of fewer than d gives the full simplex);
    * a set G of more than d+1 vertices is a face iff its one-smaller
      subsets are, by induction, as each (d+1)-subset lies in one of
      them; G is generated once, from G minus its top vertex;
    * faces are closed downwards, so the facets are the faces none of
      whose one-vertex extensions is a face.
    More than `budget` faces grown raise SearchBudgetExceeded. The first
    level is bounded before it is listed: it holds comb(|A|, d) d-sets
    and at least the (d+1)-subsets of the largest facet, so a bound over
    the budget means the level's own count is over it too.
    """
    if d < 1:
        raise DimensionRangeError(f"closure parameter d must be >= 1, got {d}")
    if cx.is_void:
        raise VoidComplexError("the void complex has no d-closure")
    amb = cx.ambient
    if amb.bit_count() < d:
        return SimplicialComplex._raw(cx.n, amb, (amb,))
    over = f"the {d}-closure exceeded the face budget ({budget})"
    if comb(amb.bit_count(), d) + max(comb(f.bit_count(), d + 1) for f in cx.facets) > budget:
        raise SearchBudgetExceeded(over)
    bits = [1 << (v - 1) for v in iter_vertices(amb)]
    low, level = set(subsets_of_size(amb, d)), set(cx.faces_of_dim(d))
    grown = len(low)
    facets: list[int] = []
    while low:
        grown += len(level)
        if grown > budget:
            raise SearchBudgetExceeded(over)
        facets += [f for f in low if level.isdisjoint(map(f.__or__, bits))]
        nxt: set[int] = set()
        for f in level:
            below = [f ^ w for w in bits if w & f]  # the one-smaller subsets of f
            for b in bits:
                if b > f:  # b lies above the top vertex of f
                    for c in below:
                        if c | b not in level:
                            break
                    else:
                        nxt.add(f | b)
        low, level = level, nxt
    return SimplicialComplex._raw(cx.n, amb, tuple(sorted(facets)))


def is_d_closure(cx: SimplicialComplex, d: int) -> bool:
    if d < 1:
        raise DimensionRangeError(f"closure parameter d must be >= 1, got {d}")
    return not cx.is_void and d_closure(cx, d) == cx


def free_faces(cx: SimplicialComplex, max_dim: int) -> list[int]:
    """Faces contained in exactly one facet, of dimension <= max_dim.

    Facets themselves qualify; so does the empty face when the complex
    has a single facet.
    """
    return _free_faces(cx, range(max_dim + 2))


def _free_faces(cx: SimplicialComplex, sizes: Sequence[int]) -> list[int]:
    """Free faces with a vertex count in `sizes`, ascending. One pass over
    the facets counts the facets that contain each subset of an admitted
    size; a subset is free when its count is 1."""
    count: Counter[int] = Counter()
    for f in cx.facets:
        for k in sizes:
            count.update(subsets_of_size(f, k))
    return sorted(e for e, c in count.items() if c == 1)


def simplicial_faces(cx: SimplicialComplex, d: int) -> list[int]:
    """Free faces of dimension exactly d-1 of a d-closure."""
    if not is_d_closure(cx, d):
        raise NotAClosureError(f"complex is not a {d}-closure")
    return _free_faces(cx, (d,))


def find_simplicial_order(
    cx: SimplicialComplex, d: int, *, budget: int = DEFAULT_BUDGET
) -> FreeSequence | None:
    """Search for a simplicial order of a d-closure.

    Returns the empty sequence when the complex already is the full
    (d-1)-skeleton, a sequence of non-facet simplicial faces whose
    iterated face deletions reach that skeleton, or None when no order
    exists. Candidates are tried in ascending bitmask order, so the
    certificate is deterministic.
    """
    if not is_d_closure(cx, d):
        raise NotAClosureError(f"complex is not a {d}-closure")
    return _search(cx, KIND_SIMPLICIAL_ORDER, d, budget)


def is_d_collapsible(
    cx: SimplicialComplex, d: int, *, budget: int = DEFAULT_BUDGET
) -> FreeSequence | None:
    """Search for a free sequence of faces of dimension < d reducing the
    complex to void; None when the complex is not d-collapsible.

    Only inclusion-maximal free faces among the admissible ones are
    branched on; this is sound because deleting a larger free face
    preserves collapsibility whenever deleting a smaller one does.
    """
    if d < 1:
        raise DimensionRangeError(f"collapsing parameter d must be >= 1, got {d}")
    return _search(cx, KIND_COLLAPSE, d, budget)


def _rule(
    kind: str, cx: SimplicialComplex, d: int
) -> tuple[Callable, Callable[[tuple[int, ...]], bool]]:
    """The move and the goal test, on facets, of a free sequence of the
    given kind on cx. A collapse deletes a face with everything above it
    and ends at the void complex: no facets are left. A simplicial order
    keeps the face itself and ends at the (d-1)-skeleton of the simplex
    on the ambient set A: the facets are exactly (A,) when |A| <= d, and
    otherwise comb(|A|, d) facets of d vertices each, which are then
    every d-subset of A. The goal is tested, never listed."""
    if kind == KIND_COLLAPSE:
        return SimplicialComplex.delete_all, lambda facets: not facets
    amb = cx.ambient
    size = amb.bit_count()
    if size <= d:
        return SimplicialComplex.face_deletion, lambda facets: facets == (amb,)
    top = comb(size, d)
    return SimplicialComplex.face_deletion, lambda facets: (
        len(facets) == top and all(f.bit_count() == d for f in facets)
    )


def _candidates(kind: str, cx: SimplicialComplex, d: int) -> Sequence[int]:
    """The faces the search tries on cx, ascending: for a collapse the
    inclusion-maximal free faces with at most d vertices, for a
    simplicial order the free d-vertex faces that are not facets."""
    if kind == KIND_COLLAPSE:
        return maximal_elements(_free_faces(cx, range(d + 1)))
    facets = set(cx.facets)
    return [e for e in _free_faces(cx, (d,)) if e not in facets]


def _search(cx: SimplicialComplex, kind: str, d: int, budget: int) -> FreeSequence | None:
    """Depth-first search for a free sequence of the given kind, trying
    candidates in ascending mask order and skipping states already known
    to fail; None when none exists. The caller has checked cx: a
    simplicial order needs a d-closure."""
    move, done = _rule(kind, cx, d)
    if done(cx.facets):
        return FreeSequence(kind, d, ())
    nodes = 0
    dead: set[tuple[int, ...]] = set()
    frames = [(cx, iter(_candidates(kind, cx, d)), 0)]
    while frames:
        cur, it, _ = frames[-1]
        e = next(it, None)
        if e is None:
            dead.add(cur.facets)
            frames.pop()
            continue
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(
                f"{_SEARCH_NAMES[kind]} search exceeded the node budget ({budget})"
            )
        nxt = move(cur, e)
        if done(nxt.facets):
            return FreeSequence(kind, d, tuple(fr[2] for fr in frames[1:]) + (e,))
        if nxt.facets not in dead:
            frames.append((nxt, iter(_candidates(kind, nxt, d)), e))
    return None


def is_d_chordal(cx: SimplicialComplex, d: int, *, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether the d-closure admits a simplicial order (or already is
    the full (d-1)-skeleton)."""
    return d_chordal_order(cx, d, budget=budget) is not None


def d_chordal_order(
    cx: SimplicialComplex, d: int, *, budget: int = DEFAULT_BUDGET
) -> FreeSequence | None:
    """A simplicial order of the d-closure of the complex, as
    `find_simplicial_order` returns it, or None when there is none.

    The closure is built here under its own budget and not checked again."""
    return _search(d_closure(cx, d, budget=budget), KIND_SIMPLICIAL_ORDER, d, budget)


def simplicial_deletions(
    cx: SimplicialComplex, d: int, *, budget: int = DEFAULT_BUDGET
) -> tuple[SimplicialComplex, list[tuple[int, bool]]] | None:
    """Test, on the d-closure of the complex, whether deleting a
    simplicial face keeps a d-chordal d-closure d-chordal.

    Returns None when the closure has no simplicial order. Otherwise
    returns the closure and, for each of its non-facet simplicial faces
    E in ascending order, E and whether the face deletion at E still has
    a simplicial order.

    The closure is built once, and no complex is checked again. A face
    deletion of a d-closure C at a d-vertex face E is a d-closure: it
    keeps every set of at most d vertices, and a larger set G not
    containing E is a face of it iff G is a face of C, iff every
    (d+1)-subset of G is, none of which contains E; a larger G
    containing E has a (d+1)-subset containing E, which is deleted.
    """
    closure = d_closure(cx, d, budget=budget)
    if _search(closure, KIND_SIMPLICIAL_ORDER, d, budget) is None:
        return None
    return closure, [
        (e, _search(closure.face_deletion(e), KIND_SIMPLICIAL_ORDER, d, budget) is not None)
        for e in _candidates(KIND_SIMPLICIAL_ORDER, closure, d)
    ]


def chordality_check_range(cx: SimplicialComplex) -> tuple[int, int]:
    """The finite interval of d values that decides chordality.

    Returns (lo, hi); the complex is chordal iff it is d-chordal for all
    lo <= d <= hi, and the interval may be empty (hi < lo), in which
    case the complex is chordal outright.

    Raises VoidComplexError on the void complex, whose ideal is the unit
    ideal. The Alexander dual of the full simplex is void, so callers
    that dualize must exclude the full simplex (the zero ideal) first.
    """
    if cx.is_void:
        raise VoidComplexError("chordality is undefined for the void complex")
    nonfaces = cx.minimal_nonfaces()
    if not nonfaces:
        return (1, 0)
    sizes = [f.bit_count() for f in nonfaces]
    return (max(1, min(sizes) - 1), min(cx.dim, max(sizes) - 1))


def is_chordal(cx: SimplicialComplex, *, budget: int = DEFAULT_BUDGET) -> bool:
    """d-chordality over the finite deciding range of d values.

    Raises VoidComplexError on the void complex, as
    chordality_check_range does; exclude the full simplex before testing
    an Alexander dual.
    """
    lo, hi = chordality_check_range(cx)
    return all(is_d_chordal(cx, d, budget=budget) for d in range(lo, hi + 1))


def verify_sequence(cx: SimplicialComplex, seq: FreeSequence, d: int) -> bool:
    """Replay a certificate, re-checking every step.

    For a collapse: each face must be free of dimension < d in the
    current complex, and the replay must end void. For a simplicial
    order: the start must be a d-closure, each face a non-facet free
    (d-1)-face, and the replay must end at the full (d-1)-skeleton.

    The start of an accepted order is a d-closure without a check of its
    own: if E is a free non-facet face of C with d vertices, then C is a
    d-closure iff its face deletion at E is one. One way is shown in
    `simplicial_deletions`. For the other, let the deletion be a
    d-closure; it holds every set of at most d vertices, and so does C.
    Take a set G of the ambient set whose (d+1)-subsets all lie in C.
    If G does not contain E, none of those subsets contains E, so they
    survive the deletion and G is a face of it, so of C. If G contains
    E, each E + x with x in G lies in the only facet F of C containing
    E, so G lies in F. The (d-1)-skeleton is itself a d-closure, so by
    induction back along the replay, a replay that reaches it started at
    a d-closure.
    """
    if d < 1 or seq.kind not in _SEARCH_NAMES:
        return False
    order = seq.kind == KIND_SIMPLICIAL_ORDER
    move, done = _rule(seq.kind, cx, d)
    cur = cx
    for e in seq.faces:
        if (e.bit_count() != d or e in cur.facets) if order else e.bit_count() > d:
            return False
        if sum(1 for f in cur.facets if e & ~f == 0) != 1:
            return False
        cur = move(cur, e)
    return done(cur.facets)
