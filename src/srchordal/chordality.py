"""Closures, free and simplicial faces, one backtracking search for both
kinds of free sequence, and certificate replay.

A collapse (Wegner's d-collapsing) deletes a free face with at most d
vertices and every face above it, and ends at the void complex. A
simplicial order deletes the proper superfaces of a free d-vertex
non-facet of a d-closure, and ends at the (d-1)-skeleton. The paper
proves that a d-closure has a simplicial order iff it is d-collapsible;
here one search loop, `_search`, runs both, and the kinds differ in the
state, the faces tried, the move and the goal.

The search is exhaustive with memoization of failed states, never
greedy: collapsing can paint itself into a corner through a "bad" free
face, and it is open whether greedy simplicial deletion can do the same,
so a failed branch must not decide the verdict. Certificates are
returned as FreeSequence values that `verify_sequence` replays without
trusting the search.

An order search reads only the (d+1)-faces of its complex and answers
for the complex's d-closure, which they fix: Cl_d holds every set of at
most d vertices and each larger set whose (d+1)-subsets are all faces.
So `d_chordal_order` never builds the closure. The search runs on one
int of state: the (d+1)-faces still present, one bit each. A move at E
clears the bits of the (d+1)-faces containing E, and every state reached
is the closure cut down to the faces whose (d+1)-subsets all survive,
so the int fixes the state, keys the memo of failed states, and tells
the goal and the free non-facet d-sets without a complex being built
(see `_order_rule`). The candidates are read off it lazily, in
ascending order: a search that does not backtrack tests only the d-sets
up to the first that leads on. A d-set E is free when U, the union of
the live (d+1)-faces containing it, is a face of the state. Every such
face contains E, so U is the union of the live faces alone, and those
are the live bits of E's star: U, and whether it is a face, depend on
those bits and not on E, so one memo keyed by them serves every d-set,
state and probe of a rule.
A collapse search keeps the complex as its state and recounts its free
faces at every state: its moves remove faces of every size, and on the
collapsible complexes of the `certify` benchmark it never backtracks.

`verify_sequence` replays both kinds with `face_deletion` and
`delete_all` on explicit complexes, so the order search and its replay
share no move code, and an accepted certificate does not rest on the
bit arithmetic of the search.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterator, Sequence
from math import comb

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
from .values import Value

KIND_COLLAPSE = "collapse"
KIND_SIMPLICIAL_ORDER = "simplicial_order"
# every kind of free sequence, with the name of its search in budget messages
_SEARCH_NAMES = {KIND_COLLAPSE: "collapsing", KIND_SIMPLICIAL_ORDER: "simplicial-order"}


class FreeSequence(Value):
    """A replayable certificate: an ordered list of faces to delete.

    kind "collapse": each face is free of dimension < d and is removed
    with everything above it; the replay must end at the void complex.
    kind "simplicial_order": each face is a non-facet free (d-1)-face of
    the current d-closure and only its proper superfaces are removed;
    the replay must end at the full (d-1)-skeleton of the ambient set.
    """

    _fields = ("kind", "d", "faces")

    def __init__(self, kind: str, d: int, faces: tuple[int, ...]):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "faces", faces)

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
        if not isinstance(kind, str) or kind not in _SEARCH_NAMES:
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
      whose one-vertex extensions is a face: a face of one level is a
      facet iff it is no one-smaller subset of a face of the next. Growing
      the next level lists those subsets anyway, so they are collected
      there, once per level, instead of extending each face of the level
      below by every ambient vertex.
    More than `budget` faces grown raise SearchBudgetExceeded. The first
    level is bounded before it is listed (`_check_closure`).
    """
    over = _check_closure(cx, d, budget)
    amb = cx.ambient
    if amb.bit_count() < d:
        return SimplicialComplex._raw(cx.n, amb, (amb,))
    bits = [1 << (v - 1) for v in iter_vertices(amb)]
    low, level = set(subsets_of_size(amb, d)), set(cx.faces_of_dim(d))
    grown = len(low)
    facets: list[int] = []
    while low:
        grown += len(level)
        if grown > budget:
            raise SearchBudgetExceeded(over)
        nxt: set[int] = set()
        covered: set[int] = set()  # the faces of low inside a face of level
        for f in level:
            below = [f ^ w for w in bits if w & f]  # the one-smaller subsets of f
            covered.update(below)
            for b in bits:
                if b > f:  # b lies above the top vertex of f
                    for c in below:
                        if c | b not in level:
                            break
                    else:
                        nxt.add(f | b)
        facets += [f for f in low if f not in covered]
        low, level = level, nxt
    return SimplicialComplex._raw(cx.n, amb, tuple(sorted(facets)))


def _check_closure(cx: SimplicialComplex, d: int, budget: int) -> str:
    """Refuse a d below 1, the void complex and a complex whose d-closure
    is over `budget` faces by its first level alone; returns the message
    of a budget exit. That level holds comb(|A|, d) d-sets and at least
    the (d+1)-subsets of the largest facet, so a bound over the budget
    means the level's own count is over it too. Checked before anything
    is listed, by `d_closure` and by `d_chordal_order`, which builds no
    closure but keeps every exit this bound gives."""
    if d < 1:
        raise DimensionRangeError(f"closure parameter d must be >= 1, got {d}")
    if cx.is_void:
        raise VoidComplexError("the void complex has no d-closure")
    over = f"the {d}-closure exceeded the face budget ({budget})"
    top = max(comb(f.bit_count(), d + 1) for f in cx.facets)
    if comb(cx.ambient.bit_count(), d) + top > budget:
        raise SearchBudgetExceeded(over)
    return over


def is_d_closure(cx: SimplicialComplex, d: int) -> bool:
    if d < 1:
        raise DimensionRangeError(f"closure parameter d must be >= 1, got {d}")
    return not cx.is_void and d_closure(cx, d) == cx


def free_faces(cx: SimplicialComplex, max_dim: int) -> list[int]:
    """Faces contained in exactly one facet, of dimension <= max_dim.

    Facets themselves qualify; so does the empty face when the complex
    has a single facet.
    """
    return _free_faces(cx, range(min(max_dim, cx.dim) + 2))


def _free_faces(cx: SimplicialComplex, sizes: Sequence[int]) -> list[int]:
    """Free faces with a vertex count in `sizes`, ascending: the subsets
    of an admitted size that lie in exactly one facet, counted in one
    pass over the facets."""
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
    return _search(_order_rule(cx.faces_of_dim(d), d), KIND_SIMPLICIAL_ORDER, d, budget)


def is_d_collapsible(
    cx: SimplicialComplex, d: int, *, budget: int = DEFAULT_BUDGET
) -> FreeSequence | None:
    """Search for a free sequence of faces of dimension < d reducing the
    complex to void; None when the complex is not d-collapsible. The
    faces tried are those of `_collapse_rule`. No face has more than
    dim + 1 vertices, so any d above dim + 1 acts as dim + 1, though the
    certificate keeps the d asked for."""
    if d < 1:
        raise DimensionRangeError(f"collapsing parameter d must be >= 1, got {d}")
    return _search(_collapse_rule(cx, d), KIND_COLLAPSE, d, budget)


def _collapse_rule(
    cx: SimplicialComplex, d: int
) -> tuple[SimplicialComplex, Callable, Callable, Callable]:
    """The start state, candidates, move and goal of a collapse search on
    cx, on states that are complexes: a move deletes a face with
    everything above it, and the goal is the void complex, with no
    facets left.

    The candidates, ascending, are the inclusion-maximal free faces with
    at most d vertices, recounted from every facet of the state. Only
    those are branched on; this is sound because deleting a larger free
    face preserves collapsibility whenever deleting a smaller one does."""

    sizes = range(min(d, cx.dim + 1) + 1)  # no face has more vertices than a facet of cx

    def candidates(cur: SimplicialComplex) -> tuple[int, ...]:
        return maximal_elements(_free_faces(cur, sizes))

    return cx, candidates, SimplicialComplex.delete_all, lambda cur: not cur.facets


def _order_rule(tops: list[int], d: int) -> tuple[int, Callable, Callable, Callable]:
    """The start state, candidates, move and goal of a simplicial-order
    search on the d-closure C of a complex whose (d+1)-faces are `tops`,
    ascending. C holds every set of at most d vertices and each larger
    set whose (d+1)-subsets are all in `tops`, so `tops` fixes C and its
    (d+1)-faces are `tops` again. The states are ints: `alive` has one
    bit for each (d+1)-face still present, numbered by its place in
    `tops`, and star[E] holds the bits of the (d+1)-faces that contain
    the d-set E.

    * Move: a move at E removes the faces strictly containing E, so it
      leaves `alive & ~star[E]`.
    * State: those faces have more than d vertices, so every face with
      at most d vertices stays, and a face G with more than d+1
      vertices survives iff no moved E lies in G, iff each (d+1)-subset
      of G survives, since E lies in G exactly when it lies in a
      (d+1)-subset of G (E plus a vertex of G outside it). So every
      state reached is C cut down to the faces whose (d+1)-subsets all
      survive: `alive` fixes it and keys the memo of failed states, and
      the goal and the candidates are read off it.
    * Goal: the (d-1)-skeleton of the simplex on the ambient set. C
      holds every d-subset of it, so the goal is reached when no
      (d+1)-face is left; with at most d ambient vertices C is the
      simplex, which has none, and the search ends at its start.
    * Candidates, ascending: E qualifies iff star[E] & alive is not zero
      (E lies in a larger face, so it is a face and no facet) and E is
      free. Let L be the vertices v with E+v alive, and U = E + L, the
      union of the alive (d+1)-faces that contain E. Every face of the
      state containing E lies inside U, so E lies in one facet iff U is
      a face of the state, iff every (d+1)-subset of U is in `tops`, so
      U is a face of C, and survives (see State). The need of U holds
      the bits of those subsets, or a bit no state holds when the lookup
      misses one, where it stops, so the test is `need & ~alive == 0`.
    * Memo: every live (d+1)-face containing E contains E, so U is the
      union of the faces of live = star[E] & alive alone, and E itself
      adds nothing to it. So U and its need depend on `live` and not on
      E or on the rest of the state, and cover[live], worked out on the
      first miss, serves every d-set and state with the same live faces,
      and every probe of `simplicial_deletions`, which shares the rule.

    The candidates are a generator over the d-sets in ascending order,
    so a search that leads on from its first candidate, as a successful
    one mostly does, tests only the d-sets up to that candidate."""
    bit = {t: 1 << i for i, t in enumerate(tops)}
    star: dict[int, int] = {}
    for t, b in bit.items():
        rest = t
        while rest:  # t minus each of its vertices
            w = rest & -rest
            star[t ^ w] = star.get(t ^ w, 0) | b
            rest ^= w
    stars = sorted(star.items())
    absent = 1 << len(tops)
    cover: dict[int, int] = {}

    def needed(live: int) -> int:
        u = 0
        while live:
            low = live & -live
            u |= tops[low.bit_length() - 1]
            live ^= low
        try:
            return sum(map(bit.__getitem__, subsets_of_size(u, d + 1)))  # distinct bits: their OR
        except KeyError:  # the first (d+1)-subset of U not in tops
            return absent

    def candidates(alive: int) -> Iterator[int]:
        for e, s in stars:
            live = s & alive
            if live:
                need = cover.get(live)
                if need is None:
                    need = cover[live] = needed(live)
                if not need & ~alive:
                    yield e

    return absent - 1, candidates, lambda alive, e: alive & ~star[e], lambda alive: not alive


def _search(rule: tuple, kind: str, d: int, budget: int) -> FreeSequence | None:
    """Depth-first search for a free sequence of the given kind on its
    rule, the start, candidates, move and goal that `_collapse_rule` or
    `_order_rule` builds; None when there is none. Each state's
    candidates are drawn one at a time, in the order given, only as far
    as the search gets, so a generator of them is evaluated only up to
    the candidate that leads on.

    Every move counts as a node against the budget, including a move
    onto a state already known to fail, which is then not expanded
    again: the memo of failed states holds the states themselves, so
    they must be hashable and equal exactly when they are the same
    state."""
    start, candidates, move, done = rule
    if done(start):
        return FreeSequence(kind, d, ())
    nodes = 0
    dead = set()
    frames = [(start, iter(candidates(start)), 0)]
    while frames:
        state, it, _ = frames[-1]
        e = next(it, None)
        if e is None:
            dead.add(state)
            frames.pop()
            continue
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(
                f"{_SEARCH_NAMES[kind]} search exceeded the node budget ({budget})"
            )
        child = move(state, e)
        if done(child):
            return FreeSequence(kind, d, tuple(fr[2] for fr in frames[1:]) + (e,))
        if child not in dead:
            frames.append((child, iter(candidates(child)), e))
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

    The search reads only the complex's (d+1)-faces, which fix the
    closure (`_order_rule`), so the closure is never built. The complex
    is held to the closure's up-front face bound (`_check_closure`), not
    to its growth, and then the search to its node budget."""
    _check_closure(cx, d, budget)
    return _search(_order_rule(cx.faces_of_dim(d), d), KIND_SIMPLICIAL_ORDER, d, budget)


def simplicial_deletions(
    cx: SimplicialComplex, d: int, *, budget: int = DEFAULT_BUDGET
) -> tuple[SimplicialComplex, list[tuple[int, bool]]] | None:
    """Test, on the d-closure of the complex, whether deleting a
    simplicial face keeps a d-chordal d-closure d-chordal.

    Returns None when the closure has no simplicial order. Otherwise
    returns the closure and, for each of its non-facet simplicial faces
    E in ascending order, E and whether the face deletion at E still has
    a simplicial order.

    The closure and the rules of its order search are built once, and
    no complex is checked again. The probe at E starts from the
    closure's state with the (d+1)-faces containing E removed, which is
    the face deletion at E (see `_order_rule`), so its search tree and
    verdict are those of a search on that deletion. A face deletion of a
    d-closure C at a d-vertex face E is a d-closure: it keeps every set
    of at most d vertices, and a larger set G not containing E is a face
    of it iff G is a face of C, iff every (d+1)-subset of G is, none of
    which contains E; a larger G containing E has a (d+1)-subset
    containing E, which is deleted.
    """
    closure = d_closure(cx, d, budget=budget)
    alive, candidates, move, done = _order_rule(closure.faces_of_dim(d), d)

    def search(start: int) -> FreeSequence | None:
        return _search((start, candidates, move, done), KIND_SIMPLICIAL_ORDER, d, budget)

    if search(alive) is None:
        return None
    return closure, [(e, search(move(alive, e)) is not None) for e in candidates(alive)]


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
    """Replay a certificate, re-checking every step; a certificate for
    another d than the one asked for is rejected.

    A collapse deletes a free face with at most d vertices and every face
    containing it (`delete_all`), and must end at the void complex, with
    no facets left. A simplicial order deletes only the faces strictly
    containing a free non-facet face with d vertices (`face_deletion`),
    and must end at the (d-1)-skeleton of the simplex on the ambient set
    A: the facets are exactly (A,) when |A| <= d, and otherwise
    comb(|A|, d) facets of d vertices each, which are then every d-subset
    of A. The goal is tested on the facets, never listed.

    The replay builds each complex, so it shares no move code with the
    order search, which runs on bits of (d+1)-faces.

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
    if d < 1 or d != seq.d or seq.kind not in _SEARCH_NAMES:
        return False
    order = seq.kind == KIND_SIMPLICIAL_ORDER
    move = SimplicialComplex.face_deletion if order else SimplicialComplex.delete_all
    cur = cx
    for e in seq.faces:
        if (e.bit_count() != d or e in cur.facets) if order else e.bit_count() > d:
            return False
        if sum(1 for f in cur.facets if e & ~f == 0) != 1:
            return False
        cur = move(cur, e)
    if not order:
        return not cur.facets
    size = cx.ambient.bit_count()
    if size <= d:
        return cur.facets == (cx.ambient,)
    return len(cur.facets) == comb(size, d) and all(f.bit_count() == d for f in cur.facets)
