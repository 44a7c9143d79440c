"""Closures, free and simplicial faces, the two backtracking searches,
and certificate replay.

Both searches are exhaustive with memoization of failed states, never
greedy: collapsing can paint itself into a corner through a "bad" free
face, and it is open whether greedy simplicial deletion can do the same,
so a failed branch must not decide the verdict. Certificates are
returned as FreeSequence values that `verify_sequence` can replay
without trusting the search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitsets import maximal_elements, subsets_of_size, subsets_up_to_size, vertices_from_mask
from .complexes import SimplicialComplex, mask_from_json_labels, simplex_skeleton
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


@dataclass(frozen=True)
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
        if kind not in (KIND_COLLAPSE, KIND_SIMPLICIAL_ORDER):
            raise FormatError(f"unknown certificate kind {kind!r}")
        if type(d) is not int or d < 1:
            raise FormatError('"d" must be a positive integer')
        if not isinstance(faces, list):
            raise FormatError('"faces" must be a list of vertex lists')
        return cls(kind, d, tuple(mask_from_json_labels(f, "each face") for f in faces))


def d_closure(cx: SimplicialComplex, d: int) -> SimplicialComplex:
    """The complex with the same d-faces, everything of dimension < d,
    and a larger face exactly when all its (d+1)-subsets are faces."""
    if d < 1:
        raise DimensionRangeError(f"closure parameter d must be >= 1, got {d}")
    if cx.is_void:
        raise VoidComplexError("the void complex has no d-closure")
    amb = cx.ambient
    amb_size = amb.bit_count()
    if amb_size <= d:
        return simplex_skeleton(cx.n, amb, amb_size - 1)
    seed = set(cx.faces_of_dim(d))
    if not seed:
        return simplex_skeleton(cx.n, amb, d - 1)
    # A set of size > d+1 qualifies iff all its one-smaller subsets do, so
    # grow level by level from the d-faces, keeping the maximal ones.
    facets: list[int] = []
    level = seed
    while level:
        nxt: set[int] = set()
        for f in level:
            top = 1 << (f.bit_length() - 1)
            rest = amb & ~f
            while rest:
                low = rest & -rest
                rest ^= low
                if low < top:
                    continue  # each candidate is generated from its top-removed subset
                cand = f | low
                ok = True
                w = f
                while w:
                    wl = w & -w
                    w ^= wl
                    if (cand ^ wl) not in level:
                        ok = False
                        break
                if ok:
                    nxt.add(cand)
        for f in level:
            extended = False
            rest = amb & ~f
            while rest:
                low = rest & -rest
                rest ^= low
                if (f | low) in nxt:
                    extended = True
                    break
            if not extended:
                facets.append(f)
        level = nxt
    # size-d subsets not inside any d-face of the original complex stay
    # facets of the closure
    for small in subsets_of_size(amb, d):
        if not any(small & ~f == 0 for f in seed):
            facets.append(small)
    return SimplicialComplex._raw(cx.n, amb, tuple(sorted(facets)))


def is_d_closure(cx: SimplicialComplex, d: int) -> bool:
    if d < 1:
        raise DimensionRangeError(f"closure parameter d must be >= 1, got {d}")
    if cx.is_void:
        return False
    return d_closure(cx, d) == cx


def free_faces(cx: SimplicialComplex, max_dim: int) -> list[int]:
    """Faces contained in exactly one facet, of dimension <= max_dim.

    Facets themselves qualify; so does the empty face when the complex
    has a single facet.
    """
    return _free_faces_up_to_size(cx, max_dim + 1)


def _free_faces_up_to_size(cx: SimplicialComplex, max_size: int) -> list[int]:
    cands: set[int] = set()
    for f in cx.facets:
        cands.update(subsets_up_to_size(f, min(max_size, f.bit_count())))
    out = []
    for c in cands:
        count = 0
        for f in cx.facets:
            if c & ~f == 0:
                count += 1
                if count > 1:
                    break
        if count == 1:
            out.append(c)
    return sorted(out)


def _free_faces_of_size(cx: SimplicialComplex, size: int) -> list[int]:
    cands: set[int] = set()
    for f in cx.facets:
        cands.update(subsets_of_size(f, size))
    out = []
    for c in cands:
        count = 0
        for f in cx.facets:
            if c & ~f == 0:
                count += 1
                if count > 1:
                    break
        if count == 1:
            out.append(c)
    return sorted(out)


def simplicial_faces(cx: SimplicialComplex, d: int) -> list[int]:
    """Free faces of dimension exactly d-1 of a d-closure."""
    if not is_d_closure(cx, d):
        raise NotAClosureError(f"complex is not a {d}-closure")
    return _free_faces_of_size(cx, d)


def _order_candidates(cx: SimplicialComplex, d: int) -> list[int]:
    facets = set(cx.facets)
    return [f for f in _free_faces_of_size(cx, d) if f not in facets]


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
    target = simplex_skeleton(cx.n, cx.ambient, d - 1).facets
    if cx.facets == target:
        return FreeSequence(KIND_SIMPLICIAL_ORDER, d, ())
    nodes = 0
    dead: set[tuple[int, ...]] = set()
    frames: list[tuple[SimplicialComplex, object, int]] = [
        (cx, iter(_order_candidates(cx, d)), 0)
    ]
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
                f"simplicial-order search exceeded the node budget ({budget})"
            )
        nxt = cur.face_deletion(e)
        if nxt.facets == target:
            return FreeSequence(
                KIND_SIMPLICIAL_ORDER, d, tuple(fr[2] for fr in frames[1:]) + (e,)
            )
        if nxt.facets in dead:
            continue
        frames.append((nxt, iter(_order_candidates(nxt, d)), e))
    return None


def is_d_collapsible(
    cx: SimplicialComplex,
    d: int,
    *,
    budget: int = DEFAULT_BUDGET,
    prune_to_maximal: bool = True,
) -> FreeSequence | None:
    """Search for a free sequence of faces of dimension < d reducing the
    complex to void; None when the complex is not d-collapsible.

    With `prune_to_maximal` (default) only inclusion-maximal free faces
    among the admissible ones are branched on; this is sound because
    deleting a larger free face preserves collapsibility whenever
    deleting a smaller one does. The flag exists for differential
    testing.
    """
    if d < 1:
        raise DimensionRangeError(f"collapsing parameter d must be >= 1, got {d}")

    def candidates(c: SimplicialComplex) -> list[int]:
        free = _free_faces_up_to_size(c, d)
        if prune_to_maximal:
            free = list(maximal_elements(free))
        return sorted(free)

    if cx.is_void:
        return FreeSequence(KIND_COLLAPSE, d, ())
    nodes = 0
    dead: set[tuple[int, ...]] = set()
    frames: list[tuple[SimplicialComplex, object, int]] = [(cx, iter(candidates(cx)), 0)]
    while frames:
        cur, it, _ = frames[-1]
        e = next(it, None)
        if e is None:
            dead.add(cur.facets)
            frames.pop()
            continue
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(f"collapsing search exceeded the node budget ({budget})")
        nxt = cur.delete_all(e)
        if nxt.is_void:
            return FreeSequence(KIND_COLLAPSE, d, tuple(fr[2] for fr in frames[1:]) + (e,))
        if nxt.facets in dead:
            continue
        frames.append((nxt, iter(candidates(nxt)), e))
    return None


def is_d_chordal(cx: SimplicialComplex, d: int, *, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether the d-closure admits a simplicial order (or already is
    the full (d-1)-skeleton)."""
    closure = d_closure(cx, d)
    return find_simplicial_order(closure, d, budget=budget) is not None


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
    t = min(f.bit_count() for f in nonfaces) - 1
    s = max(f.bit_count() for f in nonfaces) - 1
    r = cx.dim
    return (max(1, t), min(r, s))


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
    """
    if d < 1:
        return False
    cur = cx
    if seq.kind == KIND_COLLAPSE:
        for e in seq.faces:
            if e.bit_count() > d:
                return False
            if sum(1 for f in cur.facets if e & ~f == 0) != 1:
                return False
            cur = cur.delete_all(e)
        return cur.is_void
    if seq.kind == KIND_SIMPLICIAL_ORDER:
        if not is_d_closure(cx, d):
            return False
        target = simplex_skeleton(cx.n, cx.ambient, d - 1).facets
        for e in seq.faces:
            if e.bit_count() != d or e in cur.facets:
                return False
            if sum(1 for f in cur.facets if e & ~f == 0) != 1:
                return False
            cur = cur.face_deletion(e)
        return cur.facets == target
    return False
