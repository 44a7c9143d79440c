"""Bitmask combinatorics for faces.

A face (subset of {1..n}) is an int with bit i-1 set iff vertex i belongs
to the face; the empty face is 0. Everything downstream (facet lists,
ideal generators, nonfaces) is built out of these masks.
"""

from itertools import combinations
from typing import Iterable, Iterator


def mask_from_vertices(vertices: Iterable[int]) -> int:
    """Pack 1-based vertex labels into a mask. No range checks here."""
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def vertices_from_mask(mask: int) -> tuple[int, ...]:
    """Unpack a mask into sorted 1-based vertex labels."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def iter_vertices(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def subsets_of_size(mask: int, k: int) -> Iterator[int]:
    """All submasks of `mask` with exactly k bits."""
    if k == 0:
        yield 0
        return
    bits = [1 << (v - 1) for v in iter_vertices(mask)]
    for combo in combinations(bits, k):
        m = 0
        for b in combo:
            m |= b
        yield m


def maximal_elements(masks: Iterable[int]) -> tuple[int, ...]:
    """Inclusion-maximal masks, deduplicated, ascending.

    Distinct masks of equal size never contain one another, so each mask
    is compared only with the kept masks of strictly larger size.
    """
    uniq = sorted(set(masks), key=lambda m: (m.bit_count(), m), reverse=True)
    kept: list[int] = []
    larger: list[int] = []
    size = -1
    for m in uniq:
        if m.bit_count() != size:
            size = m.bit_count()
            larger = kept[:]
        if not any(m & ~k == 0 for k in larger):
            kept.append(m)
    return tuple(sorted(kept))


def minimal_elements(masks: Iterable[int]) -> tuple[int, ...]:
    """Inclusion-minimal masks, deduplicated, ascending.

    Distinct masks of equal size never contain one another, so each mask
    is compared only with the kept masks of strictly smaller size.
    """
    uniq = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    kept: list[int] = []
    smaller: list[int] = []
    size = -1
    for m in uniq:
        if m.bit_count() != size:
            size = m.bit_count()
            smaller = kept[:]
        if not any(k & ~m == 0 for k in smaller):
            kept.append(m)
    return tuple(sorted(kept))


def minimal_transversals(edges: Iterable[int]) -> tuple[int, ...]:
    """Inclusion-minimal hitting sets of a family of masks (Berge).

    An empty edge is unhittable, so its presence yields no transversals.
    The empty family has the single transversal 0.
    """
    trans: tuple[int, ...] = (0,)
    for e in edges:
        nxt: list[int] = []
        for t in trans:
            if t & e:
                nxt.append(t)
            else:
                for v in iter_vertices(e):
                    nxt.append(t | (1 << (v - 1)))
        trans = minimal_elements(nxt)
        if not trans:
            break
    return trans
