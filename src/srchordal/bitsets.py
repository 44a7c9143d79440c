"""Bitmask combinatorics for faces.

A face (subset of {1..n}) is an int with bit i-1 set iff vertex i belongs
to the face; the empty face is 0. Everything downstream (facet lists,
ideal generators, nonfaces) is built out of these masks.
"""

from collections.abc import Iterable, Iterator
from itertools import combinations


def mask_from_vertices(vertices: Iterable[int]) -> int:
    """Pack 1-based vertex labels into a mask. No range checks here."""
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def vertices_from_mask(mask: int) -> tuple[int, ...]:
    """Unpack a mask into sorted 1-based vertex labels."""
    return tuple(iter_vertices(mask))


def iter_vertices(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def subsets_of_size(mask: int, k: int) -> Iterator[int]:
    """All submasks of `mask` with exactly k bits, in the order of
    `combinations` over its bits; distinct single bits sum to their union."""
    return map(sum, combinations([1 << (v - 1) for v in iter_vertices(mask)], k))


def maximal_elements(masks: Iterable[int]) -> tuple[int, ...]:
    """Inclusion-maximal masks, deduplicated, ascending.

    Distinct masks of equal size never contain one another, so each mask
    is compared only with the kept masks of strictly larger size.
    """
    uniq = sorted(set(masks), key=int.bit_count, reverse=True)
    kept: list[int] = []
    larger: list[int] = []
    size = -1
    for m in uniq:
        if m.bit_count() != size:
            size = m.bit_count()
            larger = kept[:]
        for k in larger:
            if m & ~k == 0:
                break
        else:
            kept.append(m)
    return tuple(sorted(kept))


def minimal_elements(masks: Iterable[int]) -> tuple[int, ...]:
    """Inclusion-minimal masks, deduplicated, ascending: complementing in
    u, the union of the masks, reverses inclusion, so these are the
    complements of the maximal complements."""
    masks = set(masks)
    u = 0
    for m in masks:
        u |= m
    return tuple(sorted(u ^ c for c in maximal_elements(u ^ m for m in masks)))


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
