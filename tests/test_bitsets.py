"""Antichains, submasks of one size and minimal transversals against
brute-force definitions."""

import random

from srchordal.bitsets import (
    maximal_elements,
    minimal_elements,
    minimal_transversals,
    subsets_of_size,
)


def brute_minimal(masks):
    uniq = set(masks)
    return tuple(sorted(m for m in uniq if not any(o != m and o & ~m == 0 for o in uniq)))


def brute_maximal(masks):
    uniq = set(masks)
    return tuple(sorted(m for m in uniq if not any(o != m and m & ~o == 0 for o in uniq)))


def brute_transversals(edges):
    union = 0
    for e in edges:
        union |= e
    hitting = [s for s in range(union + 1) if s & ~union == 0 and all(s & e for e in edges)]
    return brute_minimal(hitting)


class TestAntichains:
    def test_against_brute_force(self):
        rng = random.Random(701)
        for _ in range(500):
            n = rng.randint(1, 8)
            masks = [rng.randrange(1 << n) for _ in range(rng.randint(0, 25))]
            if masks and rng.random() < 0.3:
                masks += rng.sample(masks, rng.randint(1, len(masks)))  # duplicates
            assert minimal_elements(masks) == brute_minimal(masks), masks
            assert maximal_elements(masks) == brute_maximal(masks), masks

    def test_equal_size_masks_are_kept_whole(self):
        masks = [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]
        assert minimal_elements(masks + [0b0111]) == tuple(masks)
        assert maximal_elements(masks + [0b0001]) == tuple(masks)
        assert minimal_elements([]) == maximal_elements([]) == ()
        assert minimal_elements([0, 5]) == (0,)
        assert maximal_elements([0, 5]) == (5,)


class TestSubsetsOfSize:
    def test_against_a_filter_over_all_submasks(self):
        rng = random.Random(702)
        masks = [0] + [rng.randrange(1 << rng.randint(1, 9)) for _ in range(200)]
        for mask in masks:
            for k in range(mask.bit_count() + 2):
                got = list(subsets_of_size(mask, k))
                assert len(set(got)) == len(got), (mask, k)
                want = [s for s in range(mask + 1) if s & ~mask == 0 and s.bit_count() == k]
                assert sorted(got) == want, (mask, k)


class TestMinimalTransversals:
    def test_against_brute_force(self):
        rng = random.Random(703)
        for _ in range(300):
            n = rng.randint(1, 7)
            edges = [rng.randrange(1 << n) for _ in range(rng.randint(0, 6))]
            assert minimal_transversals(edges) == brute_transversals(edges), edges

    def test_an_empty_edge_and_the_empty_family(self):
        assert minimal_transversals([0b011, 0, 0b110]) == brute_transversals([0b011, 0]) == ()
        assert minimal_transversals([]) == brute_transversals([]) == (0,)
