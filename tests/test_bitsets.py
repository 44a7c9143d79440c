"""Antichain reductions against brute-force definitions."""

import random

from srchordal.bitsets import maximal_elements, minimal_elements


def brute_minimal(masks):
    uniq = set(masks)
    return tuple(sorted(m for m in uniq if not any(o != m and o & ~m == 0 for o in uniq)))


def brute_maximal(masks):
    uniq = set(masks)
    return tuple(sorted(m for m in uniq if not any(o != m and m & ~o == 0 for o in uniq)))


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
