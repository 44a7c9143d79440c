"""Sparse exact ranks against the independent dense oracles."""

import random

import pytest

from srchordal.bitsets import iter_vertices
from srchordal.linalg import gf2_rank, gfp_rank, int_rank
from data import RP2_FACETS
from oracles import modular_rank, rational_rank


def sparse(dense):
    return [{c: x for c, x in enumerate(row) if x} for row in dense]


def bitmask(dense):
    return [sum(1 << c for c, x in enumerate(row) if x % 2) for row in dense]


def random_rows(rng):
    """A sparse integer matrix with zero rows, repeated rows, multiples of
    rows, and entries well away from ±1."""
    ncols = rng.randint(1, 9)
    rows = []
    for _ in range(rng.randint(0, 10)):
        roll = rng.random()
        if rows and roll < 0.15:
            rows.append(list(rng.choice(rows)))
        elif rows and roll < 0.3:
            k = rng.choice([-6, -2, 3, 9])
            rows.append([k * x for x in rng.choice(rows)])
        elif roll < 0.4:
            rows.append([0] * ncols)
        else:
            rows.append([
                rng.choice([-12, -3, -2, -1, 1, 2, 3, 4, 5, 7, 30]) if rng.random() < 0.35 else 0
                for _ in range(ncols)
            ])
    return rows


def rp2_boundary_rows(size):
    """Dense boundary matrix of the minimal RP^2 from its faces with
    `size` vertices to those with one fewer."""
    facets = [sum(1 << (v - 1) for v in f) for f in RP2_FACETS]

    def faces_with(k):
        out = set()
        for f in facets:
            for sub in range(f + 1):
                if sub & ~f == 0 and sub.bit_count() == k:
                    out.add(sub)
        return sorted(out)

    lower = {f: i for i, f in enumerate(faces_with(size - 1))}
    rows = []
    for face in faces_with(size):
        row = [0] * len(lower)
        for sign_index, v in enumerate(iter_vertices(face)):
            row[lower[face & ~(1 << (v - 1))]] = (-1) ** sign_index
        rows.append(row)
    return rows


class TestSparseRanks:
    def test_random_rows_against_oracles(self):
        rng = random.Random(601)
        for _ in range(400):
            dense = random_rows(rng)
            rows = sparse(dense)
            assert int_rank(rows) == rational_rank(dense), dense
            for p in (2, 3, 5, 7):
                assert gfp_rank(rows, p) == modular_rank(dense, p), (dense, p)
            assert gf2_rank(bitmask(dense)) == modular_rank(dense, 2), dense

    def test_gf2_wide_sparse_rows_in_any_order(self):
        # Boundary rows number their columns across a whole size of faces,
        # so a few set bits lie far past 64. Duplicate and zero rows, and
        # sums of earlier rows, must not add to the rank in any order.
        rng = random.Random(614)
        for _ in range(150):
            ncols = rng.randint(65, 400)
            columns = rng.sample(range(ncols), rng.randint(1, 12))
            rows = []
            for _ in range(rng.randint(1, 16)):
                roll = rng.random()
                if rows and roll < 0.15:
                    rows.append(rng.choice(rows))
                elif len(rows) > 1 and roll < 0.3:
                    a, b = rng.sample(rows, 2)
                    rows.append(a ^ b)
                elif roll < 0.4:
                    rows.append(0)
                else:
                    k = rng.randint(1, min(4, len(columns)))
                    rows.append(sum(1 << c for c in rng.sample(columns, k)))
            dense = [[row >> c & 1 for c in range(ncols)] for row in rows]
            expected = modular_rank(dense, 2)
            for _ in range(3):
                rng.shuffle(rows)
                assert gf2_rank(rows) == expected, rows

    def test_inputs_are_not_modified(self):
        rows = [{0: 2, 1: 4}, {0: 3, 2: 1}, {1: 6, 2: 9}]
        copy = [dict(r) for r in rows]
        int_rank(rows)
        gfp_rank(rows, 3)
        assert rows == copy

    def test_zero_and_explicit_zero_entries(self):
        assert int_rank([]) == gfp_rank([], 3) == gf2_rank([]) == 0
        assert int_rank([{}, {3: 0}]) == 0
        assert gfp_rank([{0: 3, 1: 6}], 3) == 0
        assert int_rank([{0: 3, 1: 6}]) == 1

    def test_entries_beyond_unit_need_fraction_free_steps(self):
        # The second row's lead 3 is no multiple of the pivot's lead 2.
        dense = [[2, 1, 0], [3, 0, 1], [5, 1, 1]]
        assert int_rank(sparse(dense)) == rational_rank(dense) == 2
        dense = [[2, 1, 0], [3, 0, 1], [5, 1, 2]]
        assert int_rank(sparse(dense)) == rational_rank(dense) == 3

    @pytest.mark.parametrize("size", [2, 3])
    def test_rp2_boundary(self, size):
        dense = rp2_boundary_rows(size)
        rows = sparse(dense)
        assert int_rank(rows) == rational_rank(dense)
        for p in (2, 3):
            assert gfp_rank(rows, p) == modular_rank(dense, p)
        assert gf2_rank(bitmask(dense)) == modular_rank(dense, 2)

    def test_rp2_torsion_shows_only_mod_two(self):
        # 15 edges, 10 triangles: the top boundary has rank 9 mod 2 (H_2 = 1)
        # and rank 10 over Q and mod 3 (H_2 = 0).
        dense = rp2_boundary_rows(3)
        rows = sparse(dense)
        assert gf2_rank(bitmask(dense)) == gfp_rank(rows, 2) == 9
        assert int_rank(rows) == gfp_rank(rows, 3) == 10

    def test_dense_rows_with_large_entries(self):
        # Every lead is far from ±1, so most steps scale the row and then
        # divide it by the gcd of its entries.
        rng = random.Random(613)
        for _ in range(30):
            ncols = rng.randint(6, 12)
            dense = [
                [rng.randint(-40, 40) for _ in range(ncols)]
                for _ in range(rng.randint(6, 12))
            ]
            assert int_rank(sparse(dense)) == rational_rank(dense), dense
