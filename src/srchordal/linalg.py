"""Exact ranks of sparse matrices over GF(2), GF(p) and the rationals.

Rows are sparse. A GF(2) row is a bitmask int, bit c set iff column c
holds a 1. A GF(p) or rational row is a dict {column: entry} of integer
entries; absent columns are zero. A boundary row of a face then costs
as much as the face has vertices, whatever the width of the matrix.

Every routine eliminates on the leading (lowest) column: a row is
reduced against the pivot stored under its leading column until it is
zero or leads in a column with no pivot yet, where it becomes the pivot.
`gf2_rank` keys its pivots by their lowest set bit and XORs into a row
the pivot under the row's own lowest bit. Both hold that bit and
neither holds a lower one, so the XOR clears it and sets none below it:
each step strictly raises the row's lowest bit, and a row meets only
the pivots it must add, not every pivot found before it. `gfp_rank` and
`int_rank` key dict rows by their least column in the same way. In
every routine the pivots lead in distinct columns, so they are
independent: in any nonzero combination of them, the least of their
leading columns is held by one pivot alone, since the others are zero
below their own leading columns. Every row reduced to zero lies in
their span, so their count is the rank.

No floating point anywhere; Betti numbers are integers over a fixed
field and must be computed exactly. Over the rationals the updates are
fraction-free: a row leading with a meets a pivot leading with b as
row <- row - (a/b)*pivot when b divides a, and as
row <- b*row - a*pivot otherwise. Each is an invertible row operation
over Q (b != 0), so the rank is unchanged, and Python ints neither
round nor overflow. A row is divided by the gcd of its entries after
every step that scaled it, and a new pivot is too. That keeps entries
small on the boundary matrices ranked here, whose entries are 0 and
±1, but it is no size bound: unlike dense Bareiss, whose entries are
all minors, nothing caps the growth on adversarial integer matrices.
"""

from __future__ import annotations

from math import gcd


def gf2_rank(rows: list[int]) -> int:
    """Rank over GF(2) of rows given as bitmask ints.

    Pivots are kept under their lowest set bit. Each row XORs in the
    pivot under its own lowest bit, which raises that bit, until the row
    is zero or its lowest bit has no pivot, where it becomes one. The
    pivots have distinct lowest bits, so they are independent, and every
    row lies in their span: the rank is exact.
    """
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            low = row & -row
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = row
                break
            row ^= pivot
    return len(pivots)


def gfp_rank(rows: list[dict[int, int]], p: int) -> int:
    """Rank over GF(p), p prime, of sparse rows {column: entry}."""
    pivots: dict[int, dict[int, int]] = {}
    for given in rows:
        row = {c: x % p for c, x in given.items() if x % p}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(row[lead], -1, p)
                pivots[lead] = {c: x * inv % p for c, x in row.items()}
                break
            q = row[lead]
            for c, x in pivot.items():
                v = (row.get(c, 0) - q * x) % p
                if v:
                    row[c] = v
                else:
                    del row[c]
    return len(pivots)


def int_rank(rows: list[dict[int, int]]) -> int:
    """Rank over the rationals of sparse integer rows {column: entry},
    by fraction-free elimination."""
    pivots: dict[int, dict[int, int]] = {}
    for given in rows:
        row = {c: x for c, x in given.items() if x}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            a = row[lead]
            if pivot is None:
                if a != 1 and a != -1:
                    g = gcd(*row.values())
                    if g > 1:
                        row = {c: x // g for c, x in row.items()}
                pivots[lead] = row
                break
            b = pivot[lead]
            scaled = a % b
            if scaled:
                row = {c: b * x for c, x in row.items()}
                q = a
            else:
                q = a // b
            for c, x in pivot.items():
                v = row.get(c, 0) - q * x
                if v:
                    row[c] = v
                else:
                    del row[c]
            if scaled and row:
                g = gcd(*row.values())
                if g > 1:
                    row = {c: x // g for c, x in row.items()}
    return len(pivots)
