"""Exact ranks of sparse matrices over GF(2), GF(p) and the rationals.

Rows are sparse. A GF(2) row is a bitmask int, bit c set iff column c
holds a 1. A GF(p) or rational row is a dict {column: entry} of integer
entries; absent columns are zero. A boundary row of a face then costs
as much as the face has vertices, whatever the width of the matrix.

Every routine eliminates on the leading (lowest) column: a row is
reduced against the pivot stored under its leading column until it is
zero or leads in a column with no pivot yet, where it becomes the pivot.
`gf2_pivots` keys its pivots by their lowest set bit and XORs into a
row the pivot under the row's own lowest bit. Both hold that bit and
neither holds a lower one, so the XOR clears it and sets none below it:
each step strictly raises the row's lowest bit, and a row meets only
the pivots it must add, not every pivot found before it. `gfp_pivots`
and `int_rank` key dict rows by their least column in the same way. In
every routine the pivots lead in distinct columns, so they are
independent: in any nonzero combination of them, the least of their
leading columns is held by one pivot alone, since the others are zero
below their own leading columns. Every row reduced to zero lies in
their span, so their count is the rank, and `gf2_rank` and `gfp_rank`
are that count.

The pivots, keyed by lead, are returned for clearing (Chen and Kerber,
"Persistent homology computation with a twist", 2011; Bauer, Kerber
and Reininghaus, "Clear and compress", 2014). Let ∂_s map the chains
on faces of size s to those of size s - 1, the row of a face being its
boundary over the faces one size smaller. When the maps are ranked from
the top size down, the rows of ∂_s at the leads of the pivots found for
∂_{s+1} can be left out, and the rank of ∂_s is unchanged. A pivot of
∂_{s+1} is a field combination of its rows, so it is the boundary of a
chain, and ∂_s of it is zero: Σ_τ x_τ ∂_s τ = 0 over the columns τ
where the pivot holds x_τ. Its lead τ0 is its lowest such column, so
∂_s τ0 is a combination of the ∂_s τ of columns above τ0. Taking the
left-out rows from the highest column down, each lies in the span of
the rows kept and the left-out rows above it, so in the span of the
rows kept. This holds for the pivots of any subset of the rows of
∂_{s+1}, so each map may itself be cleared by the one above, down to
size 1. It holds over each field with that field's own pivots, and
only with them: a GF(2) lead says nothing of a rank over Q, where the
combination it stands for need not exist.

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


def gf2_pivots(rows: list[int]) -> dict[int, int]:
    """Pivots over GF(2) of rows given as bitmask ints, keyed by lead:
    the pivot's lowest set bit, as a one-bit mask.

    Each row XORs in the pivot under its own lowest bit, which raises
    that bit, until the row is zero or its lowest bit has no pivot,
    where it becomes one. The pivots have distinct lowest bits, so they
    are independent, and every row lies in their span: their count is
    the rank.
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
    return pivots


def gf2_rank(rows: list[int]) -> int:
    """Rank over GF(2) of rows given as bitmask ints."""
    return len(gf2_pivots(rows))


def gfp_pivots(rows: list[dict[int, int]], p: int) -> dict[int, dict[int, int]]:
    """Pivots over GF(p), p prime, of sparse rows {column: entry}, keyed
    by lead: the pivot's least column, where it holds 1."""
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
    return pivots


def gfp_rank(rows: list[dict[int, int]], p: int) -> int:
    """Rank over GF(p), p prime, of sparse rows {column: entry}."""
    return len(gfp_pivots(rows, p))


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
