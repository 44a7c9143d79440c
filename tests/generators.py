"""Seeded random instance generators shared by the property and
acceptance suites. Every test fixes its own seed; the generators only
consume the passed-in Random object, so runs are reproducible."""

from __future__ import annotations

import random
from itertools import product
from typing import Iterator

from srchordal import (
    Monomial,
    MonomialIdeal,
    SimplicialComplex,
    SquarefreeIdeal,
    d_closure,
)
from srchordal.bitsets import iter_vertices, mask_from_vertices, vertices_from_mask
from data import RP2_FACETS


def random_complex(
    rng: random.Random,
    max_n: int,
    *,
    min_n: int = 1,
    allow_void: bool = False,
    max_facets: int | None = None,
) -> SimplicialComplex:
    n = rng.randint(min_n, max_n)
    if allow_void and rng.random() < 0.05:
        return SimplicialComplex.void(n)
    if rng.random() < 0.05:
        return SimplicialComplex.empty(n)
    cap = max_facets if max_facets is not None else n + 2
    num = rng.randint(1, cap)
    facets = []
    for _ in range(num):
        size = rng.randint(1, n)
        facets.append(rng.sample(range(1, n + 1), size))
    return SimplicialComplex.from_facets(n, facets)


def random_proper_complex(rng: random.Random, max_n: int, *, min_n: int = 2) -> SimplicialComplex:
    """Non-void complex that is not the full simplex (nonzero ideal)."""
    while True:
        cx = random_complex(rng, max_n, min_n=min_n)
        if cx.facets != (cx.ambient,):
            return cx


def random_small_facet_complex(
    rng: random.Random, min_n: int, max_n: int
) -> SimplicialComplex:
    """Complex on min_n..max_n vertices generated by 1..2n random edges
    and triangles. Unlike `random_complex`, it never draws the full
    simplex when min_n >= 4, so searches on it meet both verdicts."""
    n = rng.randint(min_n, max_n)
    num = rng.randint(1, 2 * n)
    facets = [rng.sample(range(1, n + 1), rng.randint(2, 3)) for _ in range(num)]
    return SimplicialComplex.from_facets(n, facets)


def complex_draws(
    seed: int, second_seed: int, count: int, max_n: int, *, allow_void: bool = False
) -> Iterator[tuple[random.Random, SimplicialComplex]]:
    """`count` draws of `random_complex` from `seed`, which is often the
    full simplex, then `count` draws of `random_small_facet_complex` on
    4..max_n vertices, which never is, from `second_seed`; each with the
    Random it came from. The draws are lazy, so a caller that draws more
    from that Random between two complexes gets from `seed` the very
    draws it got when it drew `random_complex` from `seed` alone."""
    rng = random.Random(seed)
    for _ in range(count):
        yield rng, random_complex(rng, max_n, allow_void=allow_void)
    rng = random.Random(second_seed)
    for _ in range(count):
        yield rng, random_small_facet_complex(rng, 4, max_n)


def plant_hole(rng: random.Random, cx: SimplicialComplex, d: int) -> SimplicialComplex:
    """Add the facets of a 4-cycle (d = 1) or of an octahedron boundary
    (d = 2) on random vertices. Alone, the d-closure of either has no
    simplicial order; the other faces of cx may fill it in."""
    if d == 1:
        a, b, c, e = rng.sample(range(1, cx.n + 1), 4)
        hole = [(a, b), (b, c), (c, e), (e, a)]
    else:
        vs = rng.sample(range(1, cx.n + 1), 6)
        hole = [(x, y, z) for x in vs[0:2] for y in vs[2:4] for z in vs[4:6]]
    return SimplicialComplex.from_facets(cx.n, cx.facets + tuple(map(mask_from_vertices, hole)))


def random_rp2_extension(rng: random.Random, n: int) -> SimplicialComplex:
    """The 6-vertex RP^2 on vertices 1..6 with 1..4 random extra facets
    on n >= 7 vertices. Each joins some vertices above 6 to a face of
    RP^2, so the restriction to 1..6 is still RP^2, whose 2-torsion the
    Betti table of the Stanley-Reisner ideal then shows over GF(2) alone."""
    extra = []
    for _ in range(rng.randint(1, 4)):
        top = rng.sample(range(7, n + 1), rng.randint(1, n - 6))
        extra.append(top + rng.sample(rng.choice(RP2_FACETS), rng.randint(0, 3)))
    return SimplicialComplex.from_facets(n, RP2_FACETS + extra)


def random_ideal(rng: random.Random, max_n: int, *, min_n: int = 2) -> SquarefreeIdeal:
    """Nonzero square-free ideal with a random generator antichain."""
    n = rng.randint(min_n, max_n)
    num = rng.randint(1, n + 1)
    gens = []
    for _ in range(num):
        size = rng.randint(1, n)
        gens.append(rng.sample(range(1, n + 1), size))
    ideal = SquarefreeIdeal(n, gens)
    return ideal


def random_split_ideal(rng: random.Random, n: int, d: int) -> SquarefreeIdeal:
    """Two or three pairwise disjoint generators of degree d >= 2, then up
    to three of higher degree: I_[d] is a complete intersection with a
    syzygy in degree 2d, so the ideal is not componentwise linear."""
    pool = rng.sample(range(1, n + 1), n)
    low = [pool[i * d:(i + 1) * d] for i in range(rng.randint(2, min(3, n // d)))]
    high = [rng.sample(range(1, n + 1), rng.randint(d + 1, n)) for _ in range(rng.randint(0, 3))]
    return SquarefreeIdeal(n, low + high)


def random_d_closure(
    rng: random.Random, max_n: int, max_d: int
) -> tuple[SimplicialComplex, int]:
    cx = random_complex(rng, max_n, min_n=2)
    d = rng.randint(1, max_d)
    return d_closure(cx, d), d


def random_stable_ideal(rng: random.Random, max_n: int) -> SquarefreeIdeal:
    """Close a random generating set under the square-free stable exchange."""
    n = rng.randint(2, max_n)
    num = rng.randint(1, 3)
    gens = set()
    for _ in range(num):
        size = rng.randint(1, n)
        m = 0
        for v in rng.sample(range(1, n + 1), size):
            m |= 1 << (v - 1)
        gens.add(m)
    while True:
        ideal = SquarefreeIdeal(n, gens)
        added = False
        # every square-free member must pass the exchange, so walk all
        # supersets of the generators
        members = set()
        full = (1 << n) - 1
        sub = full
        while True:
            if ideal.contains(sub):
                members.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & full
        for u in members:
            top = u.bit_length()
            base = u & ~(1 << (top - 1))
            for i in range(1, top):
                bit = 1 << (i - 1)
                if u & bit:
                    continue
                v = base | bit
                if v not in members:
                    gens.add(v)
                    added = True
        if not added:
            return ideal


def random_vd_dual_ideal(rng: random.Random, n: int) -> SquarefreeIdeal:
    """The ideal generated by the complements of the facets of a vertex
    decomposable complex Γ on [n], so that Γ is the Alexander dual of its
    Stanley-Reisner complex.

    Γ starts as a simplex on some of the vertices, and each other vertex
    v adds one facet S + v, S a proper subset of a facet already there.
    Then v is a shedding vertex: its link, the simplex on S, has no face
    that is a facet of its deletion, the complex before v."""
    order = rng.sample(range(1, n + 1), n)
    start = rng.randint(1, n - 1)
    facets = [mask_from_vertices(order[:start])]
    for v in order[start:]:
        host = vertices_from_mask(rng.choice(facets))
        kept = rng.sample(host, rng.randint(0, len(host) - 1))
        facets.append(mask_from_vertices(kept) | 1 << (v - 1))
    full = (1 << n) - 1
    return SquarefreeIdeal(n, [full & ~f for f in facets])


def random_shifted_complex(rng: random.Random, max_n: int) -> SimplicialComplex:
    """Close random faces downward and under trading vertices upward."""
    n = rng.randint(2, max_n)
    faces = {0}
    for _ in range(rng.randint(1, 3)):
        size = rng.randint(1, n)
        m = 0
        for v in rng.sample(range(1, n + 1), size):
            m |= 1 << (v - 1)
        faces.add(m)
    changed = True
    while changed:
        changed = False
        for f in list(faces):
            for v in iter_vertices(f):
                down = f & ~(1 << (v - 1))
                if down not in faces:
                    faces.add(down)
                    changed = True
            for i in iter_vertices(f):
                base = f & ~(1 << (i - 1))
                for j in range(i + 1, n + 1):
                    bit = 1 << (j - 1)
                    if f & bit:
                        continue
                    shifted = base | bit
                    if shifted not in faces:
                        faces.add(shifted)
                        changed = True
    return SimplicialComplex(n, faces)


def random_gotzmann_ideal(rng: random.Random, max_n: int) -> SquarefreeIdeal:
    """Build a valid nested-block form forward and return its ideal."""
    while True:
        pool = list(range(1, max_n + 1))
        rng.shuffle(pool)
        blocks: list[tuple[list[int], list[int]]] = []
        s = rng.randint(1, 3)
        ok = True
        for idx in range(s):
            last = idx == s - 1
            min_m = 0 if idx == 0 else 1
            m_size = rng.randint(min_m, 2)
            if last and rng.random() < 0.2:
                r = 0
            else:
                r = rng.randint(0 if last else 1, 3)
                if last and r == 1:
                    r = 2
            if last and r == 0:
                # principal tail: total prefix degree must be >= 2
                prefix_deg = sum(len(m) for m, _ in blocks) + m_size
                if prefix_deg < 2:
                    m_size = 2
            need = m_size + r
            if need > len(pool):
                ok = False
                break
            m_vars = [pool.pop() for _ in range(m_size)]
            z_vars = [pool.pop() for _ in range(r)]
            if not last and r == 0:
                ok = False
                break
            if last and r == 1:
                ok = False
                break
            blocks.append((m_vars, z_vars))
        if not ok or not blocks:
            continue
        if len(blocks) == 1 and not blocks[0][0] and len(blocks[0][1]) <= 1:
            continue
        gens = []
        prefix = 0
        for m_vars, z_vars in blocks:
            for v in m_vars:
                prefix |= 1 << (v - 1)
            if z_vars:
                gens.extend(prefix | (1 << (z - 1)) for z in z_vars)
            else:
                gens.append(prefix)
        if not gens or any(g == 0 for g in gens):
            continue
        return SquarefreeIdeal(max_n, gens)


def random_strongly_stable_monomial_ideal(
    rng: random.Random, n: int, max_deg: int
) -> MonomialIdeal:
    """Close random monomial generators under the strongly stable exchange."""
    gens: list[Monomial] = []
    for _ in range(rng.randint(1, 3)):
        deg = rng.randint(1, max_deg)
        exps = [0] * n
        for _ in range(deg):
            exps[rng.randrange(n)] += 1
        gens.append(Monomial(exps))
    while True:
        ideal = MonomialIdeal(n, gens)
        added = False
        for u in ideal.gens:
            exps = u.exponents
            for j in range(1, n + 1):
                if not exps[j - 1]:
                    continue
                for i in range(1, j):
                    swapped = list(exps)
                    swapped[j - 1] -= 1
                    swapped[i - 1] += 1
                    v = Monomial(swapped)
                    if not ideal.contains(v):
                        gens.append(v)
                        added = True
        if not added:
            return ideal


def random_box_nerve(rng: random.Random, n: int, d: int) -> SimplicialComplex:
    """The nerve of n random boxes in R^d with integer corners in
    [0, 4)^d: box v is a vertex, and a set of boxes is a face when
    they share a point. Boxes with integer corners that meet share an
    integer point (the corner of the meet with the largest lower
    bounds), so the facets are the sets of boxes over each integer point
    of the grid, found by coordinate checks."""
    side = 4
    boxes = []
    for _ in range(n):
        lo = [rng.randrange(side) for _ in range(d)]
        boxes.append([(a, rng.randint(a, side - 1)) for a in lo])
    over_points = []
    for point in product(range(side), repeat=d):
        over_points.append(mask_from_vertices(
            v for v, box in enumerate(boxes, 1)
            if all(a <= x <= b for x, (a, b) in zip(point, box))
        ))
    return SimplicialComplex.from_facets(n, over_points)


def random_free_face_instance(
    rng: random.Random, max_n: int
) -> tuple[SimplicialComplex, int] | None:
    """A proper complex together with a nonempty free face, or None."""
    from srchordal import free_faces

    cx = random_proper_complex(rng, max_n)
    frees = [e for e in free_faces(cx, cx.dim) if e != 0]
    if not frees:
        return None
    return cx, rng.choice(frees)
