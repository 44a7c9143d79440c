"""Seeded corpora for the four workloads.

Everything here is the benchmark's own code: it imports nothing from
`srchordal` or from the test suite, so neither a library change nor a
test change can shift a workload. Each generator takes a
`random.Random` built from the run's seed and returns plain data; the
program only ever sees the input files written from that data.

Instances are kept or redrawn only on properties computed here (vertex
coverage, facet sizes, face counts), never on the program's verdict.
Faces and generators are bitmasks: bit v-1 stands for vertex or
variable v.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations, product


def mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def verts(m: int) -> list[int]:
    return [v for v in range(1, m.bit_length() + 1) if m >> (v - 1) & 1]


def minimal(masks) -> list[int]:
    """Inclusion-minimal members, deduplicated, sorted by (size, mask)."""
    kept: list[int] = []
    for m in sorted(set(masks), key=lambda x: (x.bit_count(), x)):
        if not any(k & ~m == 0 for k in kept):
            kept.append(m)
    return kept


def maximal(masks) -> list[int]:
    kept: list[int] = []
    for m in sorted(set(masks), key=lambda x: (-x.bit_count(), x)):
        if not any(m & ~k == 0 for k in kept):
            kept.append(m)
    return sorted(kept)


def contains(gens, m: int) -> bool:
    return any(g & ~m == 0 for g in gens)


def all_subsets(full: int):
    sub = full
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & full


# -- ideals ------------------------------------------------------------------


def stable_ideal(rng: random.Random, n: int, max_deg: int = 4) -> list[int]:
    """Minimal generators of a square-free stable ideal using all of x1..xn.

    Random seeds of degree 2..max_deg, one of them holding x_n, are
    closed under the exchange x_i * u / x_max(u). Every variable below
    the largest one in use is then used too, so the Stanley-Reisner
    complex has no cone point.
    """
    top = 1 << (n - 1)
    while True:
        seeds = {mask(rng.sample(range(1, n), rng.randint(1, max_deg - 1))) | top}
        for _ in range(rng.randint(0, 2)):
            seeds.add(mask(rng.sample(range(1, n + 1), rng.randint(2, max_deg))))
        gens = minimal(seeds)
        grew = True
        while grew:
            grew = False
            for g in list(gens):
                hi = g.bit_length()
                base = g & ~(1 << (hi - 1))
                for i in range(1, hi):
                    cand = base | (1 << (i - 1))
                    if not g >> (i - 1) & 1 and not contains(gens, cand):
                        gens = minimal(gens + [cand])
                        grew = True
        if max(g.bit_length() for g in gens) == n:
            return gens


def gotzmann_ideal(rng: random.Random, n: int, max_blocks: int = 3) -> list[int]:
    """Minimal generators of a Gotzmann ideal in nested-block form
    m1(Z1) + m1m2(Z2) + ... + m1...ms(Zs) whose blocks use all n
    variables (Hoefel-Mermin). Every block monomial is nonempty, so all
    generators have degree >= 2; the last block is either a principal
    tail (Zs empty) or has |Zs| >= 2."""
    while True:
        pool = list(range(1, n + 1))
        rng.shuffle(pool)
        s = rng.randint(1, max_blocks)
        gens: list[int] = []
        prefix = 0
        ok = True
        for k in range(s):
            last = k == s - 1
            m_size = rng.randint(1, 2)
            if last:
                z_size = len(pool) - m_size
                if z_size == 1:
                    m_size, z_size = m_size + 1, 0
            else:
                z_size = rng.randint(1, 3)
            if z_size < 0 or m_size + z_size > len(pool):
                ok = False
                break
            prefix |= mask(pool.pop() for _ in range(m_size))
            zs = [pool.pop() for _ in range(z_size)]
            if zs:
                gens.extend(prefix | (1 << (z - 1)) for z in zs)
            elif prefix.bit_count() >= 2:
                gens.append(prefix)
            else:
                ok = False
        if ok and not pool and len(gens) >= 2:
            return minimal(gens)


def split_ideal(rng: random.Random, n: int, d: int) -> list[int]:
    """A sparse ideal that is not componentwise linear by construction.

    Its lowest-degree generators are k >= 2 monomials of degree d >= 2
    with pairwise disjoint supports, so its degree-d square-free
    component is a complete intersection with a syzygy in degree 2d,
    off the linear strand. Sparse random generators of degree d+1..d+2
    follow, drawn until every variable is used (no cone point).
    """
    while True:
        pool = rng.sample(range(1, n + 1), n)
        k = rng.randint(2, min(3, n // d))
        low = [mask(pool[i * d : (i + 1) * d]) for i in range(k)]
        high = []
        while True:
            used = 0
            for g in low + high:
                used |= g
            if used == (1 << n) - 1 or len(high) > n:
                break
            missing = [v for v in range(1, n + 1) if not used >> (v - 1) & 1]
            size = rng.randint(d + 1, d + 2)
            vs = {rng.choice(missing)} | set(rng.sample(range(1, n + 1), size - 1))
            while len(vs) < size:
                vs.add(rng.randint(1, n))
            high.append(mask(vs))
        gens = minimal(low + high)
        used = 0
        for g in gens:
            used |= g
        if used == (1 << n) - 1 and sum(g.bit_count() == d for g in gens) == k:
            return gens


# -- complexes ---------------------------------------------------------------


def sr_facets(n: int, gens: list[int]) -> list[int]:
    """Facets of the Stanley-Reisner complex: maximal subsets of [n]
    that contain no generator, found by brute force over all subsets."""
    faces = [s for s in all_subsets((1 << n) - 1) if not contains(gens, s)]
    return maximal(faces)


def vd_complex(rng: random.Random, n: int) -> list[int]:
    """Facets of a vertex decomposable complex on all of [n] that is
    neither a simplex nor a cone.

    Start from a simplex F0; add each further vertex v with the single
    new facet S + v, where S is a proper subset of an existing facet.
    Then v is a shedding vertex whose link is the simplex on S and
    whose deletion is the previous complex, so vertex decomposability
    holds by induction.
    """
    while True:
        order = rng.sample(range(1, n + 1), n)
        k0 = rng.randint(n - 4, n - 3)
        facets = [mask(order[:k0])]
        for v in order[k0:]:
            host = rng.choice(facets)
            host_vs = verts(host)
            size = max(0, len(host_vs) - rng.choice((1, 1, 1, 2)))
            facets.append(mask(rng.sample(host_vs, size)) | (1 << (v - 1)))
        common = (1 << n) - 1
        for f in facets:
            common &= f
        if common == 0:
            return sorted(facets)


def vd_dual_ideal(rng: random.Random, n: int) -> list[int]:
    """Generators of I(Γ^∨) for a vertex decomposable Γ from `vd_complex`:
    the complements of Γ's facets. The complex Γ^∨ is chordal (the
    paper's theorem), and its Alexander dual, Γ, is vertex decomposable
    by construction."""
    full = (1 << n) - 1
    return minimal(full & ~f for f in vd_complex(rng, n))


def closure_faces(n: int, facets: list[int], d: int) -> set[int]:
    """All faces of the d-closure: every subset of [n] with at most d
    elements, and the faces of size >= d+1 from `closure_top_faces`."""
    small = {s for s in all_subsets((1 << n) - 1) if s.bit_count() <= d}
    return small | closure_top_faces(facets, d)


def deciding_range(gens: list[int], facets: list[int]) -> tuple[int, int]:
    """The interval of d that decides chordality: from the smallest
    minimal nonface size minus one to min(dim, largest nonface size
    minus one). For a Stanley-Reisner complex the minimal nonfaces are
    the generators."""
    dim = max(f.bit_count() for f in facets) - 1
    sizes = [g.bit_count() for g in gens]
    return max(1, min(sizes) - 1), min(dim, max(sizes) - 1)


def octahedron(six: list[int]) -> list[int]:
    """The eight triangles of the octahedral 2-sphere whose opposite
    vertex pairs are (six[0], six[1]), (six[2], six[3]), (six[4], six[5])."""
    return sorted(mask(t) for t in product(six[0:2], six[2:4], six[4:6]))


def planted_complex(rng: random.Random, n: int, extra_faces: int) -> list[int]:
    """Facets of an octahedron on six random vertices plus random extra
    facets of size 2..4 that never hold three of those six vertices.

    The induced subcomplex on the six vertices is then the octahedron in
    every 2-closure, so H~_2 of an induced subcomplex is nonzero and the
    complex is not 2-chordal (Wegner; the paper's equivalence). Extra
    facets are added until the 2-closure has exactly `extra_faces` faces
    of size >= 3 outside the octahedron, starting over when a facet
    overshoots: that count bounds the states the exhaustive search can
    reach (at most 2^extra_faces), and fixing it keeps the cost of one
    instance near that of another.
    """
    while True:
        six = rng.sample(range(1, n + 1), 6)
        six_mask = mask(six)
        octa = octahedron(six)
        facets = list(octa)
        while True:
            size = rng.choice((2, 3, 3, 3, 4))
            f = mask(rng.sample(range(1, n + 1), size))
            if (f & six_mask).bit_count() > 2:
                continue
            facets.append(f)
            count = len(closure_top_faces(facets, 2)) - len(octa)
            if count >= extra_faces:
                break
        if count == extra_faces:
            return maximal(facets)


def closure_top_faces(facets: list[int], d: int) -> set[int]:
    """Faces of size >= d+1 of the d-closure: the complex's (d+1)-sets,
    then, level by level, each set one larger all of whose one-smaller
    subsets are on the level below. A candidate is grown only from its
    subset without its largest vertex, so each is tested once."""
    universe = 0
    level = set()
    for f in facets:
        universe |= f
        level.update(mask(c) for c in combinations(verts(f), d + 1))
    out = set(level)
    while level:
        nxt = set()
        for a in level:
            for v in verts(universe >> a.bit_length() << a.bit_length()):
                cand = a | (1 << (v - 1))
                if all(cand & ~(1 << (u - 1)) in level for u in verts(a)):
                    nxt.add(cand)
        out |= nxt
        level = nxt
    return out


def budget_gadget(gadgets: int = 12) -> list[int]:
    """A fixed planted instance on 10 vertices whose 2-chordality
    refutation needs at least 2^gadgets search nodes.

    Octahedron on 1..6 (pairs 1-2, 3-4, 5-6) plus `gadgets` <= 12
    triangles {a, x, w}, a in 1..6, x in {7, 8}, w in {9, 10}, with
    (a, x) distinct. The edge ax lies in no other triangle, so each
    triangle can be deleted through it whatever else is gone: all
    2^gadgets subsets of them are reachable states, none reaches the
    1-skeleton, and an exhaustive refutation enters every one. No four
    vertices span four triangles, so the 2-closure adds nothing.
    """
    tris = [mask((k % 6 + 1, 7 + k // 6, 9 + k % 2)) for k in range(gadgets)]
    return sorted(octahedron([1, 2, 3, 4, 5, 6]) + tris)


# -- the workloads -----------------------------------------------------------


@dataclass
class Op:
    """One CLI call and what the checks need to know about its input.

    `argv` follows the input path; `kind` names the construction, which
    fixes the verdicts known in advance ("budget" marks the one
    operation allowed to exhaust its node budget).
    """

    command: str
    argv: tuple[str, ...]
    kind: str
    n: int
    gens: list[int] = field(default_factory=list)
    facets: list[int] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def input_text(self) -> str:
        if self.command in ("betti", "cwl", "classify"):
            lines = [f"n={self.n}"] + ["*".join(f"x{v}" for v in verts(g)) for g in self.gens]
            return "\n".join(lines) + "\n"
        return json.dumps({"n": self.n, "facets": [verts(f) for f in self.facets]})


def betti_corpus(rng: random.Random) -> list[Op]:
    """`betti` (GF(2)) on every ideal, `cwl` on the split ideals, whose
    verdict (false) is known by construction."""
    ops: list[Op] = []
    plan = [(10, "split", 42), (10, "stable", 8), (10, "gotzmann", 8), (11, "split", 2)]
    for n, kind, count in plan:
        for _ in range(count):
            if kind == "split":
                gens = split_ideal(rng, n, rng.choice((2, 2, 3)))
            elif kind == "stable":
                gens = stable_ideal(rng, n)
            else:
                gens = gotzmann_ideal(rng, n)
            ops.append(Op("betti", (), kind, n, gens))
            if kind == "split":
                ops.append(Op("cwl", (), kind, n, gens))
    return ops


def classify_corpus(rng: random.Random) -> list[Op]:
    """`classify` on the three families and on split ideals.

    The families are drawn in 7 variables, with two instances in 8 per
    family, so that the median and the 90th percentile both fall inside
    the 7-variable family group rather than on the edge between groups
    of unlike cost."""
    ops: list[Op] = []
    for kind in ("stable", "gotzmann", "vd_dual"):
        for n in [7] * 38 + [8] * 2:
            if kind == "stable":
                gens = stable_ideal(rng, n)
            elif kind == "gotzmann":
                gens = gotzmann_ideal(rng, n)
            else:
                gens = vd_dual_ideal(rng, n)
            ops.append(Op("classify", (), kind, n, gens))
    for n in [7, 8] * 20:
        ops.append(Op("classify", (), "split", n, split_ideal(rng, n, 2)))
    return ops


def certify_corpus(rng: random.Random) -> list[Op]:
    """`chordal` over the deciding range on complexes the paper proves
    chordal, and `collapsible --d` on one d-closure from that range.

    Duals of vertex decomposable complexes on 9 vertices, drawn until
    their deciding range holds exactly two values of d, are two thirds
    of the operations, with d the upper one; the
    Stanley-Reisner complexes of stable and one-block Gotzmann ideals on
    10-11 vertices are the fast third."""
    ops: list[Op] = []
    plan = [("vd_dual", [9] * 64), ("stable", [10, 11] * 8), ("gotzmann", [10, 11] * 8)]
    for kind, sizes in plan:
        for n in sizes:
            if kind == "stable":
                gens = stable_ideal(rng, n, max_deg=3)
            elif kind == "gotzmann":
                gens = gotzmann_ideal(rng, n, max_blocks=1)
            else:
                gens = vd_dual_ideal(rng, n)
            facets = sr_facets(n, gens)
            lo, hi = deciding_range(gens, facets)
            while kind == "vd_dual" and hi - lo != 1:
                gens = vd_dual_ideal(rng, n)
                facets = sr_facets(n, gens)
                lo, hi = deciding_range(gens, facets)
            ops.append(Op("chordal", (), kind, n, gens, facets, extra={"range": (lo, hi)}))
            if lo <= hi:
                d = min(lo + 1, hi)
                closure = maximal(closure_faces(n, facets, d))
                ops.append(Op("collapsible", ("--d", str(d)), kind, n, gens, closure, extra={"d": d}))
    return ops


REFUTE_BUDGET = 2000
BUDGET_GADGETS = 12
PLANTED_EXTRA_FACES = 6


def refute_corpus(rng: random.Random) -> list[Op]:
    """Seeded planted instances, then one fixed instance that exhausts
    the stated node budget (2^12 reachable states against 2000 nodes):
    the same input in the same place for every seed, so the failed
    share of every run is exactly 1 in 481."""
    ops = []
    for n in [8, 9, 10] * 160:
        facets = planted_complex(rng, n, PLANTED_EXTRA_FACES)
        ops.append(Op("chordal", ("--d", "2"), "planted", n, facets=facets))
    ops.append(
        Op("chordal", ("--d", "2", "--budget", str(REFUTE_BUDGET)), "budget", 10,
           facets=budget_gadget(BUDGET_GADGETS))
    )
    return ops


CORPORA = {
    "betti": betti_corpus,
    "classify": classify_corpus,
    "certify": certify_corpus,
    "refute": refute_corpus,
}
