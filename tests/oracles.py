"""Independent oracles and brute-force references used by the tests.

Nothing here may share algorithmic substance with the code under test:
ranks are done with Fraction or residue Gaussian elimination (not the
library's Bareiss/GF(2) routines), Betti numbers come from Koszul
strands in single multidegrees (not from induced-subcomplex homology),
and the complex references enumerate subsets directly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

from srchordal import Monomial, MonomialIdeal, SimplicialComplex, SquarefreeIdeal
from srchordal.bitsets import iter_vertices


# -- exact rank, independent implementation -------------------------------


def rational_rank(rows: list[list[int]]) -> int:
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    col = 0
    ncols = len(mat[0]) if mat else 0
    while rank < len(mat) and col < ncols:
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank]
        for r in range(rank + 1, len(mat)):
            if mat[r][col]:
                scale = mat[r][col] / prow[col]
                mat[r] = [a - scale * b for a, b in zip(mat[r], prow)]
        rank += 1
        col += 1
    return rank


def modular_rank(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p), by Gaussian elimination on residues."""
    mat = [[x % p for x in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        prow = [x * inv % p for x in mat[rank]]
        mat[rank] = prow
        for r in range(rank + 1, len(mat)):
            if mat[r][col]:
                scale = mat[r][col]
                mat[r] = [(a - scale * b) % p for a, b in zip(mat[r], prow)]
        rank += 1
    return rank


# -- Koszul-strand Betti numbers over Q or GF(p) ----------------------------


def _lcm_multidegrees(gens: list[tuple[int, ...]], n: int) -> set[tuple[int, ...]]:
    """All joins of generator subsets; the minimal free resolution is
    supported on these multidegrees (Taylor complex support)."""
    lcms: set[tuple[int, ...]] = {tuple([0] * n)}
    for g in gens:
        lcms |= {tuple(max(a, b) for a, b in zip(l, g)) for l in lcms}
    lcms.discard(tuple([0] * n))
    return lcms


def koszul_betti(
    gens: list[tuple[int, ...]], n: int, char: int = 0
) -> dict[tuple[int, int], int]:
    """Graded Betti numbers of the monomial ideal module (x^g : g in gens),
    computed as homology of Koszul strands in single multidegrees, over
    the rationals (char = 0) or GF(char)."""

    def in_ideal(mono: tuple[int, ...]) -> bool:
        return any(all(a <= b for a, b in zip(g, mono)) for g in gens)

    out: dict[tuple[int, int], int] = {}
    for alpha in _lcm_multidegrees(gens, n):
        total = sum(alpha)
        support = [k for k in range(n) if alpha[k] > 0]
        bases: dict[int, list[tuple[int, ...]]] = {}
        for p in range(len(support) + 1):
            level = []
            for combo in combinations(support, p):
                reduced = list(alpha)
                for k in combo:
                    reduced[k] -= 1
                if in_ideal(tuple(reduced)):
                    level.append(combo)
            bases[p] = level
        ranks: dict[int, int] = {}
        for p in range(1, len(support) + 1):
            lower = {t: idx for idx, t in enumerate(bases[p - 1])}
            upper = bases[p]
            if not lower or not upper:
                ranks[p] = 0
                continue
            rows = []
            for t in upper:
                vec = [0] * len(lower)
                for pos, k in enumerate(t):
                    rest = t[:pos] + t[pos + 1 :]
                    vec[lower[rest]] = (-1) ** pos
                rows.append(vec)
            ranks[p] = rational_rank(rows) if char == 0 else modular_rank(rows, char)
        ranks[len(support) + 1] = 0
        ranks[0] = 0
        for p in range(len(support) + 1):
            h = len(bases[p]) - ranks[p] - ranks[p + 1]
            if h:
                out[(p, total)] = out.get((p, total), 0) + h
    return out


def koszul_betti_squarefree(ideal: SquarefreeIdeal, char: int = 0) -> dict[tuple[int, int], int]:
    gens = []
    for g in ideal.gens:
        exps = [0] * ideal.n
        for v in iter_vertices(g):
            exps[v - 1] = 1
        gens.append(tuple(exps))
    return koszul_betti(gens, ideal.n, char)


def all_subsets_component(ideal: SquarefreeIdeal, j: int) -> SquarefreeIdeal:
    """I_[j] by definition: every j-subset of the variables that
    contains a generator."""
    gens = []
    for combo in combinations(range(ideal.n), j):
        m = sum(1 << v for v in combo)
        if any(g & ~m == 0 for g in ideal.gens):
            gens.append(m)
    return SquarefreeIdeal(ideal.n, gens)


def unbounded_componentwise_linear(ideal: SquarefreeIdeal, char: int = 0) -> bool:
    """Herzog-Hibi by definition: every nonzero component I_[j], for
    every j up to n, has Koszul-strand Betti numbers only on the
    diagonal j' = i + j, over the rationals (char = 0) or GF(char)."""
    for j in range(1, ideal.n + 1):
        comp = all_subsets_component(ideal, j)
        if comp.is_zero:
            continue
        if any(jj != i + j for i, jj in koszul_betti_squarefree(comp, char)):
            return False
    return True


def koszul_betti_monomial(ideal: MonomialIdeal) -> dict[tuple[int, int], int]:
    return koszul_betti([g.exponents for g in ideal.gens], ideal.n)


# -- Eliahou-Kervaire-style closed form for stable ideals -------------------


def stable_betti(ideal: MonomialIdeal) -> dict[tuple[int, int], int]:
    """beta_{i, deg(u)+i} counts binomial(m(u)-1, i) over minimal
    generators u; valid for (strongly) stable ideals."""
    out: dict[tuple[int, int], int] = {}
    for u in ideal.gens:
        m = u.max_index()
        d = u.degree
        for i in range(m):
            key = (i, d + i)
            out[key] = out.get(key, 0) + comb(m - 1, i)
    return out


# -- brute-force exchange over every member -------------------------------


def brute_exchange_closed(ideal: SquarefreeIdeal, *, strongly: bool) -> bool:
    """The square-free (strongly) stable exchange checked on every
    square-free member of the ideal, not only on its generators: for
    each member u, each j in u (only the largest unless `strongly`) and
    each i < j outside u, the set u - j + i is a member."""
    full = (1 << ideal.n) - 1
    members = {u for u in range(full + 1) if any(g & ~u == 0 for g in ideal.gens)}
    for u in members:
        vs = list(iter_vertices(u))
        for j in vs if strongly else vs[-1:]:
            for i in range(1, j):
                if not u >> (i - 1) & 1 and u - (1 << (j - 1)) + (1 << (i - 1)) not in members:
                    return False
    return True


# -- brute-force complex references ----------------------------------------


def brute_is_shifted(cx: SimplicialComplex) -> bool:
    """Shiftedness checked on every face, not only on facets."""
    faces = brute_face_set(cx)
    for f in faces:
        for i in iter_vertices(f):
            for j in iter_vertices(cx.ambient & ~f):
                if j > i and (f & ~(1 << (i - 1))) | (1 << (j - 1)) not in faces:
                    return False
    return True


def brute_face_set(cx: SimplicialComplex) -> set[int]:
    amb = cx.ambient
    faces = set()
    sub = amb
    while True:
        if any(sub & ~f == 0 for f in cx.facets):
            faces.add(sub)
        if sub == 0:
            break
        sub = (sub - 1) & amb
    return faces


def brute_deletion(cx: SimplicialComplex, e: int, *, keep_e: bool) -> tuple[int, ...]:
    """The facets left after removing every face that contains e (with
    keep_e, every face that properly contains e), by definition: list
    all faces, drop those supersets, and keep the faces that no face
    with one more vertex extends. What is left is still closed under
    subsets, so that is the same as keeping the maximal sets."""
    faces = {f for f in brute_face_set(cx) if f & e != e or (keep_e and f == e)}
    return tuple(sorted(
        f for f in faces if all(f | 1 << v not in faces for v in range(cx.n) if not f >> v & 1)
    ))


def brute_minimal_nonfaces(cx: SimplicialComplex) -> set[int]:
    faces = brute_face_set(cx)
    out = set()
    sub = cx.ambient
    while True:
        if sub not in faces:
            if all((sub & ~(1 << (v - 1))) in faces for v in iter_vertices(sub)):
                out.add(sub)
        if sub == 0:
            break
        sub = (sub - 1) & cx.ambient
    return out


def brute_d_closure(cx: SimplicialComplex, d: int) -> SimplicialComplex:
    faces = brute_face_set(cx)
    amb = cx.ambient
    closure_faces = []
    sub = amb
    while True:
        size = sub.bit_count()
        if size <= d:
            closure_faces.append(sub)
        elif size == d + 1:
            if sub in faces:
                closure_faces.append(sub)
        else:
            vs = list(iter_vertices(sub))
            ok = True
            for combo in combinations(vs, d + 1):
                m = 0
                for v in combo:
                    m |= 1 << (v - 1)
                if m not in faces:
                    ok = False
                    break
            if ok:
                closure_faces.append(sub)
        if sub == 0:
            break
        sub = (sub - 1) & amb
    return SimplicialComplex(cx.n, closure_faces, ambient=amb)


def brute_is_d_collapsible(cx: SimplicialComplex, d: int) -> bool:
    """d-collapsibility by definition, without pruning: the void complex
    is d-collapsible, and so is a complex in which deleting some free
    face with at most d vertices, together with every face above it,
    leaves a d-collapsible complex. Every such face is tried, not only
    the inclusion-maximal ones; failed states are memoized by their
    facets."""
    dead: set[tuple[int, ...]] = set()

    def facets_of(faces: frozenset[int]) -> tuple[int, ...]:
        """The faces that no face with one more vertex contains."""
        return tuple(sorted(
            f for f in faces
            if all(f | 1 << v not in faces for v in range(cx.n) if not f >> v & 1)
        ))

    def collapsible(faces: frozenset[int]) -> bool:
        if not faces:
            return True
        facets = facets_of(faces)
        if facets in dead:
            return False
        for e in sorted(faces):
            if e.bit_count() > d or sum(1 for g in facets if e & ~g == 0) != 1:
                continue
            if collapsible(frozenset(f for f in faces if f & e != e)):
                return True
        dead.add(facets)
        return False

    return collapsible(frozenset(brute_face_set(cx)))
