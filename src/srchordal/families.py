"""Checkers for the structured families of componentwise linear ideals
and the bridges between them (exchange conditions, shifting, vertex
decomposability, the nested-block form, and the σ pipeline).
"""

from __future__ import annotations

from dataclasses import dataclass

from .betti import CHAR0, GF2, is_componentwise_linear
from .bitsets import iter_vertices
from .chordality import DEFAULT_BUDGET, is_chordal
from .complexes import SimplicialComplex
from .errors import NotStronglyStableError, VertexRangeError, ZeroIdealError
from .ideals import (
    Monomial,
    MonomialIdeal,
    SquarefreeIdeal,
    squarefree_operator,
    stanley_reisner_complex,
)


def is_squarefree_stable(ideal: SquarefreeIdeal) -> bool:
    """Exchange check: the top variable of any generator can be swapped
    for any smaller unused one without leaving the ideal. Checking the
    minimal generators suffices."""
    if ideal.is_zero:
        raise ZeroIdealError("stability of the zero ideal is undefined")
    for g in ideal.gens:
        m = g.bit_length()  # largest variable index in the support
        swapped_base = g & ~(1 << (m - 1))
        for i in range(1, m):
            bit = 1 << (i - 1)
            if g & bit:
                continue
            if not ideal.contains(swapped_base | bit):
                return False
    return True


def is_squarefree_strongly_stable(ideal: SquarefreeIdeal) -> bool:
    """Exchange check over every variable of every minimal generator."""
    if ideal.is_zero:
        raise ZeroIdealError("stability of the zero ideal is undefined")
    for g in ideal.gens:
        for j in iter_vertices(g):
            base = g & ~(1 << (j - 1))
            for i in range(1, j):
                bit = 1 << (i - 1)
                if g & bit:
                    continue
                if not ideal.contains(base | bit):
                    return False
    return True


def is_strongly_stable(ideal: MonomialIdeal) -> bool:
    """Strongly stable exchange for general monomial ideals:
    x_i*(u/x_j) stays in the ideal for every x_j | u and i < j."""
    if ideal.is_zero:
        raise ZeroIdealError("stability of the zero ideal is undefined")
    for g in ideal.gens:
        exps = g.exponents
        for j in range(1, ideal.n + 1):
            if not exps[j - 1]:
                continue
            for i in range(1, j):
                swapped = list(exps)
                swapped[j - 1] -= 1
                swapped[i - 1] += 1
                if not ideal.contains(Monomial(swapped)):
                    return False
    return True


def is_shifted(cx: SimplicialComplex) -> bool:
    """Whether trading any vertex of a face for a larger one stays in
    the complex.

    Facets suffice. Let G lie in a facet F, i be in G and j > i be
    outside G. If j is in F, then G - i + j lies in F; otherwise it
    lies in F - i + j. Either way it is a face once every exchange on
    a facet gives a face.
    """
    for f in cx.facets:
        rest = cx.ambient & ~f
        for i in iter_vertices(f):
            base = f & ~(1 << (i - 1))
            for j in iter_vertices(rest):
                if j > i and not cx.is_face(base | (1 << (j - 1))):
                    return False
    return True


def _shedding_split(
    cx: SimplicialComplex, v: int
) -> tuple[SimplicialComplex, SimplicialComplex] | None:
    """The deletion and the link of v when v is a shedding vertex, else None."""
    deletion = cx.delete_all((v,))
    link = cx.link((v,))
    if any(link.is_face(f) for f in deletion.facets):
        return None
    return deletion, link


def shedding_vertices(cx: SimplicialComplex) -> list[int]:
    """Vertices whose link has no face among the facets of the deletion."""
    verts = cx.vertices()
    if not verts:
        raise VertexRangeError("the complex has no vertices")
    return [v for v in verts if _shedding_split(cx, v) is not None]


def is_vertex_decomposable(cx: SimplicialComplex) -> bool:
    """Recursive test: a simplex (void and {∅} included), or some
    shedding vertex whose deletion and link are both decomposable."""
    memo: dict[tuple[int, tuple[int, ...]], bool] = {}

    def rec(c: SimplicialComplex) -> bool:
        key = (c.ambient, c.facets)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if len(c.facets) <= 1:
            memo[key] = True
            return True
        result = False
        for v in c.vertices():
            split = _shedding_split(c, v)
            if split is not None and rec(split[0]) and rec(split[1]):
                result = True
                break
        memo[key] = result
        return result

    return rec(cx)


@dataclass(frozen=True)
class GotzmannDecomposition:
    """Nested-block form m1(Z1) + m1m2(Z2) + ... + m1···ms(Zs).

    blocks[k] = (mask of m_{k+1}, tuple of z-variables). All supports are
    pairwise disjoint; only the first block may have an empty monomial,
    only the last an empty variable list (a principal tail of degree
    >= 2). A single-variable ideal is the one sanctioned exception and
    has the shape ((0, (v,)),).

    A final block m_s(z) with exactly one z is the principal generator
    m1···ms·z, so it is always written as the principal tail
    (m_s·z, ()). The side condition on a single-z final block therefore
    fixes how an ideal is written, not which ideals are accepted.
    """

    blocks: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def is_single_variable(self) -> bool:
        return len(self.blocks) == 1 and self.blocks[0][0] == 0 and len(self.blocks[0][1]) == 1

    def generators(self) -> tuple[int, ...]:
        """Reconstruct the minimal generating set as support masks."""
        gens: list[int] = []
        prefix = 0
        for m, zs in self.blocks:
            prefix |= m
            if zs:
                gens.extend(prefix | (1 << (z - 1)) for z in zs)
            else:
                gens.append(prefix)
        return tuple(sorted(gens))


def _factor_blocks(gens: list[int], first: bool) -> list[tuple[int, tuple[int, ...]]] | None:
    common = gens[0]
    for g in gens[1:]:
        common &= g
    if not first and common == 0:
        return None
    residual = [g & ~common for g in gens]
    if any(r == 0 for r in residual):
        # the generator equal to `common` divides all others, so the
        # antichain forces a single generator: the principal tail. It
        # has degree >= 2: the caller takes a lone variable, and the
        # residuals passed down have at least two variables each.
        assert common.bit_count() >= 2
        return [(common, ())]
    zs = sorted(r.bit_length() for r in residual if r.bit_count() == 1)
    rest = [r for r in residual if r.bit_count() > 1]
    if rest:
        if not zs:
            return None  # every non-final block needs at least one z
        sub = _factor_blocks(rest, first=False)
        if sub is None:
            return None
        return [(common, tuple(zs))] + sub
    # a single generator leaves a zero residual (handled above), and the
    # distinct residuals of two or more give two or more z; so a final
    # block never has exactly one z, which keeps the canonical form
    assert len(zs) >= 2
    return [(common, tuple(zs))]


def gotzmann_decomposition(ideal: SquarefreeIdeal) -> GotzmannDecomposition | None:
    """Constructive factorization into the nested-block form; None when
    the ideal does not fit it. The factorization is canonical: each
    block monomial is forced to be the common support of the remaining
    generators."""
    if ideal.is_zero:
        raise ZeroIdealError("the zero ideal has no block decomposition")
    if len(ideal.gens) == 1 and ideal.gens[0].bit_count() == 1:
        return GotzmannDecomposition(((0, (ideal.gens[0].bit_length(),)),))
    blocks = _factor_blocks(list(ideal.gens), first=True)
    if blocks is None:
        return None
    return GotzmannDecomposition(tuple(blocks))


def sigma_pipeline(ideal: MonomialIdeal) -> tuple[SquarefreeIdeal, SimplicialComplex]:
    """σ-image of a strongly stable ideal together with its complex."""
    if ideal.is_zero:
        raise ZeroIdealError("the zero ideal has no σ pipeline")
    if not is_strongly_stable(ideal):
        raise NotStronglyStableError("input ideal fails the strongly stable exchange")
    image = squarefree_operator(ideal)
    return image, stanley_reisner_complex(image)


def _alexander_dual_of(ideal: SquarefreeIdeal) -> SimplicialComplex:
    """The Alexander dual of the Stanley-Reisner complex of a nonzero
    ideal. The minimal nonfaces of that complex are the generators, so
    the dual's facets are their complements; no transversal is computed."""
    full = (1 << ideal.n) - 1
    return SimplicialComplex._raw(ideal.n, full, tuple(sorted(full & ~g for g in ideal.gens)))


_CLASSIFY_FIELDS = (GF2, CHAR0)


def classify(ideal: SquarefreeIdeal, *, budget: int = DEFAULT_BUDGET) -> dict:
    """One-stop report over the implication chain of families.

    `shifted` and `vertex_decomposable` are reported for the Alexander
    dual of the ideal's complex, where they sit in the chain (dual
    shifted <=> strongly stable => stable => chordal complex, and dual
    vertex decomposable => chordal complex => componentwise linear).
    Componentwise linearity is reported over GF(2) and char 0.
    `budget` bounds each chordality search, each d-closure and each LCM
    lattice of the componentwise linearity check.

    The dual is shifted exactly when the ideal is square-free strongly
    stable, so one check gives both entries. The dual's facets are the
    complements in [n] of the generators, so G is a face of it iff
    C = [n] - G lies in the ideal; and G - i + j, for i in G and j > i
    outside G, is the complement of C - j + i, for j in C and i < j
    outside C. So every exchange of the dual stays a face iff every
    exchange of the ideal stays in it.
    """
    if ideal.is_zero:
        raise ZeroIdealError("the zero ideal is not classified")
    cx = stanley_reisner_complex(ideal)
    strongly_stable = is_squarefree_strongly_stable(ideal)
    return {
        "stable": is_squarefree_stable(ideal),
        "strongly_stable": strongly_stable,
        "shifted": strongly_stable,
        "vertex_decomposable": is_vertex_decomposable(_alexander_dual_of(ideal)),
        "gotzmann": gotzmann_decomposition(ideal) is not None,
        "chordal": is_chordal(cx, budget=budget),
        "componentwise_linear": {
            f.label: is_componentwise_linear(ideal, f, budget=budget) for f in _CLASSIFY_FIELDS
        },
    }
