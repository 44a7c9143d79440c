"""Checkers for the structured families of componentwise linear ideals
and the bridges between them (exchange conditions, shifting, vertex
decomposability, the nested-block form, and the σ pipeline).

Vertex decomposability recurses on facet masks, not on complexes: the
deletion and the link of a vertex are read off the facet masks, and
whether a vertex sheds, like the verdict itself, depends on the facets
alone and not on the ambient set a subcomplex lives on, so the memo of
decided subcomplexes is keyed by the facets and no complex is built
below the one given.
"""

from __future__ import annotations

from .betti import BOTH_FIELDS, is_componentwise_linear, linear_by_field
from .bitsets import iter_vertices, maximal_elements
from .chordality import has_chordal_complex
from .complexes import SimplicialComplex
from .errors import DEFAULT_BUDGET, NotStronglyStableError, VertexRangeError, ZeroIdealError
from .ideals import (
    Monomial,
    MonomialIdeal,
    SquarefreeIdeal,
    squarefree_operator,
    stanley_reisner_complex,
)
from .values import Value


def _exchange_closed(gens: tuple[int, ...], among: int, top_only: bool) -> bool:
    """Whether x_i·u/x_j stays in the ideal generated by `gens` for each
    generator u, each j in u (only the largest when `top_only`), and each
    i < j in the mask `among` that is not in u.

    Generators suffice: a member C of the ideal lies above a generator
    u, and for j in C and i < j outside C, the set C - j + i lies above
    u - j + i when j is in u (i is outside u, and j is the top of u if
    it is the top of C), and above u otherwise."""
    for u in gens:
        for j in iter_vertices((1 << u.bit_length()) >> 1 if top_only else u):
            base = u & ~(1 << (j - 1))
            for i in iter_vertices(among & ~u & ((1 << (j - 1)) - 1)):
                swapped = base | 1 << (i - 1)
                if not any(g & ~swapped == 0 for g in gens):
                    return False
    return True


def is_squarefree_stable(ideal: SquarefreeIdeal) -> bool:
    """Exchange check: the top variable of any generator can be swapped
    for any smaller unused one without leaving the ideal."""
    if ideal.is_zero:
        raise ZeroIdealError("stability of the zero ideal is undefined")
    return _exchange_closed(ideal.gens, (1 << ideal.n) - 1, True)


def is_squarefree_strongly_stable(ideal: SquarefreeIdeal) -> bool:
    """Exchange check over every variable of every minimal generator."""
    if ideal.is_zero:
        raise ZeroIdealError("stability of the zero ideal is undefined")
    return _exchange_closed(ideal.gens, (1 << ideal.n) - 1, False)


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
    """Whether trading any vertex of a face for a larger one of the
    ambient set A stays in the complex.

    This is the strongly stable exchange of the ideal generated by the
    facet complements A - F, among the vertices of A. A set G in A is a
    face iff its complement C = A - G contains some A - F, i.e. lies in
    that ideal; and G - i + j, for i in G and j > i in A outside G, is
    the complement of C - j + i, for j in C and i < j in A outside C. So
    every exchange of the complex stays a face iff every exchange of the
    ideal stays in it. The void complex has no facets and is shifted.
    """
    amb = cx.ambient
    return _exchange_closed(tuple(amb & ~f for f in cx.facets), amb, False)


def _shedding_split(
    facets: tuple[int, ...], bit: int
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The facets of the deletion and of the link of the vertex whose
    mask is `bit`, when it is a shedding vertex of the complex with these
    facets, else None. The deletion's faces are the faces missing the
    vertex, so its facets are the maximal sets F - v; the link's are the
    pieces F - v of the facets F containing it, which no antichain
    reduction needs (see `SimplicialComplex.link`) and which keep the
    ascending order of the facets. Both are as `delete_all` and `link`
    give them."""
    deletion = maximal_elements(f & ~bit for f in facets)
    link = tuple(f ^ bit for f in facets if f & bit)
    if any(g & ~f == 0 for g in deletion for f in link):
        return None
    return deletion, link


def shedding_vertices(cx: SimplicialComplex) -> list[int]:
    """Vertices whose link has no face among the facets of the deletion,
    tested on the facet masks by the split `is_vertex_decomposable`
    recurses on."""
    verts = cx.vertices()
    if not verts:
        raise VertexRangeError("the complex has no vertices")
    return [v for v in verts if _shedding_split(cx.facets, 1 << (v - 1)) is not None]


def is_vertex_decomposable(cx: SimplicialComplex) -> bool:
    """Recursive test: a simplex (void and {∅} included), or some
    shedding vertex whose deletion and link are both decomposable.

    The recursion runs on facet tuples, split by `_shedding_split`, and
    builds no complex. The ambient set never enters it: the vertices
    tried are those of the facets, and the deletion, the link and the
    shedding test are read off the facets alone. So a memo keyed by the
    facets decides each subcomplex once, whatever set it lives on."""
    memo: dict[tuple[int, ...], bool] = {}

    def rec(facets: tuple[int, ...]) -> bool:
        if facets not in memo:
            union = 0
            for f in facets:
                union |= f
            memo[facets] = len(facets) <= 1 or any(
                split is not None and rec(split[0]) and rec(split[1])
                for split in (_shedding_split(facets, 1 << (v - 1)) for v in iter_vertices(union))
            )
        return memo[facets]

    return rec(cx.facets)


class GotzmannDecomposition(Value):
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

    _fields = ("blocks",)

    def __init__(self, blocks: tuple[tuple[int, tuple[int, ...]], ...]):
        object.__setattr__(self, "blocks", blocks)

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


def gotzmann_decomposition(ideal: SquarefreeIdeal) -> GotzmannDecomposition | None:
    """Constructive factorization into the nested-block form; None when
    the ideal does not fit it. The factorization is canonical: each
    block monomial is forced to be the common support of the remaining
    generators. Each pass peels off one block and passes on the
    residuals of more than one variable."""
    if ideal.is_zero:
        raise ZeroIdealError("the zero ideal has no block decomposition")
    if len(ideal.gens) == 1 and ideal.gens[0].bit_count() == 1:
        return GotzmannDecomposition(((0, (ideal.gens[0].bit_length(),)),))
    blocks: list[tuple[int, tuple[int, ...]]] = []
    gens = list(ideal.gens)
    while gens:
        common = gens[0]
        for g in gens[1:]:
            common &= g
        if blocks and common == 0:
            return None
        residual = [g & ~common for g in gens]
        if 0 in residual:
            # the generator equal to `common` divides all others, so the
            # antichain forces a single generator: the principal tail. It
            # has degree >= 2: the first pass never meets a lone variable,
            # and the residuals passed on have at least two variables each.
            assert common.bit_count() >= 2
            blocks.append((common, ()))
            break
        zs = tuple(sorted(r.bit_length() for r in residual if r.bit_count() == 1))
        gens = [r for r in residual if r.bit_count() > 1]
        if gens and not zs:
            return None  # every non-final block needs at least one z
        # a single generator leaves a zero residual (handled above), and the
        # distinct residuals of two or more give two or more z; so a final
        # block never has exactly one z, which keeps the canonical form
        assert gens or len(zs) >= 2
        blocks.append((common, zs))
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


def classify(ideal: SquarefreeIdeal, *, budget: int = DEFAULT_BUDGET) -> dict:
    """One-stop report over the implication chain of families.

    `shifted` and `vertex_decomposable` are reported for the Alexander
    dual of the ideal's complex, where they sit in the chain (dual
    shifted <=> strongly stable => stable => chordal complex, and dual
    vertex decomposable => chordal complex => componentwise linear).
    Componentwise linearity is reported over GF(2) and char 0, and char
    0 takes a GF(2) "true" without a walk of its own: every Betti number
    over Q is at most the one over GF(2) (see the `betti` module), so
    only an ideal that fails over GF(2) is walked again over Q.
    Square-free stable and Gotzmann ideals, and the ideals of duals of
    vertex decomposable complexes, have linear quotients in each degree
    component, and a component whose generators the greedy of
    `betti._linear_quotients` can order is decided linear without a
    walk (see `betti.nonlinear_witness`).

    Chordality is decided from the generators (`has_chordal_complex`):
    they are the minimal nonfaces of the complex, so they fix the range
    of d, and the order search for each d reads only the generator-free
    (d+1)-subsets of [n], so neither the Stanley-Reisner complex nor a
    Berge transversal is computed. It is searched for, never read off
    the family verdicts, so the report shows the implications rather
    than assuming them. `budget` bounds each listing of (d+1)-subsets,
    by their count comb(n, d+1) before it runs, each order search, by
    its nodes, and each LCM lattice that the componentwise linearity
    check walks, by its members.

    The dual's facets are the complements in [n] of the generators, so
    `is_shifted` on it runs the very exchange of
    `is_squarefree_strongly_stable` (see `is_shifted`), and one check
    gives both entries.
    """
    if ideal.is_zero:
        raise ZeroIdealError("the zero ideal is not classified")
    strongly_stable = is_squarefree_strongly_stable(ideal)
    return {
        "stable": is_squarefree_stable(ideal),
        "strongly_stable": strongly_stable,
        "shifted": strongly_stable,
        "vertex_decomposable": is_vertex_decomposable(_alexander_dual_of(ideal)),
        "gotzmann": gotzmann_decomposition(ideal) is not None,
        "chordal": has_chordal_complex(ideal, budget=budget),
        "componentwise_linear": linear_by_field(
            is_componentwise_linear, ideal, BOTH_FIELDS, budget=budget
        ),
    }
