"""Square-free monomial ideals, the Stanley-Reisner correspondence, and
the square-free operator on (not necessarily square-free) monomial ideals.

A square-free monomial is identified with its support mask, so a
SquarefreeIdeal is an antichain of masks under inclusion (= divisibility).
General monomials are exponent tuples; they only enter through the
square-free operator and its strongly stable inputs.
"""

from __future__ import annotations

import re
from collections.abc import Iterable

from .bitsets import (
    minimal_elements,
    minimal_transversals,
    subsets_of_size,
    vertices_from_mask,
)
from .complexes import MAX_VERTICES, SimplicialComplex, as_mask
from .errors import (
    DimensionRangeError,
    FormatError,
    VertexRangeError,
    VoidComplexError,
    ZeroIdealError,
)
from .values import Value


class SquarefreeIdeal(Value):
    """Minimal square-free generating set over variables x1..xn.

    `gens` is a tuple of support masks, inclusion-minimal (no generator
    divides another), sorted by (degree, mask). The zero ideal has no
    generators; the unit ideal is not representable (a generator with
    empty support is rejected).
    """

    _fields = ("n", "gens")

    def __init__(self, n: int, gens: Iterable = ()):
        if not 1 <= n <= MAX_VERTICES:
            raise VertexRangeError(f"variable count must be in 1..{MAX_VERTICES}, got {n}")
        full = (1 << n) - 1
        masks = []
        for g in gens:
            m = as_mask(g)
            if m == 0:
                raise ZeroIdealError("a generator with empty support would make the unit ideal")
            if m & ~full:
                raise VertexRangeError(
                    f"generator {vertices_from_mask(m)} uses variables outside 1..{n}"
                )
            masks.append(m)
        reduced = sorted(minimal_elements(masks), key=lambda m: (m.bit_count(), m))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gens", tuple(reduced))

    @classmethod
    def zero(cls, n: int) -> "SquarefreeIdeal":
        return cls(n, ())

    @property
    def is_zero(self) -> bool:
        return not self.gens

    def degrees(self) -> tuple[int, ...]:
        return tuple(g.bit_count() for g in self.gens)

    def min_degree(self) -> int:
        if self.is_zero:
            raise ZeroIdealError("the zero ideal has no generator degrees")
        return min(self.degrees())

    def max_degree(self) -> int:
        if self.is_zero:
            raise ZeroIdealError("the zero ideal has no generator degrees")
        return max(self.degrees())

    def contains(self, monomial) -> bool:
        """Membership of a square-free monomial, given by support."""
        m = as_mask(monomial)
        return any(g & ~m == 0 for g in self.gens)

    def with_generator(self, monomial) -> "SquarefreeIdeal":
        """The ideal I + (x_E), with the generating set re-minimized."""
        m = as_mask(monomial)
        return SquarefreeIdeal(self.n, self.gens + (m,))

    def __repr__(self) -> str:
        body = ", ".join(
            "*".join(f"x{v}" for v in vertices_from_mask(g)) for g in self.gens
        )
        return f"SquarefreeIdeal(n={self.n}, ({body}))"


def stanley_reisner_ideal(cx: SimplicialComplex) -> SquarefreeIdeal:
    """Ideal generated by the minimal nonfaces of the complex."""
    if cx.is_void:
        raise VoidComplexError("the void complex has no Stanley-Reisner ideal")
    if cx.ambient != (1 << cx.n) - 1:
        raise VertexRangeError("Stanley-Reisner ideal needs a complex ambient on all of 1..n")
    return SquarefreeIdeal(cx.n, cx.minimal_nonfaces())


def stanley_reisner_complex(ideal: SquarefreeIdeal) -> SimplicialComplex:
    """Complex whose faces are the supports outside the ideal.

    Facets are complements of the minimal transversals of the generator
    supports, which inverts `stanley_reisner_ideal` exactly.
    """
    full = (1 << ideal.n) - 1
    trans = minimal_transversals(ideal.gens)
    return SimplicialComplex._raw(ideal.n, full, tuple(sorted(full & ~t for t in trans)))


def degree_component(ideal: SquarefreeIdeal, j: int) -> SquarefreeIdeal:
    """Square-free degree-j component: all degree-j square-free members.

    Each member of degree j is a generator g of degree <= j together
    with j - deg(g) further variables, so the component is built as
    {g ∪ S : |g ∪ S| = j}, never from all j-subsets of the variables.
    """
    if j < 1:
        raise DimensionRangeError(f"degree component needs j >= 1, got {j}")
    full = (1 << ideal.n) - 1
    gens: set[int] = set()
    for g in ideal.gens:
        if g.bit_count() <= j:
            gens.update(g | s for s in subsets_of_size(full & ~g, j - g.bit_count()))
    return SquarefreeIdeal(ideal.n, gens)


def truncation_leq(ideal: SquarefreeIdeal, k: int) -> SquarefreeIdeal:
    """Subideal generated by the generators of degree <= k."""
    if k < 0:
        raise DimensionRangeError(f"truncation needs k >= 0, got {k}")
    return SquarefreeIdeal(ideal.n, [g for g in ideal.gens if g.bit_count() <= k])


# -- general monomials and the square-free operator ----------------------


class Monomial(Value):
    """A monomial as an exponent tuple of fixed length n."""

    _fields = ("exponents",)

    def __init__(self, exponents: Iterable[int]):
        exps = tuple(int(e) for e in exponents)
        if any(e < 0 for e in exps):
            raise FormatError("exponents must be nonnegative")
        object.__setattr__(self, "exponents", exps)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def max_index(self) -> int:
        """m(u): the largest variable index dividing u (0 if u = 1)."""
        for i in range(len(self.exponents) - 1, -1, -1):
            if self.exponents[i]:
                return i + 1
        return 0

    def divides(self, other: "Monomial") -> bool:
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def __repr__(self) -> str:
        parts = [
            f"x{i}" if e == 1 else f"x{i}^{e}"
            for i, e in enumerate(self.exponents, start=1)
            if e
        ]
        return "*".join(parts) if parts else "1"


class MonomialIdeal(Value):
    """Monomial ideal given by its minimal generators (exponent tuples)."""

    _fields = ("n", "gens")

    def __init__(self, n: int, gens: Iterable[Monomial] = ()):
        if not 1 <= n <= MAX_VERTICES:
            raise VertexRangeError(f"variable count must be in 1..{MAX_VERTICES}, got {n}")
        mons = []
        for g in gens:
            m = g if isinstance(g, Monomial) else Monomial(g)
            if len(m.exponents) != n:
                raise VertexRangeError("generator exponent vector has the wrong length")
            if m.degree == 0:
                raise ZeroIdealError("the unit generator 1 is not allowed")
            mons.append(m)
        # drop generators divisible by another generator
        mons = sorted(set(mons), key=lambda m: (m.degree, m.exponents))
        kept: list[Monomial] = []
        for m in mons:
            if not any(k.divides(m) for k in kept):
                kept.append(m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gens", tuple(kept))

    @property
    def is_zero(self) -> bool:
        return not self.gens

    def max_degree(self) -> int:
        if self.is_zero:
            raise ZeroIdealError("the zero ideal has no generator degrees")
        return max(g.degree for g in self.gens)

    def contains(self, monomial: Monomial) -> bool:
        return any(g.divides(monomial) for g in self.gens)

    def __repr__(self) -> str:
        return f"MonomialIdeal(n={self.n}, ({', '.join(map(repr, self.gens))}))"


def sigma_image(monomial: Monomial) -> int:
    """Support mask of u^σ = x_{i1} x_{i2+1} ··· x_{it+(t-1)}, where
    u = x_{i1}···x_{it} with i1 <= ... <= it. The e factors of x_i that
    follow t' earlier factors land on the run of e bits from bit i - 1 + t'."""
    m = 0
    before = 0
    for i, e in enumerate(monomial.exponents):
        m |= ((1 << e) - 1) << (i + before)
        before += e
    return m


def squarefree_operator(ideal: MonomialIdeal) -> SquarefreeIdeal:
    """Apply σ to every minimal generator.

    The output lives in n + maxdeg - 1 variables (the exact index shift,
    no padding). For strongly stable inputs the σ-images are already an
    antichain; dominance reduction covers arbitrary inputs.
    """
    if ideal.is_zero:
        return SquarefreeIdeal.zero(ideal.n)
    n_out = ideal.n + ideal.max_degree() - 1
    if n_out > MAX_VERTICES:  # checked before a mask of n_out bits is built
        raise VertexRangeError(f"variable count must be in 1..{MAX_VERTICES}, got {n_out}")
    return SquarefreeIdeal(n_out, [sigma_image(g) for g in ideal.gens])


# -- text format ---------------------------------------------------------

_TOKEN_RE = re.compile(r"^x([0-9]+)(?:\^([0-9]+))?$")
_HEADER_RE = re.compile(r"^n\s*=\s*([0-9]+)$")


def _bounded(digits: str, lineno: int, what: str) -> int:
    """A variable index or n= value, which must lie in 1..MAX_VERTICES.
    The digits are measured before they are converted, so a huge value
    is rejected without building a mask or list of its size."""
    stripped = digits.lstrip("0")
    if not stripped or len(stripped) > len(str(MAX_VERTICES)) or int(stripped) > MAX_VERTICES:
        raise FormatError(f"line {lineno}: {what} must be in 1..{MAX_VERTICES}")
    return int(stripped)


def _exponent(digits: str, lineno: int) -> int:
    try:
        exp = int(digits)
    except ValueError as exc:  # more digits than int() converts
        raise FormatError(f"line {lineno}: exponent {digits[:20]}... is too long") from exc
    if exp < 1:
        raise FormatError(f"line {lineno}: exponent must be >= 1")
    return exp


def _parse_lines(text: str) -> tuple[int, list[list[tuple[int, int]]]]:
    """The variable count and the (variable, exponent) factors of each
    line. Without an n= header the count is the largest variable seen."""
    n_header = None
    rows: list[list[tuple[int, int]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        header = _HEADER_RE.match(line)
        if header:
            if n_header is not None:
                raise FormatError(f"line {lineno}: duplicate n= header")
            n_header = _bounded(header.group(1), lineno, "n=")
            continue
        factors = []
        for token in re.split(r"[\s*]+", line):
            if not token:
                continue
            m = _TOKEN_RE.match(token)
            if not m:
                raise FormatError(f"line {lineno}: bad monomial token {token!r}")
            var = _bounded(m.group(1), lineno, "variable index")
            exp = _exponent(m.group(2), lineno) if m.group(2) else 1
            factors.append((var, exp))
        if not factors:
            raise FormatError(f"line {lineno}: empty monomial")
        rows.append(factors)
    max_var = max((var for factors in rows for var, _ in factors), default=0)
    if n_header is None:
        if max_var == 0:
            raise FormatError("cannot infer the variable count; add an n= header")
        n_header = max_var
    if max_var > n_header:
        raise FormatError(f"variable x{max_var} exceeds the declared n={n_header}")
    return n_header, rows


def parse_squarefree_ideal(text: str) -> SquarefreeIdeal:
    """One square-free monomial per line ("x3 x5" or "x3*x5"); lines
    starting with '#' are comments; an optional "n=5" header fixes the
    ambient size (default: the largest variable index seen)."""
    n, rows = _parse_lines(text)
    masks = []
    for factors in rows:
        mask = 0
        for var, exp in factors:
            if exp != 1:
                raise FormatError(f"exponent on x{var}: input must be square-free")
            bit = 1 << (var - 1)
            if mask & bit:
                raise FormatError(f"repeated variable x{var}: input must be square-free")
            mask |= bit
        masks.append(mask)
    return SquarefreeIdeal(n, masks)


def parse_monomial_ideal(text: str) -> MonomialIdeal:
    """Like `parse_squarefree_ideal` but accepting exponents ("x1^2*x3")."""
    n, rows = _parse_lines(text)
    gens = []
    for factors in rows:
        exps = [0] * n
        for var, exp in factors:
            exps[var - 1] += exp
        gens.append(Monomial(exps))
    return MonomialIdeal(n, gens)


def format_squarefree_ideal(ideal: SquarefreeIdeal) -> str:
    lines = [f"n={ideal.n}"]
    for g in ideal.gens:
        lines.append("*".join(f"x{v}" for v in vertices_from_mask(g)))
    return "\n".join(lines) + "\n"
