"""Field homology of complexes and graded Betti tables of ideals.

Indexing and conventions, fixed once and used everywhere:

* Reduced homology is returned as a map {degree: dim} for degrees
  -1..dim. The void complex has no homology at all (empty map); the
  empty complex {∅} has dim 1 in degree -1 and nothing else.
* Betti tables are keyed by (homological index i, internal degree j),
  so a d-linear resolution means every nonzero key satisfies j = i + d.
* By Hochster's formula, the degree-(j-2) reduced homology of the
  restriction to W of the associated complex contributes to the entry
  (|W| - j, |W|). Only the LCM lattice of I, the unions of generator
  supports, can contribute (Gasharov-Peeva-Welker 1999): every other
  restriction is a cone (see `betti_table`).

One walk over the LCM lattice serves every question asked here. It
closes the generator supports under union, counting the members
against a budget (`SearchBudgetExceeded` when they outnumber it), and
yields each W whose restriction has nonzero homology. `betti_table` sums what
it yields; `nonlinear_witness` stops at the first entry off the
diagonal, which decides `has_linear_resolution`; and
`is_componentwise_linear` asks that of the square-free degree
components up to the top generator degree.

Unit anchors for the conventions: the ideal (x1) in one variable has
the single entry (0, 1) -> 1, and (x1*x2) in two variables has
(0, 2) -> 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .bitsets import iter_vertices, maximal_elements
from .complexes import SimplicialComplex
from .errors import (
    DEFAULT_BUDGET,
    FormatError,
    NotEquigeneratedError,
    SearchBudgetExceeded,
    ZeroIdealError,
)
from .ideals import SquarefreeIdeal, degree_component, stanley_reisner_complex
from .linalg import gf2_rank, gfp_rank, int_rank

_PRIME_LIMIT = 1 << 31


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: characteristic 0 (exact rationals) or GF(p)."""

    characteristic: int

    def __post_init__(self):
        c = self.characteristic
        if c == 0:
            return
        if not (2 <= c < _PRIME_LIMIT and _is_prime(c)):
            raise FormatError(f"field characteristic must be 0 or a prime < 2^31, got {c}")

    @property
    def label(self) -> str:
        return "char0" if self.characteristic == 0 else f"gf{self.characteristic}"

    @classmethod
    def parse(cls, label: str) -> "FieldSpec":
        s = label.strip().lower()
        if s in ("char0", "q", "0"):
            return cls(0)
        if s.startswith("gfp:"):
            s = "gf" + s[4:]
        if s.startswith("gf"):
            try:
                return cls(int(s[2:]))
            except ValueError as exc:
                raise FormatError(f"bad field label {label!r}") from exc
        raise FormatError(f"bad field label {label!r}")


GF2 = FieldSpec(2)
CHAR0 = FieldSpec(0)


def _boundary_rank(lower: list[int], upper: list[int], field: FieldSpec) -> int:
    """Rank of the boundary map from the span of `upper` faces to `lower`."""
    if not lower or not upper:
        return 0
    index = {f: i for i, f in enumerate(lower)}
    if field.characteristic == 2:
        rows = []
        for face in upper:
            vec = 0
            for v in iter_vertices(face):
                vec |= 1 << index[face & ~(1 << (v - 1))]
            rows.append(vec)
        return gf2_rank(rows)
    rows = []
    for face in upper:
        vec = [0] * len(lower)
        sign = 1
        for v in iter_vertices(face):
            vec[index[face & ~(1 << (v - 1))]] = sign
            sign = -sign
        rows.append(vec)
    if field.characteristic == 0:
        return int_rank(rows)
    return gfp_rank(rows, field.characteristic)


def reduced_homology_dims(cx: SimplicialComplex, field: FieldSpec = GF2) -> dict[int, int]:
    """Dimensions of reduced homology in each degree -1..dim.

    The void complex returns {} (identically zero); {∅} returns {-1: 1}.
    """
    if cx.is_void:
        return {}
    top = cx.dim
    faces: dict[int, list[int]] = {-1: [0]}
    for k in range(0, top + 1):
        faces[k] = cx.faces_of_dim(k)
    ranks: dict[int, int] = {}
    for k in range(0, top + 1):
        ranks[k] = _boundary_rank(faces[k - 1], faces[k], field)
    ranks[top + 1] = 0
    out: dict[int, int] = {}
    out[-1] = 1 - ranks.get(0, 0)
    for k in range(0, top + 1):
        out[k] = len(faces[k]) - ranks[k] - ranks[k + 1]
    return out


@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers; zero entries are absent from `entries`."""

    entries: tuple[tuple[tuple[int, int], int], ...]
    field: FieldSpec

    @classmethod
    def from_dict(cls, entries: dict[tuple[int, int], int], field: FieldSpec) -> "BettiTable":
        items = tuple(sorted((k, v) for k, v in entries.items() if v))
        return cls(items, field)

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.entries)

    def entry(self, i: int, j: int) -> int:
        return self.as_dict().get((i, j), 0)

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def regularity(self) -> int:
        if not self.entries:
            raise ZeroIdealError("regularity of an empty Betti table")
        return max(j - i for (i, j), _ in self.entries)

    def projective_dimension(self) -> int:
        if not self.entries:
            raise ZeroIdealError("projective dimension of an empty Betti table")
        return max(i for (i, _), _ in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "field": self.field.label,
            "entries": [
                {"i": i, "j": j, "beta": b} for (i, j), b in self.entries
            ],
        }

    def pretty(self) -> str:
        """Grid with rows indexed by the shifted degree j-i, columns by i."""
        if not self.entries:
            return "(empty table)"
        table = self.as_dict()
        imax = max(i for i, _ in table)
        shifts = sorted({j - i for i, j in table})
        width = max(len(str(b)) for b in table.values())
        width = max(width, len(str(imax)), 1) + 2
        header = "      " + "".join(str(i).rjust(width) for i in range(imax + 1))
        lines = [header]
        for t in range(shifts[0], shifts[-1] + 1):
            cells = []
            for i in range(imax + 1):
                b = table.get((i, i + t), 0)
                cells.append((str(b) if b else ".").rjust(width))
            lines.append(f"{t}:".rjust(6) + "".join(cells))
        return "\n".join(lines)


def _lattice_homology(
    ideal: SquarefreeIdeal, field: FieldSpec, budget: int
) -> Iterator[tuple[int, dict[int, int]]]:
    """Yield (W, {h: dim}) for each member W of the LCM lattice whose
    restriction of the associated complex has nonzero reduced homology,
    keeping only the nonzero dimensions; W ascends.

    The lattice is closed under union first, one generator at a time,
    and more than `budget` members raise `SearchBudgetExceeded` before
    any homology is computed. A caller that stops early skips the
    homology of the remaining members.
    """
    lattice: set[int] = set()
    for g in ideal.gens:
        lattice |= {w | g for w in lattice}
        lattice.add(g)
        if len(lattice) > budget:
            raise SearchBudgetExceeded(
                f"the LCM lattice exceeded the member budget ({budget})"
            )
    cx = stanley_reisner_complex(ideal)
    for w in sorted(lattice):
        induced_facets = maximal_elements(f & w for f in cx.facets)
        sub = SimplicialComplex._raw(ideal.n, w, induced_facets)
        homology = {h: dim for h, dim in reduced_homology_dims(sub, field).items() if dim}
        if homology:
            yield w, homology


def betti_table(
    ideal: SquarefreeIdeal, field: FieldSpec = GF2, *, budget: int = DEFAULT_BUDGET
) -> BettiTable:
    """Graded Betti numbers of a nonzero square-free monomial ideal.

    Sums induced-subcomplex homology of the associated complex Δ over
    the LCM lattice of the ideal, the unions of generator supports.
    No other vertex set W contributes: if some v in W lies in no
    generator contained in W, then for every face F of Δ_W the set
    F ∪ {v} contains no generator either, so it is a face. Δ_W is then
    a cone with apex v and acyclic over every field. A lattice of more
    than `budget` members raises `SearchBudgetExceeded`.
    """
    if ideal.is_zero:
        raise ZeroIdealError("the zero ideal has no Betti table")
    entries: dict[tuple[int, int], int] = {}
    for w, homology in _lattice_homology(ideal, field, budget):
        m = w.bit_count()
        for h, dim in homology.items():
            # W contains a generator, so faces of Δ_W have at most
            # m - 1 vertices, h <= m - 2 and the index i is >= 0.
            key = (m - h - 2, m)
            entries[key] = entries.get(key, 0) + dim
    return BettiTable.from_dict(entries, field)


def nonlinear_witness(
    ideal: SquarefreeIdeal, field: FieldSpec = GF2, *, budget: int = DEFAULT_BUDGET
) -> tuple[int, int] | None:
    """The first Betti entry off the diagonal j = i + d, or None.

    Requires the ideal to be generated in one degree d. The witness is
    (W, i): the vertex mask W of a member of the LCM lattice whose
    restriction of the associated complex has homology giving a nonzero
    entry (i, |W|) with |W| != i + d, the first such W in ascending
    mask order. No homology is computed past it. A lattice of more than
    `budget` members raises `SearchBudgetExceeded`.
    """
    if ideal.is_zero:
        raise ZeroIdealError("the zero ideal has no resolution")
    degs = set(ideal.degrees())
    if len(degs) != 1:
        raise NotEquigeneratedError(f"generators in degrees {sorted(degs)}; need a single degree")
    d = degs.pop()
    for w, homology in _lattice_homology(ideal, field, budget):
        m = w.bit_count()
        for h in homology:
            if h != d - 2:  # i = m - h - 2, so j = m equals i + d iff h = d - 2
                return w, m - h - 2
    return None


def has_linear_resolution(
    ideal: SquarefreeIdeal, field: FieldSpec = GF2, *, budget: int = DEFAULT_BUDGET
) -> bool:
    """True iff all syzygies stay on the single diagonal j = i + d.

    Requires the ideal to be generated in one degree d; see
    `nonlinear_witness`, whose budget it shares.
    """
    return nonlinear_witness(ideal, field, budget=budget) is None


def is_componentwise_linear(
    ideal: SquarefreeIdeal, field: FieldSpec = GF2, *, budget: int = DEFAULT_BUDGET
) -> bool:
    """True iff every nonzero square-free degree component is linear.

    For square-free monomial ideals this decides componentwise
    linearity of the ideal itself (Herzog-Hibi, "Componentwise linear
    ideals", 1999), so no polynomial degree pieces are ever formed.
    Each component gets its own lattice budget.

    Only the components I_[j] with min_degree <= j <= max_degree are
    checked; each of them is nonzero. From the top generator degree D
    on, linearity carries over from I_[j] to I_[j+1] for every j >= D,
    over any field:

    * I_[j+1] = (I_[j])_[j+1]. A square-free u of degree j+1 in I is a
      multiple of a generator g of degree <= D <= j, so dropping a
      variable of u outside g leaves a member of I_[j] that divides u.
    * Write J = I_[j], generated by square-free monomials of degree j,
      and Δ(·) for the Stanley-Reisner complex. A set of at least j+1
      vertices contains a degree-(j+1) member of J iff it contains a
      generator of J, so Δ(J_[j+1]) is Δ(J) together with every set of
      at most j vertices. Its nonfaces are the nonfaces of Δ(J) with at
      least j+1 vertices, and taking complements, the Alexander dual of
      Δ(J_[j+1]) is the (n-j-2)-skeleton of Δ(J)^∨.
    * Eagon-Reiner: a square-free ideal has a linear resolution over a
      field iff the Alexander dual of its complex is Cohen-Macaulay over
      that field. Skeletons of Cohen-Macaulay complexes are
      Cohen-Macaulay over the same field (by Reisner's criterion: links
      of a skeleton are skeletons of links, and a k-skeleton keeps the
      homology below degree k). So if J is linear, so is J_[j+1], which
      is I_[j+1].

    By induction every I_[j] with j >= D is linear once I_[D] is.
    """
    if ideal.is_zero:
        raise ZeroIdealError("the zero ideal is not classified")
    for j in range(ideal.min_degree(), ideal.max_degree() + 1):
        comp = degree_component(ideal, j)
        if not has_linear_resolution(comp, field, budget=budget):
            return False
    return True


def regularity(table: BettiTable) -> int:
    return table.regularity()
