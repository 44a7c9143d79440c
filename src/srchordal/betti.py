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

The walk builds one chain complex and restricts it to each W. It lists
the faces of Δ_U, U being the union of all generator supports and so
the top of the lattice, a vertex at a time: adding vertex v lists G ∪ {v}
for each listed face G that it leaves free of generators. Each face gets
its boundary row over the faces one size smaller, in one column index
per size, and keeps it as the complex grows. For each W it keeps the
faces inside W (f & ~W == 0) and ranks their rows. That is exact: the
boundary of a face inside W lies inside W, so the columns of the other
faces are zero in every kept row. W ascends, so its top vertex never
falls, and the walk lists only the vertices of U up to the top vertex
of the W it has reached: a caller that stops early never pays for the
faces of the rest of Δ_U, of which there may be exponentially many. It
lists Δ_U rather than Δ on all of [n] because a vertex outside U lies in
no generator and is a cone point of Δ: Δ has twice the faces of Δ_U for
each such vertex, none of them inside any W. `reduced_homology_dims`
lists a whole complex from its facets and takes the restriction at its
ambient set.

Over the rationals the walk ranks every boundary map mod 2 first, and
ranks a map over Q only where GF(2) leaves its rank open. This is the
universal coefficient theorem read through ranks, and the rank bound
the rest of the module relies on. The GF(2) boundary rows are the
integer rows mod 2, and a minor that is nonzero mod 2 is a nonzero
integer, so rank_Q ≥ rank_GF(2) for every map, and the reduced homology
over Q is no larger than over GF(2) in every degree. At a size s with
no GF(2) homology, c_s - r_s - r_{s+1} = 0 over both fields (c_s faces
of size s, r_s the rank of the map leaving size s), and neither rank
can have grown over Q. So only a map whose source and target sizes both
carry GF(2) homology needs a rank over Q; that takes 2-torsion, as in
the real projective plane. A char-0 chain therefore keeps the GF(2)
rows alone and builds the signed rows of such a map, for the faces
inside W, only when it ranks it. Over GF(p), p odd, the chain keeps
signed rows and every rank is taken mod p.

The same bound, degree by degree, spares char 0 most of its walks. By
Hochster's formula each Betti number over Q is at most the one over
GF(2), so a resolution that is linear over GF(2) is linear over Q, and
an ideal that is componentwise linear over GF(2) is so over Q.
`linear_by_field` therefore takes a GF(2) "linear" for char 0 as well,
and walks char 0 only after a GF(2) "not linear", which 2-torsion can
give on its own. No such bound ties GF(2) to an odd p, so GF(p) always
gets its own walk, and `betti_table` walks each field it is asked for.

Unit anchors for the conventions: the ideal (x1) in one variable has
the single entry (0, 1) -> 1, and (x1*x2) in two variables has
(0, 2) -> 1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .bitsets import iter_vertices
from .complexes import SimplicialComplex
from .errors import (
    DEFAULT_BUDGET,
    FormatError,
    NotEquigeneratedError,
    SearchBudgetExceeded,
    ZeroIdealError,
)
from .ideals import SquarefreeIdeal, degree_component
from .linalg import gf2_rank, gfp_rank, int_rank

_PRIME_LIMIT = 1 << 31
_FIELD_RE = re.compile(r"gf(?:p:)?([0-9]{1,10})")  # 2^31 has 10 digits


def _is_prime(p: int) -> bool:
    """Primality of p >= 2."""
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
        """char0, q or 0, or gfP or gfp:P, in any case. P is checked to be
        1-10 ASCII digits before it is converted, since int() also takes
        signs, spaces, underscores and the digits of other scripts."""
        s = label.strip().lower()
        if s in ("char0", "q", "0"):
            return cls(0)
        m = _FIELD_RE.fullmatch(s)
        if m is None:
            raise FormatError(f"bad field label {label!r}")
        return cls(int(m.group(1)))


GF2 = FieldSpec(2)
CHAR0 = FieldSpec(0)


def _signed_row(face: int, index: dict[int, int]) -> dict[int, int]:
    """The boundary of a face over the integers as {column: ±1}, its
    faces one size smaller numbered by `index`."""
    row = {}
    sign = 1
    for v in iter_vertices(face):
        row[index[face & ~(1 << (v - 1))]] = sign
        sign = -sign
    return row


class _ChainComplex:
    """The reduced chain complex of a complex, listed face by face and
    restricted to any vertex set.

    `faces[k]` holds the listed faces with k + 1 vertices, and `rows[k]`
    their boundary rows over the faces one size smaller, which are
    numbered in the order they were listed, one numbering per size. The
    rows are in the format the field ranks: bitmasks over GF(2) and over
    the rationals, whose maps are ranked mod 2 first (see the module
    docstring), and dicts from `_signed_row` over odd p. A face is listed
    after its boundary, and a listed face keeps its row and column, so
    the complex can grow a vertex at a time. The restriction to W keeps
    the faces inside W and their rows. The boundary of a face inside W
    lies inside W, so the columns of the faces left out are zero in every
    kept row.
    """

    __slots__ = ("characteristic", "faces", "rows", "columns")

    def __init__(self, field: FieldSpec):
        self.characteristic = field.characteristic
        self.faces: list[list[int]] = []
        self.rows: list[list] = []
        self.columns: list[dict[int, int]] = [{0: 0}]  # by size; the empty face first

    @classmethod
    def of_complex(cls, cx: SimplicialComplex, field: FieldSpec) -> "_ChainComplex":
        chain = cls(field)
        for k in range(cx.dim + 1):
            chain._list(k, cx.faces_of_dim(k))
        return chain

    def _list(self, k: int, faces: list[int]) -> None:
        """List faces with k + 1 vertices, whose boundary faces are listed."""
        if k == len(self.faces):
            self.faces.append([])
            self.rows.append([])
            self.columns.append({})
        index = self.columns[k]
        column = self.columns[k + 1]
        listed = self.faces[k]
        rows = self.rows[k]
        signed = self.characteristic % 2
        for face in faces:
            if signed:
                rows.append(_signed_row(face, index))
            else:
                vec = 0
                for v in iter_vertices(face):
                    vec |= 1 << index[face & ~(1 << (v - 1))]
                rows.append(vec)
            column[face] = len(listed)
            listed.append(face)

    def add_vertex(self, v: int, links: list[int]) -> None:
        """List the faces that vertex v adds to a complex whose faces are
        the sets containing no generator: G ∪ {v} for each listed face G
        (the empty face too) that contains no member of `links`, the
        generators through v with v taken out."""
        bit = 1 << (v - 1)
        old = [0]  # the faces listed before v, one size smaller than the new
        k = 0
        while old:
            new = [f | bit for f in old if all(link & ~f for link in links)]
            if not new:
                break
            old = self.faces[k][:] if k < len(self.faces) else []
            self._list(k, new)
            k += 1

    def reduced_homology(self, w: int) -> dict[int, int]:
        """Reduced homology dimensions of the restriction to W, in each
        degree from -1 to the dimension of the restriction."""
        outside = ~w
        p = self.characteristic
        counts = [1]  # faces inside W by size; the empty face is always there
        ranks = [0]  # ranks of the boundary maps by size of the faces mapped
        for faces, rows in zip(self.faces, self.rows):
            inside = [row for face, row in zip(faces, rows) if not face & outside]
            if not inside:
                break
            counts.append(len(inside))
            ranks.append(gfp_rank(inside, p) if p % 2 else gf2_rank(inside))
        ranks.append(0)
        homology = [counts[s] - ranks[s] - ranks[s + 1] for s in range(len(counts))]
        if p == 0:
            for s in range(1, len(counts)):
                if homology[s - 1] and homology[s]:  # GF(2) homology at both ends
                    index = self.columns[s - 1]
                    ranks[s] = int_rank([
                        _signed_row(face, index)
                        for face in self.faces[s - 1]
                        if not face & outside
                    ])
            homology = [counts[s] - ranks[s] - ranks[s + 1] for s in range(len(counts))]
        return {s - 1: h for s, h in enumerate(homology)}


def reduced_homology_dims(cx: SimplicialComplex, field: FieldSpec = GF2) -> dict[int, int]:
    """Dimensions of reduced homology in each degree -1..dim.

    The void complex returns {} (identically zero); {∅} returns {-1: 1}.
    """
    if cx.is_void:
        return {}
    return _ChainComplex.of_complex(cx, field).reduced_homology(cx.ambient)


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

    def regularity(self) -> int:
        if not self.entries:
            raise ZeroIdealError("regularity of an empty Betti table")
        return max(j - i for (i, j), _ in self.entries)

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
    any homology is computed. The chain complex of Δ_U, U the top of
    the lattice (the union of all supports), is then listed once, a
    vertex at a time as far as the top vertex of the current W, and
    each W ranks the rows of its faces in it. A caller that stops early
    skips the homology of the remaining members and the faces on the
    vertices it never reached.
    """
    lattice: set[int] = set()
    for g in ideal.gens:
        lattice |= {w | g for w in lattice}
        lattice.add(g)
        if len(lattice) > budget:
            raise SearchBudgetExceeded(
                f"the LCM lattice exceeded the member budget ({budget})"
            )
    top = max(lattice)
    chain = _ChainComplex(field)
    listed = 0
    for w in sorted(lattice):
        for v in iter_vertices(top & ((1 << w.bit_length()) - 1) & ~listed):
            bit = 1 << (v - 1)
            chain.add_vertex(v, [g & ~bit for g in ideal.gens if g & bit])
            listed |= bit
        homology = {h: dim for h, dim in chain.reduced_homology(w).items() if dim}
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


def linear_by_field(
    test: Callable[..., bool],
    ideal: SquarefreeIdeal,
    fields: Iterable[FieldSpec],
    *,
    budget: int = DEFAULT_BUDGET,
) -> dict[str, bool]:
    """{field label: test(ideal, field)} for `test` either
    `has_linear_resolution` or `is_componentwise_linear`, in the order of
    `fields`, with char 0 taken from a GF(2) "linear" listed before it.

    The rank bound of the module docstring is why a GF(2) "linear"
    carries over, and why a GF(2) "not linear" does not.
    """
    verdicts: dict[str, bool] = {}
    for field in fields:
        if field == CHAR0 and verdicts.get(GF2.label):
            verdicts[field.label] = True
        else:
            verdicts[field.label] = test(ideal, field, budget=budget)
    return verdicts


def regularity(table: BettiTable) -> int:
    return table.regularity()
