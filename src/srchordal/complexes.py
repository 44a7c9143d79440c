"""Simplicial complexes on {1..n}, stored as facet antichains of bitmasks.

Conventions that matter everywhere downstream:

* The VOID complex (no faces at all) has an empty facet tuple; the
  EMPTY complex {∅} has the single facet 0. They are different values
  with different serializations ("facets": null vs [[]]).
* A complex carries an ambient vertex mask. Fresh complexes are ambient
  on all of [n]; induced subcomplexes keep their original labels and
  record W as the ambient set, and links live on ambient minus the face.
* Values are immutable; every operation returns a new complex, so they
  can be shared and used as memo keys freely.
"""

from __future__ import annotations

from collections.abc import Iterable

from .bitsets import (
    iter_vertices,
    mask_from_vertices,
    maximal_elements,
    minimal_transversals,
    subsets_of_size,
    vertices_from_mask,
)
from .errors import (
    DimensionRangeError,
    FormatError,
    NotAFaceError,
    VertexRangeError,
    VoidComplexError,
)
from .values import Value

MAX_VERTICES = 64


def as_mask(face) -> int:
    """Coerce a face given as a mask or an iterable of vertex labels.
    A label that is not an int (a bool is not one) or is below 1 raises
    VertexRangeError; the bound above is n, which the caller checks."""
    if isinstance(face, int):
        return face
    labels = tuple(face)
    if not all(type(v) is int for v in labels):
        raise VertexRangeError(f"vertex labels must be integers, got {list(labels)}")
    if any(v < 1 for v in labels):
        raise VertexRangeError(f"vertex labels must be >= 1, got {list(labels)}")
    return mask_from_vertices(labels)


class SimplicialComplex(Value):
    """A simplicial complex determined by its facet antichain.

    `facets` is a sorted tuple of masks with no facet contained in
    another. `ambient` is the mask of the vertex universe the complex
    lives on; `n` bounds the labels (1..n, n <= 64) and takes no part in
    equality or hashing.
    """

    _fields = ("n", "ambient", "facets")

    def __init__(self, n: int, facets: Iterable = (), *, ambient: int | None = None):
        if not 1 <= n <= MAX_VERTICES:
            raise VertexRangeError(f"ambient vertex count must be in 1..{MAX_VERTICES}, got {n}")
        full = (1 << n) - 1
        amb = full if ambient is None else ambient
        if amb & ~full:
            raise VertexRangeError("ambient set contains labels outside 1..n")
        masks = []
        for f in facets:
            m = as_mask(f)
            if m & ~amb:
                bad = vertices_from_mask(m & ~amb)
                raise VertexRangeError(f"facet vertices {bad} outside the ambient set")
            masks.append(m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ambient", amb)
        object.__setattr__(self, "facets", maximal_elements(masks))

    @classmethod
    def _raw(cls, n: int, ambient: int, facets: tuple[int, ...]) -> "SimplicialComplex":
        """Internal fast path; `facets` must already be a reduced antichain."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "n", n)
        object.__setattr__(obj, "ambient", ambient)
        object.__setattr__(obj, "facets", facets)
        return obj

    @classmethod
    def from_facets(cls, n: int, facets: Iterable) -> "SimplicialComplex":
        """Complex generated by the given faces; dominated faces are dropped."""
        return cls(n, facets)

    @classmethod
    def void(cls, n: int) -> "SimplicialComplex":
        return cls(n, ())

    @classmethod
    def empty(cls, n: int) -> "SimplicialComplex":
        return cls(n, (0,))

    @classmethod
    def simplex(cls, n: int) -> "SimplicialComplex":
        return cls(n, ((1 << n) - 1,))

    # -- basic structure ------------------------------------------------

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def is_empty_complex(self) -> bool:
        return self.facets == (0,)

    @property
    def dim(self) -> int:
        """Dimension; -1 for {∅} and -2 (sentinel) for the void complex."""
        if self.is_void:
            return -2
        return max(f.bit_count() for f in self.facets) - 1

    def vertices(self) -> tuple[int, ...]:
        """Labels v with {v} a face, ascending."""
        u = 0
        for f in self.facets:
            u |= f
        return vertices_from_mask(u)

    def _coerce_face(self, face) -> int:
        m = as_mask(face)
        if m < 0 or m & ~((1 << self.n) - 1):
            raise VertexRangeError(f"face {face!r} has vertices outside 1..{self.n}")
        return m

    def is_face(self, face) -> bool:
        m = self._coerce_face(face)
        return any(m & ~f == 0 for f in self.facets)

    def faces_of_dim(self, k: int) -> list[int]:
        """All k-dimensional faces, ascending by mask."""
        out: set[int] = set()
        for f in self.facets:
            out.update(subsets_of_size(f, k + 1))
        return sorted(out)

    # -- operations -----------------------------------------------------

    def pure_skeleton(self, i: int) -> "SimplicialComplex":
        """Complex generated by all i-dimensional faces."""
        if self.is_void or not 0 <= i <= self.dim:
            raise DimensionRangeError(f"skeleton dimension {i} outside 0..dim")
        return SimplicialComplex._raw(self.n, self.ambient, tuple(self.faces_of_dim(i)))

    def induced(self, w) -> "SimplicialComplex":
        """Induced subcomplex on W; keeps labels, re-ambients to W."""
        wm = self._coerce_face(w)
        if self.is_void:
            return SimplicialComplex._raw(self.n, wm, ())
        return SimplicialComplex._raw(self.n, wm, maximal_elements(f & wm for f in self.facets))

    def link(self, face) -> "SimplicialComplex":
        """The faces G with G disjoint from the face M and G + M a face.

        Its facets are the pieces F - M of the facets F containing M, and
        no antichain reduction is needed: if F - M lies in F' - M for
        facets F and F' containing M, then F lies in F', so F = F'.
        """
        m = self._coerce_face(face)
        if not self.is_face(m):
            raise NotAFaceError(f"{vertices_from_mask(m)} is not a face")
        amb = self.ambient & ~m
        pieces = sorted(f & ~m for f in self.facets if f & m == m)
        return SimplicialComplex._raw(self.n, amb, tuple(pieces))

    def delete_all(self, face) -> "SimplicialComplex":
        """Remove every face containing the set E, E itself included.

        The faces left are those missing a vertex of E, so the facets are
        the maximal sets among the facets that miss a vertex of E and the
        pieces F - v of the facets F containing E, v in E. The empty face
        lies in every face and leaves the void complex; a set that is not
        a face changes nothing.
        """
        m = self._coerce_face(face)
        bits = [1 << (v - 1) for v in iter_vertices(m)]
        kept = [f for f in self.facets if f & m != m]
        pieces = [f ^ b for f in self.facets if f & m == m for b in bits]
        return SimplicialComplex._raw(self.n, self.ambient, maximal_elements(kept + pieces))

    def face_deletion(self, face) -> "SimplicialComplex":
        """Remove the faces strictly containing E but keep E itself.

        A nonface or a facet E changes nothing, and the complex itself is
        returned. Otherwise the facets are those `delete_all` leaves plus
        E: a face left inside E lies in some E - v, so in the piece F - v
        of a facet F strictly above E.
        """
        m = self._coerce_face(face)
        if m in self.facets or not self.is_face(m):
            return self
        facets = self.delete_all(m).facets + (m,)
        return SimplicialComplex._raw(self.n, self.ambient, tuple(sorted(facets)))

    def alexander_dual(self) -> "SimplicialComplex":
        """Faces are the complements (in the ambient set) of nonfaces."""
        if self.is_void:
            return SimplicialComplex._raw(self.n, self.ambient, (self.ambient,))
        nonfaces = self.minimal_nonfaces()
        facets = tuple(sorted(self.ambient & ~f for f in nonfaces))
        return SimplicialComplex._raw(self.n, self.ambient, facets)

    def minimal_nonfaces(self) -> tuple[int, ...]:
        """Inclusion-minimal subsets of the ambient set that are not faces.

        These are the minimal hitting sets of the facet complements.
        """
        if self.is_void:
            raise VoidComplexError("the void complex has no nonface lattice")
        return minimal_transversals(self.ambient & ~f for f in self.facets)

    # -- value semantics / serialization ---------------------------------

    def _key(self) -> tuple:
        return (self.ambient, self.facets)

    def __repr__(self) -> str:
        if self.is_void:
            return f"SimplicialComplex(n={self.n}, VOID)"
        inner = ",".join("{" + ",".join(map(str, vertices_from_mask(f))) + "}" for f in self.facets)
        return f"SimplicialComplex(n={self.n}, <{inner}>)"

    def to_json_dict(self) -> dict:
        d: dict = {"n": self.n}
        if self.ambient != (1 << self.n) - 1:
            d["vertices"] = list(vertices_from_mask(self.ambient))
        d["facets"] = None if self.is_void else [list(vertices_from_mask(f)) for f in self.facets]
        return d

    @classmethod
    def from_json_dict(cls, data: dict) -> "SimplicialComplex":
        if not isinstance(data, dict) or "n" not in data or "facets" not in data:
            raise FormatError('complex JSON needs "n" and "facets" keys')
        n = data["n"]
        if type(n) is not int:
            raise FormatError('"n" must be an integer')
        ambient = None
        if "vertices" in data and data["vertices"] is not None:
            ambient = mask_from_json_labels(data["vertices"], '"vertices"')
        raw = data["facets"]
        if raw is None:
            return cls(n, (), ambient=ambient)
        if not isinstance(raw, list):
            raise FormatError('"facets" must be null or a list of vertex lists')
        masks = [mask_from_json_labels(f, "each facet") for f in raw]
        try:
            return cls(n, masks, ambient=ambient)
        except VertexRangeError as exc:
            raise FormatError(str(exc)) from exc


def mask_from_json_labels(labels, what: str) -> int:
    """Mask of a JSON list of vertex labels, each an integer in
    1..MAX_VERTICES; booleans and floats are not labels."""
    if not isinstance(labels, list) or not all(
        type(v) is int and 1 <= v <= MAX_VERTICES for v in labels
    ):
        raise FormatError(f"{what} must be a list of integer vertex labels in 1..{MAX_VERTICES}")
    return mask_from_vertices(labels)


def simplex_skeleton(n: int, ambient: int, i: int) -> SimplicialComplex:
    """Pure i-skeleton of the full simplex on the ambient set.

    For i >= |ambient| - 1 this is the full simplex itself (the natural
    reading of the skeleton tower above its top dimension); for i = -1
    it is {∅}.
    """
    size = ambient.bit_count()
    if i + 1 >= size:
        return SimplicialComplex._raw(n, ambient, (ambient,))
    if i < -1:
        raise DimensionRangeError(f"skeleton dimension {i} below -1")
    return SimplicialComplex._raw(n, ambient, tuple(sorted(subsets_of_size(ambient, i + 1))))
