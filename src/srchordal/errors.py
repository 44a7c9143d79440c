"""Exception types shared across the library, and the default budget
that bounds every exponential search or enumeration."""

DEFAULT_BUDGET = 10_000_000


class SRChordalError(Exception):
    """Base class for all library errors."""


class VertexRangeError(SRChordalError, ValueError):
    """A vertex label is outside 1..n, or n is outside 1..64."""


class DimensionRangeError(SRChordalError, ValueError):
    """A dimension parameter is outside its admissible range."""


class NotAFaceError(SRChordalError, ValueError):
    """An operation required a face of the complex and got a non-face."""


class VoidComplexError(SRChordalError, ValueError):
    """The operation is undefined on the void complex."""


class ZeroIdealError(SRChordalError, ValueError):
    """The operation is undefined on the zero ideal."""


class NotEquigeneratedError(SRChordalError, ValueError):
    """The ideal is not generated in a single degree."""


class NotAClosureError(SRChordalError, ValueError):
    """The complex is not a d-closure for the given d."""


class NotStronglyStableError(SRChordalError, ValueError):
    """The monomial ideal fails the strongly stable exchange condition."""


class FormatError(SRChordalError, ValueError):
    """Malformed textual or JSON input."""


class SearchBudgetExceeded(SRChordalError, RuntimeError):
    """A backtracking search ran out of its node budget, a d-closure
    outgrew its face budget, or an LCM lattice outgrew its member budget
    (inconclusive)."""
