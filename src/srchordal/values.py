"""The base class of the library's immutable value types.

Complexes, ideals, monomials, fields, Betti tables, certificates and
Gotzmann forms are values: each names its fields in `_fields`, sets them
once in `__init__` with `object.__setattr__`, and is compared and hashed
by `_key()`. They are not dataclasses because every CLI call imports all
of them before it decides anything, and `dataclasses` pulls in
`inspect`, `ast`, `dis` and `tokenize`. With the dataclass decorators,
`import srchordal.cli` took 16.6 ms in a fresh Python 3.11.7
interpreter, 6-10 ms of it in importing `dataclasses` (`-X importtime`);
with this class it takes 6.1 ms (medians of 25 interleaved
fresh-interpreter imports of each, on a 2-vCPU container).

Instances keep their `__dict__` (there are no `__slots__`), so pickle
and copy restore them without going through `__setattr__`.
"""


class Value:
    """An immutable value named by its `_fields`: equal, with equal
    hashes, to another instance of its own class with the same `_key()`,
    and never to anything else."""

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        """What equality and hashing compare: the field values."""
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"
