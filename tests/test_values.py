"""Value semantics of the library's value types: no field can be set or
deleted, and equal values hash equal."""

import pytest

from srchordal import (
    GF2,
    BettiTable,
    FieldSpec,
    FreeSequence,
    GotzmannDecomposition,
    Monomial,
    MonomialIdeal,
    SimplicialComplex,
    SquarefreeIdeal,
    gotzmann_decomposition,
)

# each value type: its fields, and two ways to build the same value
VALUES = {
    "SimplicialComplex": (
        ("n", "ambient", "facets"),
        lambda: SimplicialComplex(3, [[1, 2], [1], [3]]),
        lambda: SimplicialComplex.from_json_dict({"n": 3, "facets": [[3], [1, 2]]}),
    ),
    "SquarefreeIdeal": (
        ("n", "gens"),
        lambda: SquarefreeIdeal(4, [[1, 2], [1, 2, 3], [4]]),
        lambda: SquarefreeIdeal(4, [0b1000, 0b11]),
    ),
    "Monomial": (
        ("exponents",),
        lambda: Monomial([2, 0, 1]),
        lambda: Monomial((2, 0, 1)),
    ),
    "MonomialIdeal": (
        ("n", "gens"),
        lambda: MonomialIdeal(2, [Monomial([1, 1]), Monomial([2, 1])]),
        lambda: MonomialIdeal(2, [(1, 1)]),
    ),
    "FieldSpec": (
        ("characteristic",),
        lambda: FieldSpec.parse("GFP:3"),
        lambda: FieldSpec(3),
    ),
    "BettiTable": (
        ("entries", "field"),
        lambda: BettiTable.from_dict({(0, 2): 3, (1, 3): 2, (1, 4): 0}, GF2),
        lambda: BettiTable((((0, 2), 3), ((1, 3), 2)), FieldSpec(2)),
    ),
    "FreeSequence": (
        ("kind", "d", "faces"),
        lambda: FreeSequence.from_json_dict({"kind": "collapse", "d": 1, "faces": [[1], [2]]}),
        lambda: FreeSequence("collapse", 1, (0b1, 0b10)),
    ),
    "GotzmannDecomposition": (
        ("blocks",),
        lambda: gotzmann_decomposition(SquarefreeIdeal(3, [[1, 2], [1, 3]])),
        lambda: GotzmannDecomposition(((0b1, (2, 3)),)),
    ),
}


@pytest.mark.parametrize("name", list(VALUES))
def test_fields_cannot_be_set_or_deleted(name):
    fields, make, _ = VALUES[name]
    value = make()
    for attr in fields:
        with pytest.raises(AttributeError):
            setattr(value, attr, None)
        with pytest.raises(AttributeError):
            delattr(value, attr)
        assert value == make()
    # a name that is not a field is refused too, but with TypeError up to
    # at least Python 3.13: the __setattr__ of a frozen dataclass with
    # slots calls super() on the class it replaced
    with pytest.raises((AttributeError, TypeError)):
        value.extra = None
    assert value == make() and repr(value) == repr(make())


@pytest.mark.parametrize("name", list(VALUES))
def test_equal_values_hash_equal(name):
    _, make, make_again = VALUES[name]
    first, second = make(), make_again()
    assert first == second and hash(first) == hash(second)


def test_complex_equality_ignores_n_but_not_ambient():
    small = SimplicialComplex(3, [[1]])
    wide = SimplicialComplex(5, [[1]], ambient=0b111)
    assert small == wide and hash(small) == hash(wide)
    for other in (SimplicialComplex(3, [[1]], ambient=0b11),
                  SimplicialComplex(5, [[1]], ambient=0b11)):
        assert other != small and other != wide
