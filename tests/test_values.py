"""Value semantics of the library's value types: no field can be set or
deleted, equal values hash equal, and they survive pickle and copy; and
what importing the command line loads."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

import srchordal
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
from srchordal.values import Value

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
    # a name that is not a field is refused too
    with pytest.raises(AttributeError):
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


def test_every_value_type_is_listed():
    assert {cls.__name__ for cls in Value.__subclasses__()} == set(VALUES)


@pytest.mark.parametrize("name", list(VALUES))
def test_keyword_construction_rebuilds_the_value(name):
    fields, make, _ = VALUES[name]
    value = make()
    again = type(value)(**{attr: getattr(value, attr) for attr in fields})
    assert again == value and hash(again) == hash(value) and repr(again) == repr(value)


@pytest.mark.parametrize(
    "value, text",
    [
        (FieldSpec(3), "FieldSpec(characteristic=3)"),
        (BettiTable.from_dict({(0, 2): 3, (1, 3): 2}, GF2),
         "BettiTable(entries=(((0, 2), 3), ((1, 3), 2)), field=FieldSpec(characteristic=2))"),
        (FreeSequence("collapse", 1, (1, 2)), "FreeSequence(kind='collapse', d=1, faces=(1, 2))"),
        (GotzmannDecomposition(((0b1, (2, 3)),)), "GotzmannDecomposition(blocks=((1, (2, 3)),))"),
    ],
    ids=["FieldSpec", "BettiTable", "FreeSequence", "GotzmannDecomposition"],
)
def test_default_reprs(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("name", list(VALUES))
@pytest.mark.parametrize(
    "clone",
    [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_pickle_and_copy_round_trip(name, clone):
    _, make, _ = VALUES[name]
    value = make()
    again = clone(value)
    assert again == value and hash(again) == hash(value) and repr(again) == repr(value)


@pytest.mark.parametrize("name", list(VALUES))
def test_never_equal_to_the_tuple_of_its_fields(name):
    fields, make, _ = VALUES[name]
    value = make()
    assert value != tuple(getattr(value, attr) for attr in fields)


# run in a fresh interpreter on the tree under test; the modules already
# loaded at startup (a site .pth file may preload typing) are diffed away
IMPORT_CHECK = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import srchordal.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_importing_the_cli_loads_no_heavy_module():
    src = os.path.dirname(os.path.dirname(srchordal.__file__))
    out = subprocess.run([sys.executable, "-c", IMPORT_CHECK, src],
                         capture_output=True, text=True, check=True, timeout=60).stdout
    loaded = set(out.split())
    assert "srchordal.values" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "typing"}, sorted(loaded)
