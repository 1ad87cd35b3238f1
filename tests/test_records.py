"""The value types are frozen records with the semantics of frozen
dataclasses: each is compared here with a frozen dataclass of the same
fields, built from the same values."""

import copy
import dataclasses
import pickle

import pytest

from setfam._record import Record
from setfam.bounds import BoundValue, Params
from setfam.constructions import ConstructionId
from setfam.errors import ParamRangeError
from setfam.family import Family, IsoCertificate, Subset
from setfam.search import LayerBound, MaximizerClass, Problem, SearchReport, solve
from setfam.search.tables import build_diversity_tables, build_pair_tables, build_union_tables
from setfam.search.verify import VerifyResult, VerifyRow

P = Params(n=5, s=2)
F = Family(5, (0b1, 0b11))
REPORT = solve(Problem("s_union_max", P))
ROW = VerifyRow(P, None, REPORT, True, True)


def _fields(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record).__slots__)


# two records of each type that differ in one field
PAIRS = [
    (Params(n=5, k=2), Params(n=5, k=3)),
    (BoundValue(6, "even"), BoundValue(7, "even")),
    (Subset(0b101, 5), Subset(0b101, 6)),
    (F, Family(5, (0b1, 0b101))),
    (IsoCertificate((2, 1, 3)), IsoCertificate(None)),
    (ConstructionId("full_star", P), ConstructionId("full_star", P, 2)),
    (Problem("s_union_max", P), Problem("s_union_max", P, "clique")),
    (MaximizerClass(F, 1), MaximizerClass((F, F), 1)),
    (REPORT, SearchReport(*_fields(REPORT)[:-1], "a note")),
    (LayerBound(1, 5, 5, True, True), LayerBound(1, 4, 5, False, True)),
    (build_pair_tables(5, 2, 2, None, True), build_pair_tables(5, 2, 2, None, False)),
    (build_union_tables(5, 2, None), build_union_tables(5, 2, 1)),
    (build_diversity_tables(5, 2), build_diversity_tables(6, 2)),
    (ROW, VerifyRow(P, "out of range", None, None, None)),
    (VerifyResult("katona", [ROW]), VerifyResult("katona", [])),
]
IDS = [type(a).__name__ for a, _ in PAIRS]


def _reference(record):
    """A frozen dataclass with the record's class name, fields and values."""
    cls = type(record)
    ref = dataclasses.make_dataclass(cls.__name__, cls.__slots__, frozen=True)
    ref.__qualname__ = cls.__qualname__
    return ref(*_fields(record))


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:  # a record holding lists is unhashable, as a dataclass is
        return str(exc)


def test_every_value_type_is_covered():
    assert sorted(IDS) == sorted(cls.__name__ for cls in Record.__subclasses__())
    assert len(IDS) == 15


@pytest.mark.parametrize("a, b", PAIRS, ids=IDS)
def test_records_compare_hash_and_print_as_frozen_dataclasses(a, b):
    twin = type(a)(*_fields(a))
    assert twin == a and not twin != a and _hash_or_error(twin) == _hash_or_error(a)
    if type(a) is not BoundValue:  # which hashes as its integer (see below)
        assert _hash_or_error(a) == _hash_or_error(_reference(a))
    assert a != b and not a == b
    assert repr(a) == repr(_reference(a)) and repr(b) == repr(_reference(b))
    assert tuple(type(a).__annotations__) == type(a).__slots__


def test_records_of_different_types_are_unequal():
    firsts = [a for a, _ in PAIRS]
    for i, a in enumerate(firsts):
        assert a != _fields(a)
        for b in firsts[i + 1:]:
            assert a != b and b != a


@pytest.mark.parametrize("a, _", PAIRS, ids=IDS)
def test_records_are_frozen(a, _):
    before = _fields(a)
    for name in type(a).__slots__:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert _fields(a) == before


@pytest.mark.parametrize("a, b", PAIRS, ids=IDS)
def test_records_survive_pickle_and_copy(a, b):
    for record in (a, b):
        clones = pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)
        for clone in clones:
            assert type(clone) is type(record) and clone == record


def test_defaults():
    assert _fields(Params()) == (None,) * 7
    assert BoundValue(3).regime == ""
    cid = ConstructionId("full_star")
    assert (cid.params, cid.y) == (Params(), 1)
    assert ConstructionId("katona_odd", y=3) == ConstructionId("katona_odd", Params(), 3)
    assert Problem("s_union_max", P).engine == "auto"
    assert SearchReport(*_fields(REPORT)[:-1]).note is None
    assert (ROW.timeout, ROW.infeasible) == (None, None)
    assert Params(5, 2) == Params(n=5, k=2)


def test_constructor_arguments_are_checked():
    with pytest.raises(TypeError):
        BoundValue()
    with pytest.raises(TypeError):
        Params(m=3)
    with pytest.raises(TypeError):
        Params(5, n=5)
    with pytest.raises(TypeError, match="missing argument 'rows'"):
        VerifyResult("katona")
    with pytest.raises(TypeError, match="takes 2 arguments"):
        VerifyResult("katona", [], "extra")
    with pytest.raises(TypeError, match="unexpected arguments"):
        VerifyRow(P, None, None, None, None, timeout=None, elapsed=0)
    with pytest.raises(TypeError, match="unexpected arguments"):
        VerifyResult("katona", theorem="katona", rows=[])  # theorem given twice
    assert VerifyResult(rows=[], theorem="katona") == VerifyResult("katona", [])


def test_validation():
    with pytest.raises(ValueError, match="outside universe"):
        Subset(0b1000, 3)
    with pytest.raises(ValueError, match="universe size"):
        Subset(1, 1)
    with pytest.raises(ValueError, match="strictly increasing"):
        Family(5, (0b11, 0b1))
    with pytest.raises(ValueError, match="outside universe"):
        Family(3, (0b1000,))
    with pytest.raises(ParamRangeError, match="unknown construction tag"):
        ConstructionId("no_such_tag")
    with pytest.raises(ParamRangeError, match="unknown problem kind"):
        Problem("no_such_kind", P)
    with pytest.raises(ParamRangeError, match="unknown engine"):
        Problem("s_union_max", P, "warp")


def test_a_bound_value_equals_its_integer():
    assert BoundValue(5, "i") == 5 and 5 == BoundValue(5, "ii") == BoundValue(5)
    assert BoundValue(5) != 6 and BoundValue(5) != "5"
    assert hash(BoundValue(5, "i")) == hash(5)
    assert int(BoundValue(5)) == 5 and [0, 1, 2][BoundValue(1)] == 1
