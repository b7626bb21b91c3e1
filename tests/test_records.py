"""The record classes behave as the frozen dataclasses they replaced.

Each record is compared with a frozen dataclass twin built here with the same
name, fields and defaults: the same arguments must give the same repr and
hash, and the record must equal only records of its own class.  A record is
one object: its fields are slots, read back in declaration order however it
was built, and it has no instance dict.  A sweep report keeps few objects
for the cyclic GC to track.
"""

import copy
import cProfile
import gc
import inspect
import operator
import pickle
import pstats
from dataclasses import FrozenInstanceError, field, make_dataclass
from fractions import Fraction
from itertools import product

import pytest

from acmbundles import (
    QUINTIC, BundleDescriptor, ChowClass, Hypersurface, analyze_case, analyze_extension, catalog, direct_sum, dual,
    extension_cases, from_ch, lookup, tensor, to_ch, twist,
)
from acmbundles.analysis import CaseReport, ExtensionCase, SplitVerdict
from acmbundles.catalog import CatalogEntry
from acmbundles.chowring import _Record
from acmbundles.expr import Dual, Sum, Tensor, Twist

from oracles import descriptor_rule

REQUIRED = object()


def values(record, names):
    return tuple(getattr(record, name) for name in names)


_CASE_FIELDS = ("index", "F", "E", "m", "chi_tensor", "d_lower", "F_twisted", "G")
_ENTRY_FIELDS = ("c1", "c2", "family", "exists_on_general", "chi", "h0", "stable")

# (class, ((field, default or REQUIRED), ...), example field values, hashable).
# The constructor takes a prefix of the fields (see ``given``): all of them but
# for CatalogEntry, which takes its pair and computes the rest.  Values drawn
# from the analysis are built by the ``args`` fixture, when a test runs, so a
# fault there fails named tests instead of collection.
SPECS = [
    (Hypersurface, (("r", 5),), (3,), True),
    (
        BundleDescriptor,
        (("rank", REQUIRED), ("c1", REQUIRED), ("c2", 0), ("c3", 0)),
        (2, 1, 8, 0),
        True,
    ),
    (CatalogEntry, tuple((name, REQUIRED) for name in _ENTRY_FIELDS), (1, 8, "A", True, 1, 1, True), True),
    (
        ExtensionCase,
        tuple((name, REQUIRED) for name in _CASE_FIELDS),
        lambda: values(extension_cases()[0], _CASE_FIELDS),
        True,
    ),
    (
        SplitVerdict,
        (("pair", REQUIRED), ("sum_chern", REQUIRED), ("filter", REQUIRED), ("details", REQUIRED)),
        lambda: values(analyze_case(1).verdicts[0], ("pair", "sum_chern", "filter", "details")),
        False,
    ),
    (
        CaseReport,
        (("case", REQUIRED), ("rank1_hypothesis_ok", REQUIRED), ("verdicts", REQUIRED),
         ("rejected", REQUIRED), ("conclusion", REQUIRED), ("notes", ())),
        lambda: values(
            analyze_case(1), ("case", "rank1_hypothesis_ok", "verdicts", "rejected", "conclusion", "notes")
        ),
        False,
    ),
    (Dual, (("inner", REQUIRED),), (BundleDescriptor(1, 2),), True),
    (Twist, (("inner", REQUIRED), ("n", REQUIRED)), (BundleDescriptor(2, 0, 3), -1), True),
    (Tensor, (("left", REQUIRED), ("right", REQUIRED)), (BundleDescriptor(1, 1), BundleDescriptor(2, 1, 8)), True),
    (Sum, (("left", REQUIRED), ("right", REQUIRED)), (BundleDescriptor(1, 1), BundleDescriptor(2, 1, 8)), True),
]
IDS = [cls.__name__ for cls, *_ in SPECS]


@pytest.fixture
def args(request):
    return request.param() if callable(request.param) else request.param


def given(cls, args):
    """The constructor's arguments: the leading field values, one per parameter."""
    return args[: len(inspect.signature(cls).parameters)]


def twin(cls, fields):
    return make_dataclass(
        cls.__name__,
        [(name, object) if default is REQUIRED else (name, object, field(default=default))
         for name, default in fields],
        frozen=True,
    )


@pytest.mark.parametrize("cls, fields, args, hashable", SPECS, ids=IDS, indirect=["args"])
def test_a_record_matches_its_frozen_dataclass_twin(cls, fields, args, hashable):
    names, built_from = [name for name, _ in fields], given(cls, args)
    Twin = twin(cls, fields)
    record, copy, other = cls(*built_from), Twin(*args), Twin(*args)
    assert repr(record) == repr(copy)
    assert record == cls(*built_from) == cls(**dict(zip(names, built_from)))
    assert copy == other  # the twin is a dataclass of the same shape
    assert record != copy and copy != record
    assert record != args
    if hashable:
        assert hash(record) == hash(copy) == hash(cls(*built_from))
    else:
        for value in (record, copy):
            with pytest.raises(TypeError, match="unhashable type"):
                hash(value)


@pytest.mark.parametrize("cls, fields, args, hashable", SPECS, ids=IDS, indirect=["args"])
def test_a_record_builds_from_its_required_fields_with_the_twin_defaults(cls, fields, args, hashable):
    built_from = given(cls, args)
    required = [value for (_, default), value in zip(fields, built_from) if default is REQUIRED]
    computed = args[len(built_from):]  # the fields the constructor works out itself
    assert repr(cls(*required)) == repr(twin(cls, fields)(*required, *computed))
    with pytest.raises(TypeError):
        cls(*built_from, "one too many")
    with pytest.raises(TypeError):
        cls(*built_from, **{fields[0][0]: args[0]})


@pytest.mark.parametrize("cls, fields, args, hashable", SPECS, ids=IDS, indirect=["args"])
def test_a_record_is_frozen_and_pickles(cls, fields, args, hashable):
    record = cls(*given(cls, args))
    for name in [name for name, _ in fields] + ["extra"]:
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 0)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert repr(record) == repr(cls(*given(cls, args)))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is cls and back == record and repr(back) == repr(record)


def test_records_of_different_classes_with_equal_fields_differ():
    a, b = BundleDescriptor(1, 1), BundleDescriptor(2, 1, 8)
    assert Sum(a, b) != Tensor(a, b)
    assert Sum(a, b) == Sum(BundleDescriptor(1, 1), BundleDescriptor(2, 1, 8))
    assert BundleDescriptor(2, 1, 8) != (2, 1, 8, 0)
    assert Dual(3) != Hypersurface(3)  # one field, equal values
    assert len({Sum(a, b), Tensor(a, b), Sum(a, b)}) == 2


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: BundleDescriptor(2.0, 1), "rank must be an integer, got 2.0"),
        (lambda: BundleDescriptor(2, True), "c1 must be an integer, got True"),
        (lambda: BundleDescriptor(2, 1, "8"), "c2 must be an integer, got '8'"),
        (lambda: BundleDescriptor(0, 1), "rank must be positive, got 0"),
        (lambda: BundleDescriptor(1, 1, 2), "a rank-1 bundle has c2 = c3 = 0"),
        (lambda: BundleDescriptor(2, 1, 8, 1), "a rank-2 bundle has c3 = 0"),
        (lambda: Hypersurface(0), "degree must be a positive integer, got 0"),
        (lambda: Hypersurface(True), "degree must be a positive integer, got True"),
        (lambda: Hypersurface("5"), "degree must be a positive integer, got '5'"),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


class _Int(int):
    pass


# Every class the type chain separates from int: a bool, a float, a Fraction, a
# str, None, and an int subclass, which the rule accepts.
_GRID = (0, 1, 2, -1, True, False, 2.0, Fraction(3), "8", None, _Int(2), _Int(-1))


def _outcome(build, *args):
    try:
        build(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def test_the_constructor_keeps_the_field_by_field_rule_on_every_grid_input():
    for fields in product(_GRID, repeat=4):  # 12**4 field tuples
        expected = _outcome(descriptor_rule, *fields)
        try:
            E = BundleDescriptor(*fields)
        except Exception as exc:
            assert (type(exc), str(exc)) == expected, fields
        else:
            assert expected is None and all(map(operator.is_, E._values(), fields)), fields


class _Checked(_Record):
    n: int

    def _validate(self):
        if self.n < 0:
            raise ValueError(f"n must be non-negative, got {self.n}")


class _CheckedChild(_Checked):  # inherits the validator
    n: int
    label: str = ""


class _Plain(_Record):
    n: int


class _CheckedBelowPlain(_Plain):  # the first validator in its line
    n: int

    def _validate(self):
        if self.n < 0:
            raise ValueError(f"n must be non-negative, got {self.n}")


_CHECKED = (_Checked, _CheckedChild, _CheckedBelowPlain)


@pytest.mark.parametrize("cls", _CHECKED, ids=lambda cls: cls.__name__)
def test_a_record_with_its_own_or_an_inherited_validator_rejects_bad_input(cls):
    assert cls(3).n == 3
    with pytest.raises(ValueError, match="n must be non-negative, got -1"):
        cls(-1)
    with pytest.raises(ValueError, match="n must be non-negative, got -1"):
        cls(n=-1)


def test_a_record_calls_its_validator_exactly_when_it_has_one():
    checked = (*_CHECKED, BundleDescriptor, Hypersurface)
    unchecked = (_Plain, ExtensionCase, SplitVerdict, CaseReport, CatalogEntry, Dual, Twist, Tensor, Sum)
    for cls in checked + unchecked:
        assert ("_validate" in cls.__init__.__code__.co_names) == (cls in checked), cls
    assert _Plain(-1).n == -1


def _fields(record):
    return list(zip(record._fields, record._values()))


@pytest.mark.parametrize("cls, fields, args, hashable", SPECS, ids=IDS, indirect=["args"])
def test_a_record_keeps_its_fields_in_declaration_order(cls, fields, args, hashable):
    names, built_from = [name for name, _ in fields], given(cls, args)
    assert list(cls._fields) == names
    for record in (cls(*built_from), cls(**dict(zip(names, built_from)))):
        assert _fields(record) == list(zip(names, args))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert _fields(pickle.loads(pickle.dumps(record, protocol))) == list(zip(names, args))


def test_a_catalog_entry_built_from_its_pair_reads_as_its_frozen_dataclass_twin():
    # The entry's constructor takes the pair; its repr, equality and hash are still
    # those of a frozen dataclass over all seven fields, in declaration order.
    Twin = twin(CatalogEntry, tuple((name, REQUIRED) for name in _ENTRY_FIELDS))
    assert CatalogEntry._fields == _ENTRY_FIELDS
    for entry in catalog():
        record, copy = CatalogEntry(*entry.pair), Twin(*values(entry, _ENTRY_FIELDS))
        assert repr(record) == repr(copy) == repr(entry)
        assert _fields(record) == list(zip(_ENTRY_FIELDS, values(entry, _ENTRY_FIELDS)))
        assert record == entry == CatalogEntry(c1=entry.c1, c2=entry.c2) and record != copy
        assert hash(record) == hash(copy) == hash(entry)
    with pytest.raises(TypeError):
        CatalogEntry(1, 8, "one too many")
    with pytest.raises(TypeError):
        CatalogEntry(1, c1=1)


def test_every_operation_writes_descriptor_fields_in_declaration_order():
    E, F = lookup(1, 8).descriptor(), lookup(0, 3).descriptor()
    results = (dual(E), direct_sum(E, F, QUINTIC), twist(E, -1, QUINTIC), tensor(E, F, QUINTIC),
               from_ch(to_ch(E, QUINTIC), QUINTIC))
    for result in results:
        expected = [(name, getattr(result, name)) for name in BundleDescriptor._fields]
        assert _fields(result) == expected, result


def test_the_profiler_counts_each_record_class_s_init_apart():
    profile = cProfile.Profile()
    profile.runcall(lambda: [BundleDescriptor(2, 1, 8), SplitVerdict(0, 1, 2, 3), SplitVerdict(4, 5, 6, 7)])
    calls = {key: value[1] for key, value in pstats.Stats(profile).stats.items() if key[2] == "__init__"}
    assert calls == {("<record BundleDescriptor>", 1, "__init__"): 1, ("<record SplitVerdict>", 1, "__init__"): 2}


class _Shadowing(_Record):  # fields named like the names a generated __init__ binds
    d: int
    d_: int
    self: int
    _: int
    _sd: int
    d__: int = 2
    _cls: int = 3
    _dd: int = 4


def test_no_field_is_shadowed_by_the_generated_init():
    names = ("d", "d_", "self", "_", "_sd", "d__", "_cls", "_dd")
    assert _fields(_Shadowing(0, 1, 5, 6, 7)) == list(zip(names, (0, 1, 5, 6, 7, 2, 3, 4)))
    keywords = dict(zip(names, range(10, 18)))
    assert _fields(_Shadowing(**keywords)) == list(keywords.items())


def _package_records():
    """Every _Record subclass the package defines, found through __subclasses__()."""
    found, todo = [], [_Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("acmbundles."):
                found.append(cls)
    return sorted(found, key=lambda cls: cls.__name__)


EXAMPLES = {cls: (fields, args) for cls, fields, args, _ in SPECS}
EXAMPLES[ChowClass] = (tuple((f"a{i}", 0) for i in range(4)), (1, Fraction(1, 2), 3, Fraction(-5, 6)))
EXAMPLES[CatalogEntry] = ((("c1", REQUIRED), ("c2", REQUIRED)), (1, 8))


def test_every_record_class_of_the_package_has_an_example():
    assert set(_package_records()) == set(EXAMPLES)


@pytest.mark.parametrize("cls", _package_records(), ids=lambda cls: cls.__name__)
def test_a_record_is_one_object_whose_fields_are_slots(cls):
    parameters, args = EXAMPLES[cls]  # the constructor's parameters: but for ChowClass and CatalogEntry, the fields
    record = cls(*(args() if callable(args) else args))
    assert cls.__slots__ == cls._fields
    assert not hasattr(record, "__dict__")
    with pytest.raises(TypeError):
        vars(record)
    for name in cls._fields + ("extra",):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 0)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    copies = [pickle.loads(pickle.dumps(record, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for back in copies + [copy.copy(record), copy.deepcopy(record)]:
        assert type(back) is cls and back == record and repr(back) == repr(record)
    signature = inspect.signature(cls).parameters.values()
    assert [p.name for p in signature] == [name for name, _ in parameters]
    assert {p.name: p.default for p in signature if p.default is not p.empty} == {
        name: default for name, default in parameters if default is not REQUIRED
    }


def _tracked_after(build):
    """Objects the cyclic GC tracks that survive ``build()``, counted with collection off."""
    enabled = gc.isenabled()
    gc.collect()
    before = len(gc.get_objects())
    try:
        gc.disable()
        kept = build()
        gc.collect()
        return kept, len(gc.get_objects()) - before
    finally:
        if enabled:
            gc.enable()


def test_a_sweep_report_keeps_few_objects_the_gc_tracks():
    triples = [(F, E, m) for F in catalog() for E in catalog() for m in range(-3, 1)]
    for F, E, m in triples:  # fill the caches and the pair table first
        analyze_extension(F, E, m)
    reports, tracked = _tracked_after(lambda: [analyze_extension(F, E, m) for F, E, m in triples])
    assert len(reports) == 784
    assert tracked <= 15 * len(reports), tracked / len(reports)
