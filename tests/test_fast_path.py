"""The sweep's fast path changes no value.

``dual``, ``direct_sum`` and the end of ``twist`` build descriptors without
re-validating them; each such result must be exactly what the public
constructor builds from the same fields.  The shared catalog descriptors, the
bounded F(m) cache and the pair table's precomputed sums are memos: a report
must not depend on what ran before it.
"""

import hashlib
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from acmbundles import (
    QUINTIC,
    BundleDescriptor,
    ChowClass,
    Hypersurface,
    NotBundleClassError,
    analyze_extension,
    build_case,
    catalog,
    direct_sum,
    dual,
    from_ch,
    tensor,
    twist,
)
from acmbundles import analysis
from acmbundles.bundles import _exact_int
from acmbundles.catalog import CatalogEntry

from strategies import descriptors, hypersurfaces

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = dict(
    os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
)


def _sweep():
    return [(F, E, m) for F in catalog() for E in catalog() for m in range(-3, 1)]


def assert_as_if_validated(D):
    """D equals its rebuild through the public constructor, field by field."""
    again = BundleDescriptor(D.rank, D.c1, D.c2, D.c3, b=D.b, acm=D.acm)
    assert type(D) is BundleDescriptor
    assert D == again and hash(D) == hash(again) and repr(D) == repr(again)
    assert list(vars(D).items()) == list(vars(again).items())
    assert pickle.dumps(D) == pickle.dumps(again)
    assert all(type(value) is int for value in D.chern_tuple() + (D.rank,))
    assert D.b is None or type(D.b) is int


def test_every_catalog_twist_and_its_dual_is_valid():
    for entry in catalog():
        for n in range(-3, 4):
            E = twist(entry.descriptor(), n, QUINTIC)
            assert_as_if_validated(E)
            assert_as_if_validated(dual(E))


def test_every_catalog_direct_sum_is_valid():
    pairs = list(combinations_with_replacement(catalog(), 2))
    assert len(pairs) == 105
    for P, Q in pairs:
        assert_as_if_validated(direct_sum(P.descriptor(), Q.descriptor(), QUINTIC))


def test_every_sweep_descriptor_is_valid():
    for F, E, m in _sweep():
        case = build_case(F, E, m)
        assert_as_if_validated(case.F_twisted)
        assert_as_if_validated(dual(E.descriptor()))
        assert_as_if_validated(case.G)
        assert case.F_twisted == twist(
            BundleDescriptor(2, F.c1, F.c2, 0, b=0, acm=True), m, QUINTIC
        )


@st.composite
def flagged_descriptors(draw):
    E = draw(descriptors(max_rank=4, max_c1=10, max_c=100))
    b = draw(st.none() | st.integers(-6, 6))
    return BundleDescriptor(E.rank, E.c1, E.c2, E.c3, b=b, acm=draw(st.booleans()))


@given(flagged_descriptors(), flagged_descriptors(), st.integers(-6, 6), hypersurfaces(8))
def test_kernel_operations_build_valid_descriptors(E, F, n, X):
    for result in (twist(E, n, X), dual(E), direct_sum(E, F, X), tensor(E, F, X)):
        assert_as_if_validated(result)


# The two validating paths still reject, with the same messages, what the
# unvalidated closed operations would pass through unchecked.
@pytest.mark.parametrize(
    "fields, b, message",
    [
        ((2, 1, Fraction(8)), None, "c2 must be an integer, got Fraction(8, 1)"),
        ((1, 1, 0, 3), None, "a rank-1 bundle has c2 = c3 = 0"),
        ((2, 1, 8), Fraction(0), "b must be an integer or None, got Fraction(0, 1)"),
    ],
)
def test_the_public_constructor_still_validates(fields, b, message):
    with pytest.raises(ValueError) as info:
        BundleDescriptor(*fields, b=b)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "ch, message",
    [
        (ChowClass(1, 0, 0, 1), "a rank-1 bundle has c2 = c3 = 0"),
        (ChowClass(2, 0, 0, Fraction(1, 2)), "a rank-2 bundle has c3 = 0"),
    ],
)
def test_from_ch_still_validates(ch, message):
    with pytest.raises(NotBundleClassError) as info:
        from_ch(ch, QUINTIC)
    assert str(info.value) == message


def test_exact_int_returns_an_int_for_an_integral_fraction():
    for value in (Fraction(6, 3), Fraction(-14), Fraction(0)):
        result = _exact_int(value, "chi")
        assert type(result) is int and result == value
    assert _exact_int(Fraction(12), "c2", 3) == 4


@pytest.mark.parametrize(
    "num, den, message",
    [
        (Fraction(1, 2), 1, "chi is not an integer: 1/2"),
        (Fraction(-7, 3), 1, "chi is not an integer: -7/3"),
        (Fraction(3, 2), 3, "chi is not an integer: 1/2"),
        (5, 2, "chi is not an integer: 5/2"),
    ],
)
def test_exact_int_rejects_a_non_integral_value(num, den, message):
    with pytest.raises(NotBundleClassError) as info:
        _exact_int(num, "chi", den)
    assert str(info.value) == message


def _digest(reports) -> str:
    return hashlib.sha256("\n".join(map(repr, reports)).encode()).hexdigest()


_FRESH_DIGEST = """
import hashlib
from acmbundles import analyze_extension, catalog
triples = [(F, E, m) for F in catalog() for E in catalog() for m in range(-3, 1)]
reports = [analyze_extension(F, E, m) for F, E, m in triples]
print(hashlib.sha256("\\n".join(map(repr, reports)).encode()).hexdigest())
"""


def test_the_memos_have_no_visible_effect():
    triples = _sweep()
    first = [analyze_extension(F, E, m) for F, E, m in triples]
    second = [analyze_extension(F, E, m) for F, E, m in reversed(triples)][::-1]
    fresh = subprocess.run(
        [sys.executable, "-c", _FRESH_DIGEST],
        env=ENV,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()
    assert second == first
    assert _digest(first) == _digest(second) == fresh


def test_the_twist_cache_stays_within_its_bound():
    F, E = catalog()[8], catalog()[7]  # (4, 30) and (1, 8)
    for m in range(-500, 1):
        case = analyze_extension(F, E, m).case
        assert case.F_twisted == twist(F.descriptor(), m, QUINTIC), m
    info = analysis._twisted.cache_info()
    assert 0 < info.currsize <= info.maxsize <= 64


def test_a_catalog_entry_keeps_no_memo():
    for entry in catalog():
        entry.descriptor()
        copy = CatalogEntry(*(getattr(entry, name) for name in CatalogEntry._fields))
        assert vars(entry) == vars(copy) and list(vars(entry)) == list(CatalogEntry._fields)
        assert pickle.dumps(entry) == pickle.dumps(copy)
        assert entry.descriptor() is copy.descriptor()
    with pytest.raises(ValueError, match="c1 must be an integer, got True"):
        CatalogEntry(True, 4, "A", True, 0, 0, False).descriptor()


def test_a_sweep_pass_hashes_no_hypersurface(monkeypatch):
    # The Todd class is memoised by the integer degree, not by the variety.
    hashed = []
    original = Hypersurface.__hash__

    def counting_hash(self):
        hashed.append(self)
        return original(self)

    monkeypatch.setattr(Hypersurface, "__hash__", counting_hash)
    for F, E, m in _sweep():
        analyze_extension(F, E, m)
    assert len(hashed) == 0
