"""The sweep's fast path changes no value.

Every operation builds its result through the public constructor, which checks
one rule on every descriptor; each result must be exactly what that constructor
builds from the same fields, and no check in the package is an ``assert``,
which ``python -O`` strips.  The bounded twist cache and the pair table's
precomputed sums are memos: a report must not depend on what ran before it.
"""

import ast
import hashlib
import os
import pickle
import subprocess
import sys
from collections import Counter
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
    chi_hrr,
    direct_sum,
    dual,
    from_ch,
    tensor,
    twist,
)
from acmbundles import analysis, bundles, chowring
from acmbundles.bundles import _exact_int
from acmbundles.catalog import CatalogEntry
from acmbundles.expr import evaluate, parse

from strategies import descriptors, hypersurfaces

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = dict(
    os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
)


def _sweep():
    return [(F, E, m) for F in catalog() for E in catalog() for m in range(-3, 1)]


def assert_as_if_validated(D):
    """D equals its rebuild through the public constructor, field by field."""
    again = BundleDescriptor(D.rank, D.c1, D.c2, D.c3)
    assert type(D) is BundleDescriptor
    assert D == again and hash(D) == hash(again) and repr(D) == repr(again)
    assert list(zip(D._fields, D._values())) == list(zip(again._fields, again._values()))
    assert pickle.dumps(D) == pickle.dumps(again)
    assert all(type(value) is int for value in D._values())


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
        Fm = analysis._twisted(F.c1, F.c2, m)[0]
        assert_as_if_validated(Fm)
        assert_as_if_validated(dual(E.descriptor()))
        assert_as_if_validated(case.G)
        assert Fm == twist(BundleDescriptor(2, F.c1, F.c2), m, QUINTIC)


def test_no_check_in_the_package_is_an_assert_statement():
    for path in sorted((SRC / "acmbundles").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path.name


@given(descriptors(), descriptors(), st.integers(-6, 6), hypersurfaces(8))
def test_kernel_operations_build_valid_descriptors(E, F, n, X):
    for result in (twist(E, n, X), dual(E), direct_sum(E, F, X), tensor(E, F, X)):
        assert_as_if_validated(result)


# The constructor and from_ch reject, with the same messages, what no
# operation on valid descriptors returns.
@pytest.mark.parametrize(
    "fields, message",
    [
        ((2, 1, Fraction(8)), "c2 must be an integer, got Fraction(8, 1)"),
        ((1, 1, 0, 3), "a rank-1 bundle has c2 = c3 = 0"),
    ],
)
def test_the_public_constructor_still_validates(fields, message):
    with pytest.raises(ValueError) as info:
        BundleDescriptor(*fields)
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


@given(st.integers(-10**4, 10**4), st.integers(1, 12))
def test_exact_int_reads_an_int_and_a_fraction_alike(n, den):
    # num/den given as a numerator and a denominator, and as one Fraction.
    calls = (lambda: _exact_int(n, "x", den), lambda: _exact_int(Fraction(n, den), "x"))
    if n % den == 0:
        values = [call() for call in calls]
        assert [type(v) for v in values] == [int, int] and values == [n // den] * 2
        return
    for call in calls:
        with pytest.raises(NotBundleClassError) as info:
            call()
        assert str(info.value) == f"x is not an integer: {Fraction(n, den)}"


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
        assert case.G == direct_sum(twist(F.descriptor(), m, QUINTIC), E.descriptor(), QUINTIC), m
    info = analysis._twisted.cache_info()
    assert 0 < info.currsize <= info.maxsize <= 64


def test_the_twist_cache_stays_within_its_bound_for_any_e():
    # E and ch(E*) are cached with E(0); feed the cache the 98 keys of F(m), m in [-6, 0],
    # with every catalog E read between them.
    for F in catalog():
        for m in range(-6, 1):
            for E in catalog():
                case = build_case(F, E, m)
                Fm = twist(F.descriptor(), m, QUINTIC)
                chi = chi_hrr(tensor(dual(E.descriptor()), Fm, QUINTIC), QUINTIC)
                assert case.chi_tensor == chi, (F.pair, E.pair, m)
    info = analysis._twisted.cache_info()
    assert 0 < info.currsize <= info.maxsize <= 64


def test_a_sweep_pass_misses_the_twist_cache_once_per_twisted_entry():
    # 14 entries at m in [-3, 0] are 56 keys; each E is read at m = 0, one of them.
    analysis._twisted.cache_clear()
    for F, E, m in _sweep():
        build_case(F, E, m)
    info = analysis._twisted.cache_info()
    assert info.misses == 56 == info.currsize <= info.maxsize
    assert info.hits == 2 * len(_sweep()) - 56


def test_every_chi_of_the_sweep_is_its_riemann_roch_value():
    # The cached characters against the routes that cache nothing: the
    # tensor product's chi for the pairing, built by the library and by the
    # expression `acmbundles eval chi` runs, and chi_hrr(G) for each verdict.
    for F, E, m in _sweep():
        report = analyze_extension(F, E, m)
        case, Fm = report.case, twist(F.descriptor(), m, QUINTIC)
        chi = chi_hrr(tensor(Fm, dual(E.descriptor()), QUINTIC), QUINTIC)
        text = f"dual(cat({E.c1},{E.c2})) * cat({F.c1},{F.c2})({m})"
        assert case.chi_tensor == chi == chi_hrr(evaluate(parse(text), QUINTIC), QUINTIC), text
        chi_G = chi_hrr(case.G, QUINTIC)
        assert chi_G == chi_hrr(Fm, QUINTIC) + E.chi
        for verdict in report.verdicts + report.rejected:
            assert verdict.details["chi_target"] == chi_G, (F.pair, E.pair, m, verdict.pair_key)


def test_a_catalog_entry_keeps_no_memo():
    for entry in catalog():
        entry.descriptor()
        copy = CatalogEntry(entry.c1, entry.c2)
        fields = list(zip(CatalogEntry._fields, entry._values()))
        assert fields == list(zip(CatalogEntry._fields, copy._values())) and not hasattr(entry, "__dict__")
        assert pickle.dumps(entry) == pickle.dumps(copy)
        assert entry.descriptor() == copy.descriptor()
    with pytest.raises(ValueError, match="c1 must be an integer, got True"):
        CatalogEntry(True, 4)


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


def test_a_warm_sweep_pass_forms_no_product_and_reads_todd_twice_per_triple(monkeypatch):
    # build_case reads chi(E, F(m)) and _classify chi(G) from integer formulas: once the
    # twist cache holds the sweep's keys, a pass multiplies no classes, and each triple
    # reads td(X) once for each of its two integrals.
    triples = _sweep()
    for F, E, m in triples:
        analyze_extension(F, E, m)
    calls = Counter()
    for name in ("mul", "todd"):
        original = getattr(Hypersurface, name)

        def counting(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(Hypersurface, name, counting)
    for F, E, m in triples:
        analyze_extension(F, E, m)
    assert (len(triples), calls["mul"], calls["todd"]) == (784, 0, 1568)


def test_a_warm_sweep_pass_reads_each_chi_from_the_two_kernels(monkeypatch):
    # build_case reads chi(E, F(m)) as the td integral of one product, and _classify reads
    # chi(G) by chi_hrr's td integral: 784 products and 1,568 integrals once the twist cache is warm.
    triples = _sweep()
    for F, E, m in triples:
        analyze_extension(F, E, m)
    calls = Counter()
    for name in ("_product", "_td_integral"):
        original = getattr(chowring, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in (chowring, bundles, analysis):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    for F, E, m in triples:
        analyze_extension(F, E, m)
    assert (len(triples), calls["_product"], calls["_td_integral"]) == (784, 784, 1568)


def test_every_to_ch_call_of_a_sweep_pass_goes_through_bundles_to_ch(monkeypatch):
    # A tracer that wraps bundles.to_ch sees every call: _twisted reads _newton and calls no to_ch,
    # so a profiler's count of to_ch's code equals the count through the module's name.
    analysis._twisted.cache_clear()
    original, through_name, callers = bundles.to_ch, Counter(), Counter()
    monkeypatch.setattr(bundles, "to_ch", lambda E, X: through_name.update([E]) or original(E, X))

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is original.__code__:
            callers[frame.f_back.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        for F, E, m in _sweep():
            analyze_extension(F, E, m)
    finally:
        sys.setprofile(None)
    assert not hasattr(analysis, "to_ch") and "_twisted" not in callers
    assert sum(callers.values()) == sum(through_name.values()) > 0
