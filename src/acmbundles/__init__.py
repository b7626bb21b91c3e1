"""Exact Chern-class calculus for ACM bundles on hypersurface threefolds.

The package has four library layers and a CLI:

* :mod:`acmbundles.chowring` — truncated Chow-ring arithmetic on a smooth
  degree-r hypersurface threefold in P^4, with tangent Chern and Todd classes;
* :mod:`acmbundles.bundles` — bundle descriptors and their calculus (duals,
  twists, tensor products, direct sums and Riemann-Roch chi);
* :mod:`acmbundles.catalog` — the fourteen admissible (c1, c2) pairs of
  normalized indecomposable rank-2 ACM bundles on the quintic;
* :mod:`acmbundles.analysis` — the seven-row extension table and the
  splitting-exclusion engine certifying rank-4 extensions indecomposable;
* :mod:`acmbundles.cli` / :mod:`acmbundles.expr` — command line and a small
  expression language for bundle arithmetic.

The package re-exports ``chowring.__all__``, ``bundles.__all__`` and the
catalog's four names; the analysis names are loaded on first access, and
``acmbundles.catalog`` is the function, not the submodule.
"""

from . import bundles, chowring
from .bundles import *  # noqa: F403
from .catalog import CatalogEntry, catalog, h0_acm_twist, lookup
from .chowring import *  # noqa: F403

__version__ = "0.1.0"

# Bound on first access by ``__getattr__``.
_ANALYSIS = (
    "ExtensionCase",
    "SplitVerdict",
    "CaseReport",
    "build_case",
    "extension_cases",
    "analyze_case",
    "analyze_extension",
)

__all__ = ["__version__", *chowring.__all__, *bundles.__all__,
           "CatalogEntry", "catalog", "lookup", "h0_acm_twist", *_ANALYSIS]


def __getattr__(name: str):
    if name not in _ANALYSIS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import analysis

    return getattr(analysis, name)
