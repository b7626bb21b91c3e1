"""Exact Chern-class calculus for ACM bundles on hypersurface threefolds.

The package has four library layers and a CLI:

* :mod:`acmbundles.chowring` — truncated Chow-ring arithmetic on a smooth
  degree-r hypersurface threefold in P^4, with tangent Chern and Todd classes;
* :mod:`acmbundles.bundles` — bundle descriptors and their calculus (duals,
  twists, tensor products, direct sums, Riemann-Roch Euler characteristics);
* :mod:`acmbundles.catalog` — the fourteen admissible (c1, c2) pairs of
  normalized indecomposable rank-2 ACM bundles on the quintic;
* :mod:`acmbundles.analysis` — the seven-row extension table and the
  splitting-exclusion engine certifying rank-4 extensions indecomposable;
* :mod:`acmbundles.cli` / :mod:`acmbundles.expr` — command line and a small
  expression language for bundle arithmetic.
"""

from .analysis import (
    BoundNotJustifiedError,
    CaseReport,
    ExtensionCase,
    QUINTIC,
    SplitVerdict,
    UnsupportedDegreeError,
    analyze_case,
    analyze_extension,
    build_case,
    enumerate_split_candidates,
    ext1_lower_bound,
    extension_cases,
)
from .bundles import (
    BundleDescriptor,
    NormalizationUnknownError,
    NotBundleClassError,
    chi_hrr,
    chi_rank2,
    direct_sum,
    dual,
    from_ch,
    is_semistable,
    is_stable,
    tensor,
    to_ch,
    twist,
)
from .catalog import CatalogEntry, catalog, h0_acm_twist, lookup
from .chowring import ChowClass, Hypersurface, integrate

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ChowClass",
    "Hypersurface",
    "integrate",
    "BundleDescriptor",
    "NotBundleClassError",
    "NormalizationUnknownError",
    "to_ch",
    "from_ch",
    "dual",
    "twist",
    "tensor",
    "direct_sum",
    "chi_hrr",
    "chi_rank2",
    "is_semistable",
    "is_stable",
    "CatalogEntry",
    "catalog",
    "lookup",
    "h0_acm_twist",
    "QUINTIC",
    "ExtensionCase",
    "SplitVerdict",
    "CaseReport",
    "UnsupportedDegreeError",
    "BoundNotJustifiedError",
    "build_case",
    "extension_cases",
    "ext1_lower_bound",
    "enumerate_split_candidates",
    "analyze_case",
    "analyze_extension",
]
