"""Indices of non-monotonicity for functions and non-positivity for measures.

The library models sampled functions as piecewise-linear interpolants, which
makes every index an exact finite sum rather than a quadrature estimate.  On
top of the core indices sit orderings between functions (index-based and
survival-curve based), Jordan decomposition of finitely represented signed
measures, and the weighted-premium machinery that motivated the indices.

The per-cell reductions are plain NumPy, so the package needs no compiler.
Each sum is within (n + 1)·u·Σ|terms| of the exact sum of its n rounded
terms, and exact where every term and partial sum is.
"""

from .errors import (
    DegenerateWeightError,
    InvalidInputError,
    InvalidParameterError,
    MonotoniaError,
    NumericalInvariantError,
    UndefinedComparisonError,
    UndefinedIndexError,
    UndefinedRatioError,
)
from .functions import (
    DerivativeProfile,
    DerivativeTransform,
    SampledFunction,
    StandardizedFunction,
    derivative,
    integrate_transform,
    standardize,
    total_variation,
)
from .indices import (
    MonotonicityReport,
    loi,
    loi_norm,
    loi_p,
    lod,
    lod_norm,
    lom,
    lom_norm,
    normalized_indices,
    report,
)
from .measures import (
    DiscreteSignedMeasure,
    GridDensityMeasure,
    JordanPair,
    MixedSignedMeasure,
    PositivityReport,
    jordan,
    lon,
    lon_norm,
    lop,
    lop_norm,
    los,
    los_norm,
    positivity_report,
)
from .orderings import (
    OrderingVerdict,
    SurvivalCurve,
    compare,
    compare_strict,
    survival_minus,
    survival_plus,
)
from .risk import (
    WEIGHT_CATALOG,
    EmpiricalDistribution,
    GainLossReport,
    LoadingReport,
    WeightSpec,
    gain_loss,
    gain_loss_report,
    loading_covariance,
    loading_report,
    premium,
    quantile,
    v_theta,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "MonotoniaError",
    "InvalidInputError",
    "InvalidParameterError",
    "UndefinedIndexError",
    "UndefinedComparisonError",
    "DegenerateWeightError",
    "UndefinedRatioError",
    "NumericalInvariantError",
    "SampledFunction",
    "StandardizedFunction",
    "DerivativeProfile",
    "DerivativeTransform",
    "standardize",
    "derivative",
    "integrate_transform",
    "total_variation",
    "MonotonicityReport",
    "loi",
    "lod",
    "lom",
    "loi_norm",
    "lod_norm",
    "lom_norm",
    "normalized_indices",
    "loi_p",
    "report",
    "SurvivalCurve",
    "OrderingVerdict",
    "survival_minus",
    "survival_plus",
    "compare",
    "compare_strict",
    "DiscreteSignedMeasure",
    "GridDensityMeasure",
    "MixedSignedMeasure",
    "JordanPair",
    "PositivityReport",
    "jordan",
    "lop",
    "lon",
    "los",
    "lop_norm",
    "lon_norm",
    "los_norm",
    "positivity_report",
    "EmpiricalDistribution",
    "WeightSpec",
    "LoadingReport",
    "WEIGHT_CATALOG",
    "quantile",
    "premium",
    "loading_covariance",
    "v_theta",
    "GainLossReport",
    "gain_loss",
    "gain_loss_report",
    "loading_report",
]
