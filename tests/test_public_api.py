"""The package namespace: each module declares its public names once, in its ``__all__``."""

import monotonia

PUBLIC = {
    "__version__",
    # errors
    "MonotoniaError",
    "InvalidInputError",
    "InvalidParameterError",
    "UndefinedIndexError",
    "UndefinedComparisonError",
    "DegenerateWeightError",
    "UndefinedRatioError",
    "NumericalInvariantError",
    # functions
    "SampledFunction",
    "StandardizedFunction",
    "DerivativeProfile",
    "DerivativeTransform",
    "standardize",
    "derivative",
    "integrate_transform",
    "total_variation",
    # indices
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
    # orderings
    "SurvivalCurve",
    "OrderingVerdict",
    "survival_minus",
    "survival_plus",
    "compare",
    "compare_strict",
    # measures
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
    # risk
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
}


def test_the_public_names_are_pinned_and_declared_once():
    assert len(PUBLIC) == 58
    assert set(monotonia.__all__) == PUBLIC
    assert len(monotonia.__all__) == len(PUBLIC)
    for name in PUBLIC:
        getattr(monotonia, name)
