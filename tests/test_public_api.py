"""The package namespace: each module declares its public names once, in its ``__all__``."""

import pytest

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
    "derivative",
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
    assert len(PUBLIC) == 53
    assert set(monotonia.__all__) == PUBLIC
    assert len(monotonia.__all__) == len(PUBLIC)
    for name in PUBLIC:
        getattr(monotonia, name)


F = monotonia.SampledFunction([0.0, 1.0], [0.0, 1.0])
# The public functions of one sampled function, and the arguments they take after it.
ONE_ARGUMENT = (
    "loi", "lod", "lom", "total_variation", "normalized_indices", "report", "derivative",
    "survival_minus", "survival_plus", "gain_loss_report", "gain_loss",
)
OF_A_FUNCTION = {
    **{name: () for name in ONE_ARGUMENT},
    "loi_p": (2.0,),
    "compare": (F, "I"),
    "compare_strict": (F, "SI"),
}


@pytest.mark.parametrize("name", OF_A_FUNCTION)
def test_anything_but_a_sampled_function_is_rejected_by_type(name):
    with pytest.raises(monotonia.InvalidInputError, match=r"^expected a SampledFunction, got list$"):
        getattr(monotonia, name)([0.0, 1.0], *OF_A_FUNCTION[name])
