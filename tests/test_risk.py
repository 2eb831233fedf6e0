"""Tests for empirical quantiles, weighted premiums, loading, and gain-loss ratios."""

from __future__ import annotations

import decimal
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from monotonia import (
    DegenerateWeightError,
    EmpiricalDistribution,
    InvalidInputError,
    InvalidParameterError,
    SampledFunction,
    UndefinedRatioError,
    WEIGHT_CATALOG,
    WeightSpec,
    gain_loss,
    loading_covariance,
    loading_report,
    premium,
    quantile,
    v_theta,
)

from helpers import assert_close

QUARTET = EmpiricalDistribution([1.0, 2.0, 3.0, 4.0])
SINGLE = EmpiricalDistribution([7.0])
CONSTANT = EmpiricalDistribution([2.5, 2.5, 2.5])
COIN = EmpiricalDistribution([0.0, 1.0])
UNIT_WEIGHT = WeightSpec.sampled(SampledFunction([0.0, 1.0], [1.0, 1.0]))
TRIANGLE_WEIGHT = WeightSpec.sampled(SampledFunction([0.0, 0.5, 1.0], [0.0, 1.0, 0.0]))


def random_sample(rng: np.random.Generator, max_n: int = 12) -> EmpiricalDistribution:
    n = int(rng.integers(2, max_n + 1))
    return EmpiricalDistribution(rng.uniform(-5.0, 5.0, n))


def random_weight(rng: np.random.Generator) -> WeightSpec:
    kind = WEIGHT_CATALOG[int(rng.integers(len(WEIGHT_CATALOG)))]
    if kind == "indicator":
        return WeightSpec.indicator(float(rng.uniform(0.05, 0.95)))
    return WeightSpec(kind, float(rng.uniform(0.2, 3.0)))


class TestEmpiricalDistribution:
    def test_values_are_sorted_and_frozen(self):
        ed = EmpiricalDistribution([3.0, 1.0, 2.0])
        assert ed.values.tolist() == [1.0, 2.0, 3.0]
        assert ed.n == 3
        with pytest.raises(ValueError):
            ed.values[0] = 0.0

    def test_mean(self):
        assert QUARTET.mean() == 2.5

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(InvalidInputError):
            EmpiricalDistribution([])
        with pytest.raises(InvalidInputError):
            EmpiricalDistribution([1.0, np.nan])

    def test_quantile_steps(self):
        assert QUARTET.quantile(0.25) == 1.0
        assert QUARTET.quantile(0.26) == 2.0
        assert QUARTET.quantile(0.5) == 2.0
        assert QUARTET.quantile(0.51) == 3.0
        assert QUARTET.quantile(0.75) == 3.0
        assert QUARTET.quantile(0.7500000001) == 4.0
        assert QUARTET.quantile(1.0) == 4.0
        assert QUARTET.quantile(0.001) == 1.0

    def test_quantile_of_single_observation(self):
        for p in (0.01, 0.5, 1.0):
            assert SINGLE.quantile(p) == 7.0

    def test_quantile_level_bounds(self):
        for p in (0.0, -0.5, 1.0000001, math.nan):
            with pytest.raises(InvalidParameterError):
                QUARTET.quantile(p)

    def test_module_level_quantile_delegates(self):
        assert quantile(QUARTET, 0.5) == QUARTET.quantile(0.5)


class TestWeightSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(InvalidParameterError, match="choose one of"):
            WeightSpec("gaussian", 1.0)

    def test_missing_or_non_finite_parameter(self):
        with pytest.raises(InvalidParameterError):
            WeightSpec("esscher", None)
        with pytest.raises(InvalidParameterError):
            WeightSpec("esscher", math.inf)
        with pytest.raises(InvalidParameterError):
            WeightSpec("kamps", math.nan)

    def test_indicator_level_must_be_interior(self):
        for p in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(InvalidParameterError):
                WeightSpec.indicator(p)
        assert WeightSpec.indicator(0.5).param == 0.5

    def test_positive_parameter_families(self):
        for kind in ("proportional_hazards", "size_biased", "esscher", "kamps"):
            with pytest.raises(InvalidParameterError):
                WeightSpec(kind, 0.0)
            with pytest.raises(InvalidParameterError):
                WeightSpec(kind, -1.0)
            assert WeightSpec(kind, 2.0).param == 2.0

    def test_sampled_weight_needs_samples(self):
        with pytest.raises(InvalidParameterError):
            WeightSpec("sampled")

    def test_sampled_weight_domain_and_sign(self):
        with pytest.raises(InvalidInputError, match="cover"):
            WeightSpec.sampled(SampledFunction([0.0, 0.9], [1.0, 1.0]))
        with pytest.raises(InvalidInputError, match="non-negative"):
            WeightSpec.sampled(SampledFunction([0.0, 1.0], [1.0, -0.5]))
        # Endpoints may be off by rounding-level amounts.
        WeightSpec.sampled(SampledFunction([1e-12, 1.0 - 1e-12], [1.0, 1.0]))

    def test_sampled_weight_must_carry_mass(self):
        with pytest.raises(DegenerateWeightError):
            WeightSpec.sampled(SampledFunction([0.0, 1.0], [0.0, 0.0]))


class TestCumulativeWeight:
    def test_all_cumulatives_start_at_zero(self):
        specs = [
            WeightSpec.indicator(0.3),
            WeightSpec.proportional_hazards(2.0),
            WeightSpec.size_biased(1.5),
            WeightSpec.esscher(0.7),
            WeightSpec.kamps(1.2),
            UNIT_WEIGHT,
            TRIANGLE_WEIGHT,
        ]
        for spec in specs:
            assert float(spec.cumulative(0.0)) == 0.0
            assert spec.total_weight() > 0.0

    def test_indicator_cumulative(self):
        w = WeightSpec.indicator(0.25)
        assert w.cumulative(np.array([0.0, 0.25, 0.5, 1.0])).tolist() == [0.0, 0.0, 0.25, 0.75]

    def test_proportional_hazards_cumulative_is_distribution_like(self):
        w = WeightSpec.proportional_hazards(2.0)
        assert float(w.cumulative(1.0)) == 1.0
        assert float(w.cumulative(0.5)) == 0.75

    def test_sampled_cumulative_matches_triangle_areas(self):
        assert float(TRIANGLE_WEIGHT.cumulative(0.5)) == 0.25
        assert TRIANGLE_WEIGHT.total_weight() == 0.5
        assert float(TRIANGLE_WEIGHT.cumulative(0.25)) == 0.0625

    def test_cumulative_is_monotone(self):
        rng = np.random.default_rng(2718)
        t = np.linspace(0.0, 1.0, 257)
        for _ in range(20):
            w = random_weight(rng)
            assert np.all(np.diff(w.cumulative(t)) >= -1e-15)


class TestPremium:
    def test_indicator_average_value_at_risk(self):
        # Blocks above level 1/2 hold the two largest of four observations.
        assert premium(QUARTET, WeightSpec.indicator(0.5)) == 3.5

    def test_proportional_hazards_example(self):
        w = WeightSpec.proportional_hazards(2.0)
        assert premium(QUARTET, w) == 1.875

    def test_triangle_weight_on_coin(self):
        assert premium(COIN, TRIANGLE_WEIGHT) == 0.5

    def test_constant_sample_gives_constant_premium(self):
        for w in (
            WeightSpec.indicator(0.3),
            WeightSpec.esscher(2.0),
            WeightSpec.kamps(0.5),
            TRIANGLE_WEIGHT,
        ):
            assert_close(premium(CONSTANT, w), 2.5)

    def test_unit_weight_recovers_mean(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            ed = random_sample(rng)
            assert_close(premium(ed, UNIT_WEIGHT), ed.mean())

    def test_single_observation_is_its_own_premium(self):
        for w in (WeightSpec.esscher(1.0), WeightSpec.indicator(0.4)):
            assert_close(premium(SINGLE, w), 7.0)

    def test_esscher_premium_matches_midpoint_quadrature(self):
        lam = 1.7
        w = WeightSpec.esscher(lam)
        m = 1_000_000
        t = (np.arange(m) + 0.5) / m
        q = QUARTET.values[np.minimum(np.ceil(t * QUARTET.n).astype(int), QUARTET.n) - 1]
        wt = np.exp(lam * t)
        assert abs(premium(QUARTET, w) - float(np.sum(q * wt) / np.sum(wt))) < 1e-6

    def test_premium_is_translation_equivariant(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            ed = random_sample(rng)
            shifted = EmpiricalDistribution(ed.values + 3.25)
            w = random_weight(rng)
            assert_close(premium(shifted, w), premium(ed, w) + 3.25, rel=1e-11, abs_=1e-11)


class TestLoadingCovariance:
    def test_indicator_on_quartet(self):
        assert loading_covariance(QUARTET, WeightSpec.indicator(0.5)) == 0.5

    def test_decreasing_weight_gives_negative_loading(self):
        assert loading_covariance(QUARTET, WeightSpec.proportional_hazards(2.0)) == -0.625

    def test_constant_sample_has_zero_covariance(self):
        assert loading_covariance(CONSTANT, WeightSpec.esscher(1.0)) == 0.0
        assert loading_covariance(SINGLE, WeightSpec.esscher(1.0)) == 0.0

    def test_sign_agrees_with_premium_minus_mean(self):
        rng = np.random.default_rng(404)
        for _ in range(40):
            ed = random_sample(rng)
            w = random_weight(rng)
            cov = loading_covariance(ed, w)
            scale = float(ed.values[-1] - ed.values[0]) * w.total_weight()
            if abs(cov) > 1e-10 * max(scale, 1.0):
                assert (cov > 0.0) == (premium(ed, w) > ed.mean())

    def test_nondecreasing_weights_never_load_negatively(self):
        rng = np.random.default_rng(31337)
        specs = [
            WeightSpec.indicator(0.2),
            WeightSpec.indicator(0.8),
            WeightSpec.size_biased(0.5),
            WeightSpec.size_biased(3.0),
            WeightSpec.esscher(2.0),
            WeightSpec.kamps(1.0),
            WeightSpec.proportional_hazards(0.5),
        ]
        for _ in range(20):
            ed = random_sample(rng)
            scale = float(ed.values[-1] - ed.values[0])
            for w in specs:
                assert loading_covariance(ed, w) >= -1e-10 * max(scale, 1.0)

    def test_decreasing_weights_never_load_positively(self):
        rng = np.random.default_rng(7171)
        for _ in range(20):
            ed = random_sample(rng)
            scale = float(ed.values[-1] - ed.values[0])
            for nu in (2.0, 3.0, 5.0):
                w = WeightSpec.proportional_hazards(nu)
                assert loading_covariance(ed, w) <= 1e-10 * max(scale, 1.0)


class TestVTheta:
    def test_coin_sample_closed_form(self):
        fn, theta = v_theta(COIN)
        assert fn.xs.tolist() == [0.0, 0.5, 1.0]
        expected = [min(t, 1.0 - t) / 2.0 for t in fn.xs]
        assert fn.ys.tolist() == expected
        assert theta == 0.125

    def test_constant_sample_vanishes(self):
        fn, theta = v_theta(CONSTANT)
        assert fn.xs.tolist() == [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]
        assert theta == 0.0
        assert np.all(fn.ys == 0.0)
        fn, theta = v_theta(SINGLE)
        assert fn.xs.tolist() == [0.0, 1.0]
        assert theta == 0.0
        assert np.all(fn.ys == 0.0)

    def test_endpoints_vanish_exactly_and_interior_is_nonnegative(self):
        rng = np.random.default_rng(6464)
        for _ in range(30):
            ed = random_sample(rng, max_n=20)
            fn, theta = v_theta(ed)
            assert fn.ys[0] == 0.0
            assert fn.ys[-1] == 0.0
            scale = max(1.0, float(np.max(np.abs(ed.values))))
            assert float(np.min(fn.ys)) >= -1e-12 * scale
            assert theta >= -1e-12 * scale

    def test_theta_matches_moment_formula(self):
        # Integrating v over [0, 1] and swapping the order of integration
        # gives theta = sum x_(i) (2i - 1) / (2 n^2) - mean / 2, evaluated here
        # in exact rational arithmetic.
        rng = np.random.default_rng(5150)
        for n in (2, 3, 7, 100, 9999, 30001):
            for offset in (0.0, 1e6, -1e12):
                ed = EmpiricalDistribution(rng.uniform(-5.0, 5.0, n) + offset)
                xs = [Fraction(x) for x in ed.values.tolist()]
                exact = sum(x * (2 * i - 1) for i, x in enumerate(xs, 1)) / (2 * n * n) - sum(xs) / (2 * n)
                _, theta = v_theta(ed)
                assert_close(theta, float(exact), rel=1e-14, abs_=0.0)

    def test_knot_values_match_exact_tail_covariance(self):
        rng = np.random.default_rng(5151)
        for n in (2, 5, 13):
            ed = EmpiricalDistribution(rng.uniform(-5.0, 5.0, n) - 1e12)
            xs = [Fraction(x) for x in ed.values.tolist()]
            mean = sum(xs) / n
            fn, _ = v_theta(ed)
            assert fn.xs.tolist() == (np.arange(n + 1) / n).tolist()
            for i in range(n + 1):
                exact = sum(xs[i:]) / n - Fraction(n - i, n) * mean
                assert_close(float(fn.ys[i]), float(exact), rel=1e-14, abs_=0.0)

    def test_nonconstant_sample_has_positive_theta(self):
        _, theta = v_theta(QUARTET)
        assert theta > 0.0

    def test_grid_size_is_not_a_parameter(self):
        with pytest.raises(TypeError):
            v_theta(COIN, quad_n=10_000)


class TestGainLoss:
    def test_symmetric_line(self):
        glr, omega = gain_loss(SampledFunction([0.0, 1.0], [-0.5, 0.5]))
        assert glr == 1.0
        assert omega == 0.5

    def test_nonnegative_function(self):
        glr, omega = gain_loss(SampledFunction([0.0, 2.0], [1.0, 3.0]))
        assert glr == math.inf
        assert omega == 1.0

    def test_nonpositive_function(self):
        glr, omega = gain_loss(SampledFunction([0.0, 2.0], [-1.0, -3.0]))
        assert glr == 0.0
        assert omega == 0.0

    def test_zero_function_is_undefined(self):
        with pytest.raises(UndefinedRatioError):
            gain_loss(SampledFunction([0.0, 1.0], [0.0, 0.0]))

    def test_shifted_sine_oracle(self):
        xs = np.linspace(0.0, 1.0, 100_001)
        glr, omega = gain_loss(SampledFunction(xs, np.sin(2.0 * math.pi * xs) + 0.3))
        a = math.asin(0.3)
        width = (math.pi - 2.0 * a) / (2.0 * math.pi)
        neg = math.cos(a) / math.pi - 0.3 * width
        pos = neg + 0.3
        assert_close(glr, pos / neg, rel=1e-6, abs_=1e-6)
        assert_close(omega, pos / (pos + neg), rel=1e-6, abs_=1e-6)
        assert glr >= 1.0 and omega >= 0.5

    def test_scale_invariance(self):
        base = SampledFunction([0.0, 1.0, 2.0], [1.0, -2.0, 0.5])
        glr0, omega0 = gain_loss(base)
        glr1, omega1 = gain_loss(SampledFunction(base.xs, 4.0 * base.ys))
        assert glr0 == glr1
        assert omega0 == omega1

    def test_predicates_agree_with_integral_sign(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            n = int(rng.integers(3, 10))
            xs = np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 2.0, n))))
            ys = rng.uniform(-3.0, 3.0, n + 1)
            f = SampledFunction(xs, ys)
            area = float(np.trapezoid(f.ys, f.xs) if hasattr(np, "trapezoid") else np.trapz(f.ys, f.xs))
            if abs(area) < 1e-9:
                continue
            glr, omega = gain_loss(f)
            assert (area > 0.0) == (glr > 1.0) == (omega > 0.5)


class TestLoadingReport:
    def test_fields_match_components(self):
        w = WeightSpec.indicator(0.5)
        rep = loading_report(QUARTET, w)
        assert rep.premium == premium(QUARTET, w)
        assert rep.net_premium == 2.5
        assert rep.covariance == loading_covariance(QUARTET, w)
        assert rep.loading_nonneg is True
        assert rep.gain_loss_ratio is not None and rep.gain_loss_ratio > 1.0
        assert rep.omega_style_ratio is not None and rep.omega_style_ratio > 0.5

    def test_negative_loading(self):
        rep = loading_report(QUARTET, WeightSpec.proportional_hazards(2.0))
        assert rep.covariance == -0.625
        assert rep.loading_nonneg is False
        assert rep.gain_loss_ratio < 1.0
        assert rep.omega_style_ratio < 0.5

    def test_constant_sample_has_no_ratios(self):
        rep = loading_report(CONSTANT, WeightSpec.esscher(1.0))
        assert rep.covariance == 0.0
        assert rep.loading_nonneg is True
        assert rep.gain_loss_ratio is None
        assert rep.omega_style_ratio is None
        assert_close(rep.premium, 2.5)

    def test_three_predicates_are_consistent(self):
        rng = np.random.default_rng(990)
        for _ in range(40):
            ed = random_sample(rng)
            w = random_weight(rng)
            rep = loading_report(ed, w)
            scale = float(ed.values[-1] - ed.values[0]) * w.total_weight()
            if abs(rep.covariance) <= 1e-10 * max(scale, 1.0):
                continue
            assert (rep.covariance > 0.0) == (rep.gain_loss_ratio > 1.0)
            assert (rep.covariance > 0.0) == (rep.omega_style_ratio > 0.5)


class TestEsscherSmallParameterLimit:
    def test_loading_slope_matches_uniform_covariance(self):
        # To first order in lam the Esscher loading is lam times the
        # covariance of the quantile function with the identity.
        i = np.arange(1, QUARTET.n + 1)
        c1 = float(np.sum(QUARTET.values * (2 * i - 1 - QUARTET.n))) / (2.0 * QUARTET.n**2)
        for lam, tol in ((1e-4, 1e-3), (1e-6, 1e-5)):
            slope = (premium(QUARTET, WeightSpec.esscher(lam)) - QUARTET.mean()) / lam
            assert abs(slope - c1) < tol


def kamps_cumulative_exact(lam: float, t: float) -> float:
    """W(t) = t - (1 - exp(-lam t)) / lam in 700-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 700
        lam_d, t_d = Decimal(lam), Decimal(t)
        return float(t_d - (1 - (-lam_d * t_d).exp()) / lam_d)


class TestKampsSmallParameter:
    # The closed form t + expm1(-lam t)/lam cancels as lam t -> 0.
    LAMBDAS = (1e-300, 1e-8, 1e-3, 0.1249, 0.125, 0.1251, 1.0, 40.0)

    def test_cumulative_matches_high_precision(self):
        t = np.array([0.001, 0.25, 0.5, 0.9, 1.0])
        for lam in self.LAMBDAS:
            got = WeightSpec.kamps(lam).cumulative(t)
            for ti, gi in zip(t.tolist(), got.tolist()):
                assert_close(gi, kamps_cumulative_exact(lam, ti), rel=1e-13, abs_=0.0)

    def test_tiny_parameter_premium_reaches_the_squared_weight_limit(self):
        # As lam -> 0, W(t)/W(1) -> t**2, the size-biased weight w(t) = 2t.
        coin = EmpiricalDistribution([1.0, 2.0])
        limit = premium(coin, WeightSpec.size_biased(1.0))
        assert limit == 1.75
        w = WeightSpec.kamps(1e-300)
        t = np.linspace(0.0, 1.0, 9)
        assert np.allclose(w.cumulative(t) / w.total_weight(), t**2, rtol=1e-12, atol=0.0)
        assert_close(premium(coin, w), limit, rel=1e-12, abs_=0.0)
        # At lam = 1e-8 the exact premium is limit - lam/24 + O(lam**2).
        exact = 2.0 - kamps_cumulative_exact(1e-8, 0.5) / kamps_cumulative_exact(1e-8, 1.0)
        assert_close(premium(coin, WeightSpec.kamps(1e-8)), exact, rel=1e-12)
        assert_close(exact, limit - 1e-8 / 24.0, rel=1e-15)


def esscher_normalized_exact(lam: float, t: float) -> Decimal:
    """W(t)/W(1) = (exp(lam t) - 1)/(exp(lam) - 1) in 700-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 700
        lam_d, t_d = Decimal(lam), Decimal(t)
        return ((lam_d * t_d).exp() - 1) / (lam_d.exp() - 1)


@pytest.mark.filterwarnings("error")
class TestEsscherLargeParameter:
    # expm1(lam t)/lam overflows for lam above about 709.
    LAMBDAS = (1e-8, 1.0, 800.0, 1e3)

    def test_normalized_cumulative_matches_high_precision(self):
        t = np.array([0.0, 0.001, 0.25, 0.5, 0.9, 0.999, 1.0])
        for lam in self.LAMBDAS:
            got = WeightSpec.esscher(lam).normalized_cumulative(t)
            for ti, gi in zip(t.tolist(), got.tolist()):
                # exp(lam (t - 1)) carries lam |t - 1| rounding errors of its argument.
                assert_close(gi, float(esscher_normalized_exact(lam, ti)), rel=(lam + 8.0) * 2.0**-52, abs_=0.0)

    def test_premium_matches_high_precision(self):
        for values in ([1.0, 2.0, 3.0], [0.5, 1.0, 1.0, 4.0, 7.25]):
            ed = EmpiricalDistribution(values)
            n = len(values)
            for lam in self.LAMBDAS:
                cum = [esscher_normalized_exact(lam, i / n) for i in range(n + 1)]
                exact = float(sum(Decimal(v) * (b - a) for v, a, b in zip(values, cum, cum[1:])))
                assert_close(premium(ed, WeightSpec.esscher(lam)), exact, rel=1e-12, abs_=0.0)

    def test_covariance_names_the_overflowing_total_weight(self):
        with pytest.raises(InvalidParameterError) as excinfo:
            loading_covariance(EmpiricalDistribution([1.0, 2.0, 3.0]), WeightSpec.esscher(800.0))
        assert str(excinfo.value) == "the total weight of esscher(800.0) overflows float64"

    def test_cumulative_names_the_overflowing_weight(self):
        with pytest.raises(InvalidParameterError) as excinfo:
            WeightSpec.esscher(800.0).cumulative([0.5, 1.0])
        assert str(excinfo.value) == "the cumulative weight of esscher(800.0) overflows float64"
        with pytest.raises(InvalidParameterError) as excinfo:
            WeightSpec.esscher(800.0).total_weight()
        assert str(excinfo.value) == "the total weight of esscher(800.0) overflows float64"
