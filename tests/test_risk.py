"""Tests for empirical quantiles, weighted premiums, loading, and gain-loss ratios."""

from __future__ import annotations

import decimal
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from monotonia import (
    DegenerateWeightError,
    EmpiricalDistribution,
    GainLossReport,
    InvalidInputError,
    InvalidParameterError,
    SampledFunction,
    UndefinedRatioError,
    WEIGHT_CATALOG,
    WeightSpec,
    gain_loss,
    gain_loss_report,
    loading_covariance,
    loading_report,
    premium,
    quantile,
    v_theta,
)
from monotonia import _backend, risk
from monotonia.risk import _block_weights, _value_split

from helpers import assert_close, assert_sum_within_bound

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

    def test_the_sample_is_copied_once(self):
        sample = np.random.default_rng(11).normal(size=100_000)
        tracemalloc.start()
        try:
            ed = EmpiricalDistribution(sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * sample.nbytes
        assert ed.values.tolist() == np.sort(sample, kind="stable").tolist()

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

    @pytest.mark.filterwarnings("error")
    def test_sampled_weight_with_large_ordinates(self):
        # The sum of two neighbouring ordinates overflows; their mean does not.
        flat = WeightSpec.sampled(SampledFunction([0.0, 0.5, 1.0], [1.7e308] * 3))
        assert flat.total_weight() == 1.7e308
        assert float(flat.cumulative(0.5)) == 8.5e307
        rising = WeightSpec.sampled(SampledFunction([0.0, 1.0], [1e308, 1.7e308]))
        assert rising.total_weight() == 1.35e308
        # W(t) = 1e308 t + 0.35e308 t**2, so the blocks weigh 0.5875 and 0.7625 of 1.35.
        assert_close(premium(EmpiricalDistribution([1.0, 2.0]), rising), (0.5875 + 2.0 * 0.7625) / 1.35)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_sampled_weight_names_the_samples(self):
        # Within the domain tolerance the samples reach past [0, 1], and W(1) past float64.
        top = float(np.finfo(np.float64).max)
        with pytest.raises(InvalidInputError) as excinfo:
            WeightSpec.sampled(SampledFunction([-1e-9, 1.0 + 5e-10], [top, top]))
        assert str(excinfo.value) == "the total weight of the weight samples overflows float64"

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

    def test_a_range_beyond_float64_gives_the_true_knots(self):
        x = 1.7e308
        fn, theta = v_theta(EmpiricalDistribution([-x, x]))
        assert fn.ys.tolist() == [0.0, 0.5 * x, 0.0]
        assert theta == 0.25 * x

    @pytest.mark.parametrize(
        "values",
        [
            [-1.7e308, 1.7e308],
            [-1.7e308, 1.7e308, 1.7e308],
            [-1.7e308, -1.7e308, 1.7e308, 1.7e308],
            # The centring stays finite, but the partial sums would not.
            [-5e307] * 10 + [5e307] * 10,
            [-1e305] * 1000 + [0.5, 3.0] + [1e305] * 999,
        ],
    )
    def test_extreme_samples_give_the_scaled_bits(self, values):
        # Scaling a sample by a power of two scales v and theta exactly,
        # also where the large sample is centred from scaled order statistics.
        fn, theta = v_theta(EmpiricalDistribution(values))
        small_fn, small_theta = v_theta(EmpiricalDistribution(np.array(values) * 2.0**-40))
        assert fn.ys.tolist() == (small_fn.ys * 2.0**40).tolist()
        assert theta == small_theta * 2.0**40

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


@pytest.mark.filterwarnings("error")
class TestGainLossReport:
    def test_ratios_are_those_of_gain_loss_and_the_integral_agrees(self):
        rng = np.random.default_rng(3131)
        functions = [
            SampledFunction([0.0, 1.0], [-0.5, 0.5]),
            SampledFunction([0.0, 2.0], [1.0, 3.0]),
            SampledFunction([0.0, 2.0], [-1.0, -3.0]),
        ]
        for _ in range(100):
            n = int(rng.integers(1, 12))
            xs = np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 2.0, n))))
            functions.append(SampledFunction(xs, rng.uniform(-3.0, 3.0, n + 1)))
        for g in functions:
            rep = gain_loss_report(g)
            assert isinstance(rep, GainLossReport)
            assert (rep.glr, rep.omega_style) == gain_loss(g)
            assert rep.integral_nonneg == (rep.glr >= 1.0) == (rep.integral >= 0.0)

    def test_integral_is_the_signed_area(self):
        # Gains 1/4 + 1/6 and a loss of 1/24, the second cell split at its root x = 2/3.
        rep = gain_loss_report(SampledFunction([0.0, 0.5, 1.0], [0.0, 1.0, -0.5]))
        assert_close(rep.integral, 0.375)
        assert_close(rep.glr, 10.0)
        assert rep.integral_nonneg

    def test_zero_function_is_undefined(self):
        with pytest.raises(UndefinedRatioError):
            gain_loss_report(SampledFunction([0.0, 1.0], [0.0, 0.0]))

    @pytest.mark.parametrize(
        "xs, ys, want",
        [
            # a − b overflows in the crossing cell, whose root is at its middle.
            ([0.0, 1.0], [1e308, -1e308], (1.0, 0.5, 0.0, True)),
            # a + b overflows.
            ([0.0, 1.0], [1.7e308, 1.7e308], (math.inf, 1.0, 1.7e308, True)),
            # The width overflows.
            ([-1e308, 1e308], [1.0, -1.0], (1.0, 0.5, 0.0, True)),
            ([-1e308, 1e308], [-0.25, -0.75], (0.0, 0.0, -1e308, False)),
            # Gains and losses of 1.25e308 each: their sum, the denominator of omega, overflows.
            ([0.0, 1.0, 2.0, 3.0], [1e308, 1e308, -1e308, -1e308], (1.0, 0.5, 0.0, True)),
        ],
    )
    def test_extreme_samples_give_the_true_values(self, xs, ys, want):
        rep = gain_loss_report(SampledFunction(xs, ys))
        assert (rep.glr, rep.omega_style, rep.integral, rep.integral_nonneg) == want

    def test_scaling_by_powers_of_two_scales_the_integral_exactly(self):
        # Values near the top of float64, on narrow cells: many a + b and a − b
        # overflow, and the halved cells must give the scaled results bit for bit.
        rng = np.random.default_rng(3232)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            xs = np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 2.0, n))))
            ys = rng.uniform(-3.0, 3.0, n + 1)
            small = gain_loss_report(SampledFunction(xs, ys))
            big = gain_loss_report(SampledFunction(xs * 2.0**-10, ys * 2.0**1022))
            assert (big.glr, big.omega_style, big.integral_nonneg) == (small.glr, small.omega_style, small.integral_nonneg)
            assert big.integral == small.integral * 2.0**1012

    @pytest.mark.parametrize(
        "xs, ys, part",
        [
            ([-1e308, 1e308], [1e308, 1e308], "positive"),
            ([0.0, 1.0, 2.0], [1e308, 1e308, 1e308], "positive"),
            ([0.0, 1.0, 2.0], [-1e308, -1e308, -1e308], "negative"),
        ],
    )
    def test_a_part_wider_than_float64_names_its_integral(self, xs, ys, part):
        with pytest.raises(InvalidInputError) as excinfo:
            gain_loss_report(SampledFunction(xs, ys))
        assert str(excinfo.value) == f"the integral of the {part} part of g overflows float64"

    @pytest.mark.parametrize(
        "xs, ys, part",
        [
            ([0.0, 5e-324], [5e-324, 5e-324], "positive"),
            ([0.0, 1e-200], [1e-200, -1e-200], "positive"),
            ([0.0, 5e-324], [-5e-324, -5e-324], "negative"),
            # A positive part of 0.5 and a negative part of 2.5e-324, which rounds to zero.
            ([0.0, 1.0, 2.0], [1.0, 0.0, -5e-324], "negative"),
        ],
    )
    def test_a_part_below_float64_names_its_integral(self, xs, ys, part):
        with pytest.raises(InvalidInputError) as excinfo:
            gain_loss_report(SampledFunction(xs, ys))
        assert str(excinfo.value) == f"the integral of the {part} part of g underflows float64"

    @pytest.mark.parametrize(
        "ys, glr",
        [
            # A part of 5e-35 next to a part of 0.5: 1 - t rounds to 0 here.
            ([1.0, -1e-17], 1e34),
            ([-1.0, 1e-17], 1e-34),
        ],
    )
    def test_a_tiny_crossing_is_no_underflow(self, ys, glr):
        rep = gain_loss_report(SampledFunction([0.0, 1.0], ys))
        assert math.isclose(rep.glr, glr, rel_tol=1e-12)
        assert rep.integral_nonneg is (glr >= 1.0)

    @pytest.mark.parametrize(
        "xs, ys, integral",
        [
            # A sub-normal width, where 0.5 * h rounds to 0: parts of about 5e-24.
            ([0.0, 5e-324], [1e300, 1e300], Fraction(5e-324) * Fraction(1e300)),
            # A sub-normal a + b over a wide cell.
            ([0.0, 1e300], [5e-324, 0.0], Fraction(1e300) * Fraction(5e-324) / 2),
            # h * (a + b) overflows, though half of it does not.
            ([0.0, 1e300], [1.5e8, 1.5e8], Fraction(1e300) * Fraction(1.5e8)),
        ],
    )
    def test_a_part_is_formed_without_a_premature_underflow_or_overflow(self, xs, ys, integral):
        rep = gain_loss_report(SampledFunction(xs, ys))
        assert (rep.glr, rep.omega_style, rep.integral) == (math.inf, 1.0, float(integral))

    def test_a_crossing_cell_of_sub_normal_width_has_two_parts(self):
        # Each part is 5e-324 * 1e300 / 4, about 1.2e-24.
        rep = gain_loss_report(SampledFunction([0.0, 5e-324], [1e300, -1e300]))
        assert (rep.glr, rep.omega_style, rep.integral) == (1.0, 0.5, 0.0)
        part = float(Fraction(5e-324) * Fraction(1e300) / 4)
        assert _value_split(SampledFunction([0.0, 5e-324], [1e300, -1e300])) == (part, part)

    def test_one_reduction(self, split_calls):
        gain_loss_report(SampledFunction([0.0, 1.0, 2.0, 3.0], [1.0, -2.0, -1.0, 3.0]))
        # Three cells and the far parts of the two crossing cells.
        assert split_calls == [5]

    def test_parts_are_within_the_backend_bound_of_the_masses(self):
        rng = np.random.default_rng(3333)
        for n in (1, 2, 7, _backend.BLOCK - 1, _backend.BLOCK + 1, 3 * _backend.BLOCK + 5):
            xs = np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 2.0, n))))
            ys = rng.uniform(-3.0, 3.0, n + 1)
            a, b, h = ys[:-1], ys[1:], np.diff(xs)
            crossing = a * b < 0.0
            t = a / (a - b)
            # Whole cells, and each crossing cell split at its root into a part of a's sign and one of b's.
            masses = np.concatenate(
                (np.where(crossing, 0.5 * h * t * a, 0.5 * h * (a + b)), (0.5 * h * (1.0 - t) * b)[crossing])
            ).tolist()
            pos, neg = _value_split(SampledFunction(xs, ys))
            assert_sum_within_bound(pos, [m for m in masses if m > 0.0])
            assert_sum_within_bound(neg, [-m for m in masses if m < 0.0])

    def test_a_ratio_beyond_float64_is_an_input_error(self):
        # Gains of 1.5e300 over losses of 5e-11: the ratio is no "nothing negative" infinity.
        with pytest.raises(InvalidInputError) as excinfo:
            gain_loss_report(SampledFunction([0.0, 1.0, 2.0, 3.0], [1e300, 1e300, 0.0, -1e-10]))
        assert str(excinfo.value) == "the gain-loss ratio 1.5e+300 / 5e-11 overflows float64"


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

    def test_a_ratio_beyond_float64_is_an_input_error(self):
        # The lower block weighs 0.5**(lam + 1), about 4e-314 or 1e-321: a loss, not the zero of "nothing lost".
        for lam in (1040.0, 1065.0):
            with pytest.raises(InvalidInputError, match=r"^the gain-loss ratio 0\.5 / .* overflows float64$"):
                loading_report(EmpiricalDistribution([0.0, 1.0]), WeightSpec.size_biased(lam))

    def test_a_loss_below_float64_is_an_input_error(self):
        # At lam = 1073 the lower block weighs 2**-1074 and its loss, 0.5 * 2**-1074, rounds to 0.
        with pytest.raises(InvalidInputError) as excinfo:
            loading_report(EmpiricalDistribution([0.0, 1.0]), WeightSpec.size_biased(1073.0))
        assert str(excinfo.value) == "the integral of the negative part of (quantile - mean) * weight underflows float64"

    def test_a_part_beyond_float64_is_an_input_error(self):
        # The top block carries nearly all the weight, and its gain is about 1.1e308 * 2.
        with pytest.raises(InvalidInputError) as excinfo:
            loading_report(EmpiricalDistribution([-1.7e308, -1.7e308, 1.7e308]), WeightSpec.size_biased(1000.0))
        assert str(excinfo.value) == "the integral of the positive part of (quantile - mean) * weight overflows float64"

    @pytest.mark.parametrize(
        "values, w",
        [
            # The range, and so the old tolerance 1e-9 * range, overflows.
            ([-1.7e308, 1.7e308], WeightSpec.proportional_hazards(2.0)),
            # np.mean overflows.
            ([1.6e308, 1.7e308, 1.7e308], WeightSpec.esscher(0.8)),
            # quantile - mean overflows.
            ([-1.7e308, 1.7e308, 1.7e308], WeightSpec.esscher(0.8)),
        ],
    )
    def test_extreme_samples_give_the_scaled_report(self, values, w):
        # Scaling the sample by a power of two scales the premiums and the
        # covariance exactly, and leaves the verdict and the ratios as they are.
        rep = loading_report(EmpiricalDistribution(values), w)
        small = loading_report(EmpiricalDistribution(np.array(values) * 2.0**-10), w)
        assert (rep.premium, rep.net_premium, rep.covariance) == tuple(
            v * 2.0**10 for v in (small.premium, small.net_premium, small.covariance)
        )
        assert (rep.loading_nonneg, rep.gain_loss_ratio, rep.omega_style_ratio) == (
            small.loading_nonneg,
            small.gain_loss_ratio,
            small.omega_style_ratio,
        )
        assert rep.loading_nonneg is (rep.covariance >= 0.0)
        assert rep.loading_nonneg is (rep.gain_loss_ratio >= 1.0)

    def test_mean_of_a_sample_whose_sum_overflows(self):
        ed = EmpiricalDistribution([1.6e308, 1.7e308, 1.7e308])
        assert ed.mean() == EmpiricalDistribution([1.6e308 / 4, 1.7e308 / 4, 1.7e308 / 4]).mean() * 4
        assert_close(ed.mean(), float(sum(map(Fraction, ed.values.tolist())) / 3), rel=1e-15, abs_=0.0)

    def test_one_reduction(self, split_calls):
        loading_report(QUARTET, WeightSpec.esscher(0.8))
        assert split_calls == [4]

    def test_parts_keep_the_bits_of_the_masked_sums(self, monkeypatch):
        parts = []
        monkeypatch.setattr(risk, "_ratios", lambda gains, losses: parts.append((gains, losses)) or (1.0, 0.5))
        rng = np.random.default_rng(4444)
        for n in (2, 3, 100, _backend.BLOCK):
            ed = EmpiricalDistribution(rng.normal(size=n))
            for w in (WeightSpec.esscher(0.8), WeightSpec.proportional_hazards(2.0), WeightSpec.indicator(0.3)):
                loading_report(ed, w)
                blocks = _block_weights(ed, w)
                centered = ed.values - ed.mean()
                gains = float(np.sum(np.maximum(centered, 0.0) * blocks))
                losses = float(np.sum(np.maximum(-centered, 0.0) * blocks))
                assert parts.pop() == (gains, losses)

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
