"""Function model: validation, standardization, derivatives, exact integration."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from monotonia import (
    DerivativeProfile,
    DerivativeTransform,
    InvalidInputError,
    InvalidParameterError,
    SampledFunction,
    StandardizedFunction,
    derivative,
    integrate_transform,
    standardize,
    total_variation,
)

from helpers import assert_close, assert_sum_within_bound, dyadic_function, dyadic_functions


class TestSampledFunctionValidation:
    def test_needs_two_samples(self):
        with pytest.raises(InvalidInputError):
            SampledFunction(np.array([0.0]), np.array([1.0]))

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            SampledFunction(np.array([0.0, 1.0]), np.array([1.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            SampledFunction(np.array([0.0, 1.0]), np.array([0.0, np.nan]))
        with pytest.raises(InvalidInputError):
            SampledFunction(np.array([0.0, np.inf]), np.array([0.0, 1.0]))

    def test_rejects_duplicate_abscissa_naming_positions(self):
        with pytest.raises(InvalidInputError, match=r"^duplicate abscissa x=1\.0 at positions 1 and 2$"):
            SampledFunction(np.array([0.0, 1.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.0, 3.0]))

    def test_rejects_decreasing_grid(self):
        with pytest.raises(InvalidInputError, match="strictly increasing"):
            SampledFunction(np.array([0.0, 2.0, 1.0]), np.array([0.0, 1.0, 2.0]))

    def test_rejects_2d_input(self):
        with pytest.raises(InvalidInputError):
            SampledFunction(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_arrays_are_frozen(self):
        f = SampledFunction(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            f.xs[0] = 5.0

    def test_from_callable_validation(self):
        with pytest.raises(InvalidParameterError):
            SampledFunction.from_callable(math.sin, 1.0, 1.0, 10)
        with pytest.raises(InvalidParameterError):
            SampledFunction.from_callable(math.sin, 0.0, 1.0, 1)


class TestEvaluation:
    def test_value_at_interpolates(self):
        f = SampledFunction(np.array([0.0, 2.0]), np.array([0.0, 4.0]))
        assert f.value_at(0.5) == 1.0
        assert f.value_at(2.0) == 4.0

    def test_value_at_rejects_outside(self):
        f = SampledFunction(np.array([0.0, 2.0]), np.array([0.0, 4.0]))
        with pytest.raises(InvalidParameterError):
            f.value_at(2.5)

    def test_restrict_interpolates_endpoints(self):
        f = SampledFunction(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0]))
        r = f.restrict(0.5, 1.5)
        assert r.xs[0] == 0.5 and r.xs[-1] == 1.5
        assert r.ys[0] == 0.5 and r.ys[-1] == 0.5
        assert r.value_at(1.0) == 1.0

    def test_restrict_rejects_outside_range(self):
        f = SampledFunction(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        with pytest.raises(InvalidParameterError):
            f.restrict(-0.5, 0.5)


class TestStandardize:
    def test_sine_becomes_one_minus_cos(self):
        xs = np.linspace(-math.pi / 2, math.pi, 20_001)
        f0 = SampledFunction(xs, np.sin(xs))
        g = standardize(f0)
        assert g.inner.xs[0] == 0.0 and g.inner.ys[0] == 0.0
        assert_close(g.span, 3 * math.pi / 2, rel=1e-12)
        for x in (0.3, 1.0, 2.5, 4.0):
            assert_close(g.inner.value_at(x), 1.0 - math.cos(x), rel=1e-6, abs_=1e-6)

    def test_constant_becomes_zero_function(self):
        f0 = SampledFunction(np.array([0.0, 0.5, 1.0]), np.array([3.0, 3.0, 3.0]))
        g = standardize(f0)
        assert np.all(g.inner.ys == 0.0)

    def test_identity_slope_preserved(self):
        f0 = SampledFunction(np.array([5.0, 6.0, 7.0]), np.array([5.0, 6.0, 7.0]))
        g = standardize(f0)
        assert np.array_equal(g.inner.xs, np.array([0.0, 1.0, 2.0]))
        assert np.array_equal(g.inner.ys, np.array([0.0, 1.0, 2.0]))

    def test_grid_cells_preserved_one_to_one(self):
        rng = np.random.default_rng(11)
        f0 = dyadic_function(rng)
        g = standardize(f0)
        assert g.inner.xs.shape == f0.xs.shape
        assert np.array_equal(np.diff(g.inner.xs), np.diff(f0.xs))

    def test_idempotent_in_effect(self):
        rng = np.random.default_rng(12)
        f0 = dyadic_function(rng)
        g = standardize(f0)
        g2 = standardize(g.inner)
        assert np.array_equal(g.inner.xs, g2.inner.xs)
        assert np.array_equal(g.inner.ys, g2.inner.ys)

    def test_wrapper_rejects_unshifted(self):
        with pytest.raises(InvalidInputError):
            StandardizedFunction(SampledFunction(np.array([1.0, 2.0]), np.array([0.0, 1.0])))


class TestDerivative:
    def test_difference_quotients(self):
        g = SampledFunction(np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 1.0, 1.0, 0.0]))
        profile = derivative(g)
        assert np.array_equal(profile.lengths, np.array([1.0, 1.0, 1.0]))
        assert np.array_equal(profile.slopes, np.array([1.0, 0.0, -1.0]))

    def test_linear_constant_slope(self):
        xs = np.array([0.0, 0.25, 0.8, 1.0])
        g = SampledFunction(xs, 2.0 * xs)
        assert np.all(derivative(g).slopes == 2.0)

    def test_smooth_function_slopes_near_midpoint_derivative(self):
        n = 100_000
        xs = np.linspace(0.0, 3 * math.pi / 2, n)
        g = SampledFunction(xs, 1.0 - np.cos(xs))
        profile = derivative(g)
        mids = 0.5 * (xs[:-1] + xs[1:])
        assert float(np.max(np.abs(profile.slopes - np.sin(mids)))) < 1.0 / n

    @pytest.mark.parametrize(
        "xs, ys, cell",
        [
            ([0.0, 1.0, 2.0], [1e308, -1e308, 1e308], "cell 0 on [0.0, 1.0]"),
            ([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 1e308, -1e308], "cell 2 on [2.0, 3.0]"),
            ([0.0, 5e-324, 1.0], [0.0, 1.0, 0.0], "cell 0 on [0.0, 5e-324]"),
            ([-1.5e308, -1e308, 1e308], [0.0, 1.0, 0.0], "cell 1 on [-1e+308, 1e+308]"),
            ([-1e308, 1e308], [0.0, 1.0], "cell 0 on [-1e+308, 1e+308]"),
        ],
    )
    def test_overflow_names_the_cell_without_warnings(self, xs, ys, cell):
        # Finite samples whose difference, or difference quotient, leaves float64.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = SampledFunction(np.array(xs), np.array(ys))
            with pytest.raises(InvalidInputError) as excinfo:
                derivative(f)
        assert str(excinfo.value) == f"the difference quotient of {cell} overflows float64"

    def test_grid_wider_than_float64_without_overflowing_cells(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = SampledFunction(np.array([-1e308, 0.0, 1e308, 1.5e308]), np.array([0.0, 1.0, 0.0, 1.0]))
            assert_close(total_variation(f), 3.0)

    def test_span_wider_than_float64_names_the_interval(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = SampledFunction([-1e308, 5e307, 1.5e308], [0.0, 1.0, 0.0])
            with pytest.raises(InvalidInputError) as excinfo:
                f.span
            assert str(excinfo.value) == "the span of [-1e+308, 1.5e+308] overflows float64"
            profile = DerivativeProfile([1e308, 1e308], [0.0, 1.0])
            with pytest.raises(InvalidInputError, match="total length of the cells overflows float64"):
                profile.span
            assert SampledFunction([-1e308, 5e307], [0.0, 1.0]).span == 1.5e308

    def test_profile_keeps_fresh_arrays_read_only(self):
        profile = derivative(SampledFunction([0.0, 1.0, 3.0], [0.0, 2.0, 1.0]))
        assert profile.lengths.tolist() == [1.0, 2.0]
        assert profile.slopes.tolist() == [2.0, -0.5]
        assert not profile.lengths.flags.writeable
        assert not profile.slopes.flags.writeable

    def test_profile_validation(self):
        with pytest.raises(InvalidInputError):
            DerivativeProfile(np.array([1.0, -1.0]), np.array([0.0, 0.0]))
        with pytest.raises(InvalidInputError):
            DerivativeProfile(np.array([]), np.array([]))


class TestIntegrateTransform:
    def test_matches_direct_loop_bitwise(self):
        rng = np.random.default_rng(21)
        transforms = [
            DerivativeTransform.neg_part(),
            DerivativeTransform.pos_part(),
            DerivativeTransform.abs_value(),
            DerivativeTransform.neg_part_power(2.0),
            DerivativeTransform.abs_power(3.0),
        ]
        for _ in range(50):
            profile = derivative(dyadic_function(rng, max_cells=40))
            for tr in transforms:
                direct = 0.0
                for length, slope in zip(profile.lengths, profile.slopes):
                    direct += float(length) * tr(float(slope))
                assert integrate_transform(profile, tr) == direct

    def test_inexact_power_is_within_the_summation_bound(self):
        # x**1.5 of a dyadic slope is not a dyadic number, so the sum is no longer exact.
        rng = np.random.default_rng(21)
        tr = DerivativeTransform.pos_part_power(1.5)
        for _ in range(50):
            profile = derivative(dyadic_function(rng, max_cells=40))
            terms = []
            slack = 0.0
            for length, slope in zip(profile.lengths.tolist(), profile.slopes.tolist()):
                if slope > 0.0:
                    terms.append(length * tr(slope))
                    slack += length * 4.0 * math.ulp(tr(slope))
            assert_sum_within_bound(integrate_transform(profile, tr), terms, slack)

    def test_one_minus_cos_negative_part(self):
        xs = np.linspace(0.0, 3 * math.pi / 2, 100_000)
        profile = derivative(SampledFunction(xs, 1.0 - np.cos(xs)))
        value = integrate_transform(profile, DerivativeTransform.neg_part())
        assert abs(value - 1.0) < 1e-3

    def test_total_variation_of_one_minus_cos(self):
        xs = np.linspace(0.0, 3 * math.pi / 2, 100_000)
        g = SampledFunction(xs, 1.0 - np.cos(xs))
        assert abs(total_variation(g) - 3.0) < 1e-3

    def test_zero_function(self):
        g = SampledFunction(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
        for tr in (DerivativeTransform.neg_part(), DerivativeTransform.abs_power(2.0)):
            assert integrate_transform(derivative(g), tr) == 0.0

    def test_custom_transform(self):
        square = DerivativeTransform.custom(lambda s: s * s)
        profile = DerivativeProfile(np.array([2.0, 1.0]), np.array([1.0, -3.0]))
        assert integrate_transform(profile, square) == 2.0 * 1.0 + 1.0 * 9.0

    def test_custom_transform_must_fix_zero(self):
        with pytest.raises(InvalidParameterError):
            DerivativeTransform.custom(lambda s: s + 1.0)

    def test_custom_transform_output_validated(self):
        bad = DerivativeTransform.custom(lambda s: -abs(s))
        profile = DerivativeProfile(np.array([1.0]), np.array([2.0]))
        with pytest.raises(InvalidParameterError):
            integrate_transform(profile, bad)

    @pytest.mark.parametrize(
        "transform",
        [
            DerivativeTransform.neg_part_power(400.0),
            DerivativeTransform.pos_part_power(400.0),
            DerivativeTransform.abs_power(400.0),
        ],
    )
    def test_powered_overflow_names_p(self, transform):
        profile = derivative(SampledFunction([0.0, 1.0, 2.0], [0.0, -10.0, 10.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError) as excinfo:
                integrate_transform(profile, transform)
        assert str(excinfo.value) == "the powered sum for p=400.0 overflows float64"

    def test_power_validation(self):
        with pytest.raises(InvalidParameterError):
            DerivativeTransform.neg_part_power(0.5)
        with pytest.raises(InvalidParameterError):
            DerivativeTransform.abs_power(math.inf)


class TestModelInvariants:
    @given(dyadic_functions())
    @settings(max_examples=200, deadline=None)
    def test_additivity_of_parts(self, f):
        profile = derivative(f)
        neg = integrate_transform(profile, DerivativeTransform.neg_part())
        pos = integrate_transform(profile, DerivativeTransform.pos_part())
        assert_close(neg + pos, total_variation(f), rel=1e-12)

    def test_total_variation_simple_cases(self):
        line = SampledFunction(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert total_variation(line) == 1.0
        tent = SampledFunction(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0]))
        assert total_variation(tent) == 2.0

    def test_grid_refinement_convergence(self):
        # Successive refinements must agree to O(1/N); the absolute error
        # itself is not monotone (a grid point can land exactly on the peak).
        def neg_at(n: int) -> float:
            xs = np.linspace(0.0, 3 * math.pi / 2, n)
            profile = derivative(SampledFunction(xs, 1.0 - np.cos(xs)))
            return integrate_transform(profile, DerivativeTransform.neg_part())

        for n in (2_000, 4_000, 8_000):
            assert abs(neg_at(n) - neg_at(2 * n)) < 1.0 / n
            assert abs(neg_at(n) - 1.0) < 1.0 / n
