"""Raw, normalized, and Lp monotonicity indices with their algebraic laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monotonia import (
    InvalidInputError,
    InvalidParameterError,
    SampledFunction,
    UndefinedIndexError,
    loi,
    loi_norm,
    loi_p,
    lod,
    lod_norm,
    lom,
    lom_norm,
    normalized_indices,
    report,
    total_variation,
)

from helpers import (
    assert_close,
    dyadic_function,
    dyadic_functions,
    dyadic_scales,
    negate,
)


def shifted(f: SampledFunction, alpha: float) -> SampledFunction:
    return SampledFunction(f.xs, f.ys + alpha)


def scaled(f: SampledFunction, beta: float) -> SampledFunction:
    return SampledFunction(f.xs, f.ys * beta)


TENT = SampledFunction(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0]))
LINE = SampledFunction(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
CONST = SampledFunction(np.array([0.0, 1.0]), np.array([2.0, 2.0]))


class TestRawIndices:
    def test_tent(self):
        assert loi(TENT) == 1.0
        assert lod(TENT) == 1.0
        assert lom(TENT) == 2.0

    def test_monotone_directions(self):
        assert loi(LINE) == 0.0
        assert lod(LINE) == 1.0
        assert lom(LINE) == 0.0
        down = negate(LINE)
        assert loi(down) == 1.0 and lod(down) == 0.0 and lom(down) == 0.0

    def test_sine_cosine_reference_values(self):
        xs = np.linspace(-math.pi / 2, math.pi, 100_000)
        sine = SampledFunction(xs, np.sin(xs))
        cosine = SampledFunction(xs, np.cos(xs))
        assert abs(loi(sine) - 1.0) < 1e-3
        assert abs(lod(sine) - 2.0) < 1e-3
        assert abs(lom(sine) - 2.0) < 1e-3
        assert abs(loi(cosine) - 2.0) < 1e-3
        assert abs(lod(cosine) - 1.0) < 1e-3
        assert abs(lom(cosine) - 2.0) < 1e-3
        assert abs(total_variation(sine) - 3.0) < 1e-3


class TestNormalizedIndices:
    def test_reference_values(self):
        xs = np.linspace(0.0, 3 * math.pi / 2, 100_000)
        g = SampledFunction(xs, 1.0 - np.cos(xs))
        assert abs(loi_norm(g) - 1.0 / 3.0) < 1e-3
        assert abs(lod_norm(g) - 2.0 / 3.0) < 1e-3
        assert abs(lom_norm(g) - 2.0 / 3.0) < 1e-3
        sine = SampledFunction(xs, np.sin(xs))
        assert abs(loi_norm(sine) - 2.0 / 3.0) < 1e-3

    def test_monotone_extremes(self):
        assert normalized_indices(LINE) == (0.0, 1.0, 0.0)
        assert normalized_indices(negate(LINE)) == (1.0, 0.0, 0.0)

    def test_constant_undefined(self):
        with pytest.raises(UndefinedIndexError):
            normalized_indices(CONST)
        with pytest.raises(UndefinedIndexError):
            lom_norm(CONST)


class TestLpIndex:
    def test_p_one_coincides_with_raw(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            f = dyadic_function(rng, max_cells=20)
            assert_close(loi_p(f, 1.0), loi(f), rel=1e-12)

    def test_p_two_reference_value(self):
        xs = np.linspace(0.0, 3 * math.pi / 2, 100_000)
        g = SampledFunction(xs, 1.0 - np.cos(xs))
        assert abs(loi_p(g, 2.0) - math.sqrt(math.pi / 4.0)) < 1e-3

    def test_monotone_gives_zero(self):
        assert loi_p(LINE, 3.5) == 0.0

    def test_invalid_p(self):
        for p in (0.5, 0.0, -1.0, math.inf, math.nan):
            with pytest.raises(InvalidParameterError):
                loi_p(LINE, p)


class TestReport:
    def test_tent_report(self):
        rep = report(TENT)
        assert (rep.loi, rep.lod, rep.lom, rep.tv) == (1.0, 1.0, 2.0, 2.0)
        assert (rep.loi_norm, rep.lod_norm, rep.lom_norm) == (0.5, 0.5, 1.0)
        assert rep.interval == (0.0, 2.0)
        assert rep.p is None and rep.loi_p is None

    def test_constant_report_keeps_raw_fields(self):
        rep = report(CONST)
        assert (rep.loi, rep.lod, rep.lom, rep.tv) == (0.0, 0.0, 0.0, 0.0)
        assert rep.loi_norm is None and rep.lod_norm is None and rep.lom_norm is None

    def test_interval_metadata_does_not_change_indices(self):
        f0 = SampledFunction(np.array([5.0, 6.0, 7.0]), np.array([2.0, 3.0, 2.0]))
        rep = report(f0)
        assert rep.interval == (5.0, 7.0)
        assert rep.loi == loi(f0) == 1.0

    def test_report_with_p(self):
        rep = report(TENT, p=2.0)
        assert rep.p == 2.0
        assert rep.loi_p == 1.0


class TestScalingAndShiftLaws:
    """Translation, homogeneity, and reflection on exactly representable data."""

    @given(dyadic_functions(), st.integers(-1280, 1280))
    @settings(max_examples=150, deadline=None)
    def test_translation_invariance(self, f, shift_num):
        alpha = shift_num / 256.0
        g = shifted(f, alpha)
        assert loi(g) == loi(f)
        assert lod(g) == lod(f)
        assert lom(g) == lom(f)
        assert total_variation(g) == total_variation(f)

    @given(dyadic_functions(), dyadic_scales())
    @settings(max_examples=150, deadline=None)
    def test_homogeneity_and_reflection(self, f, beta):
        g = scaled(f, beta)
        if beta >= 0.0:
            assert loi(g) == beta * loi(f)
            assert lod(g) == beta * lod(f)
        else:
            assert loi(g) == (-beta) * lod(f)
            assert lod(g) == (-beta) * loi(f)

    @given(dyadic_functions())
    @settings(max_examples=150, deadline=None)
    def test_reflection_swaps_indices(self, f):
        assert loi(negate(f)) == lod(f)
        assert lod(negate(f)) == loi(f)

    @given(dyadic_functions())
    @settings(max_examples=150, deadline=None)
    def test_decomposition(self, f):
        tv = total_variation(f)
        assert_close(loi(f) + lod(f), tv, rel=1e-12)
        assert min(loi(f), lod(f)) <= tv / 2.0 + 1e-15
        assert lom(f) <= tv * (1.0 + 1e-15)


class TestNormalizedLaws:
    @given(dyadic_functions())
    @settings(max_examples=150, deadline=None)
    def test_complementarity_and_range(self, f):
        if total_variation(f) == 0.0:
            return
        up, down, mono = normalized_indices(f)
        for value in (up, down, mono):
            assert 0.0 <= value <= 1.0
        assert_close(up + down, 1.0, rel=1e-12)

    @given(dyadic_functions())
    @settings(max_examples=150, deadline=None)
    def test_boundary_characterization(self, f):
        profile_slopes = np.diff(f.ys) / np.diff(f.xs)
        if total_variation(f) == 0.0:
            return
        up, down, mono = normalized_indices(f)
        assert (up == 0.0) == bool(np.all(profile_slopes >= 0.0))
        assert (up == 1.0) == bool(np.all(profile_slopes <= 0.0))
        one_sided = bool(np.all(profile_slopes >= 0.0) or np.all(profile_slopes <= 0.0))
        assert (mono == 0.0) == one_sided

    @given(dyadic_functions())
    @settings(max_examples=150, deadline=None)
    def test_net_change_identity(self, f):
        tv = total_variation(f)
        if tv == 0.0:
            return
        net = abs(float(f.ys[-1] - f.ys[0]))
        assert_close(lom_norm(f), 1.0 - net / tv, rel=1e-12, abs_=1e-12)

    @given(dyadic_functions(), dyadic_scales())
    @settings(max_examples=150, deadline=None)
    def test_scale_invariance_of_normalized(self, f, beta):
        if total_variation(f) == 0.0:
            return
        g = scaled(f, beta)
        assert lom_norm(g) == lom_norm(f)
        if beta > 0.0:
            assert loi_norm(g) == loi_norm(f)
        else:
            assert loi_norm(g) == lod_norm(f)

    @given(dyadic_functions())
    @settings(max_examples=150, deadline=None)
    def test_reflection_of_normalized(self, f):
        if total_variation(f) == 0.0:
            return
        assert lod_norm(negate(f)) == loi_norm(f)


class TestMinimizerOracle:
    def test_closed_form_attains_brute_force_minimum(self):
        # The distance to the non-decreasing cone is minimized cell by cell;
        # candidate comparison slopes never beat clamping at zero.
        rng = np.random.default_rng(47)
        for _ in range(100):
            f = dyadic_function(rng, min_cells=2, max_cells=4)
            lengths = np.diff(f.xs)
            slopes = np.diff(f.ys) / lengths
            clamped = np.maximum(slopes, 0.0)
            best = float(np.sum(lengths * np.abs(slopes - clamped)))
            assert_close(best, loi(f), rel=1e-12)
            n = slopes.shape[0]
            for mask in range(2**n):
                candidate = np.where(
                    [(mask >> i) & 1 for i in range(n)], clamped, 0.0
                )
                value = float(np.sum(lengths * np.abs(slopes - candidate)))
                assert value >= best - 1e-12 * max(1.0, best)
            for _ in range(30):
                candidate = np.maximum(
                    clamped + rng.uniform(-1.0, 1.0, n), 0.0
                )
                value = float(np.sum(lengths * np.abs(slopes - candidate)))
                assert value >= best - 1e-12 * max(1.0, best)


@pytest.mark.filterwarnings("error")
class TestOverflowingTotalVariation:
    # Each cell's rise is finite, but the total variation 6e308 is not.
    PEAKS = SampledFunction([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 1.5e308, 0.0, 1.5e308, 0.0])

    @pytest.mark.parametrize("index", [report, normalized_indices, lom, loi_norm])
    def test_raises_instead_of_inf_or_nan(self, index):
        with pytest.raises(InvalidInputError) as excinfo:
            index(self.PEAKS)
        assert str(excinfo.value) == "the total variation overflows float64"
