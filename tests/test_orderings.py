"""Tests for survival curves and the index/strict monotonicity orderings."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings

from monotonia import (
    InvalidInputError,
    InvalidParameterError,
    SampledFunction,
    UndefinedComparisonError,
    compare,
    compare_strict,
    loi,
    loi_norm,
    lod,
    lod_norm,
    survival_minus,
    survival_plus,
    total_variation,
)
from monotonia._backend import BLOCK

from helpers import (
    assert_close,
    continuous_function,
    curve_bits,
    dominated_pair,
    dyadic_functions,
    negate,
    reference_curve,
)

TENT = SampledFunction([0.0, 1.0, 3.0], [0.0, 1.0, -1.0])
MIRROR_TENT = SampledFunction([0.0, 2.0, 3.0], [0.0, -2.0, -1.0])
RISING_LINE = SampledFunction([0.0, 3.0], [0.0, 6.0])
CONSTANT = SampledFunction([0.0, 1.0, 2.0], [1.5, 1.5, 1.5])

# One steep short fall versus one shallow long fall with equal total variation:
# the steep curve is fatter at high thresholds, the shallow one at low ones,
# so neither strictly dominates the other.
STEEP = SampledFunction([0.0, 1.0, 2.0], [0.0, -2.0, 0.0])
SHALLOW = SampledFunction([0.0, 2.0, 4.0], [0.0, -2.0, 0.0])


def sampled_one_minus_cos(n: int = 100_001) -> SampledFunction:
    xs = np.linspace(0.0, 2.0 * math.pi, n)
    return SampledFunction(xs, 1.0 - np.cos(xs))


class TestSurvivalCurveShape:
    def test_rising_line_has_empty_falling_curve(self):
        curve = survival_minus(RISING_LINE)
        assert curve.breaks.shape == (0,)
        assert curve.value(0.0) == 0.0
        assert curve.value(7.0) == 0.0
        assert curve.integral() == 0.0
        assert curve.sign == "neg"
        assert curve.tv == total_variation(RISING_LINE)

    def test_rising_line_positive_curve_is_one_step(self):
        curve = survival_plus(RISING_LINE)
        assert curve.breaks.tolist() == [2.0]
        assert curve.tail_lengths.tolist() == [3.0]
        assert curve.value(0.0) == 3.0
        assert curve.value(1.999) == 3.0
        # Right continuity: the slope equals 2 on a set of measure 3, but the
        # set where it exceeds 2 is empty.
        assert curve.value(2.0) == 0.0
        assert curve.integral() == 6.0
        assert curve.sign == "pos"

    def test_tent_curves_match_hand_computation(self):
        minus = survival_minus(TENT)
        assert minus.breaks.tolist() == [1.0]
        assert minus.tail_lengths.tolist() == [2.0]
        assert minus.integral() == loi(TENT) == 2.0
        plus = survival_plus(TENT)
        assert plus.breaks.tolist() == [1.0]
        assert plus.tail_lengths.tolist() == [1.0]
        assert plus.integral() == lod(TENT) == 1.0

    def test_curve_arrays_cannot_be_made_writeable(self):
        for curve in (survival_minus(TENT), survival_plus(TENT)):
            for arr in (curve.breaks, curve.tail_lengths):
                with pytest.raises(ValueError):
                    arr.flags.writeable = True

    def test_multilevel_curve(self):
        # Slopes -3, 1, -1, -3, 2 over lengths 0.5, 1, 2, 0.25, 1: the negative
        # part takes value 3 on measure 0.75 and value 1 on measure 2.
        f = SampledFunction(
            [0.0, 0.5, 1.5, 3.5, 3.75, 4.75],
            [0.0, -1.5, -0.5, -2.5, -3.25, -1.25],
        )
        curve = survival_minus(f)
        assert curve.breaks.tolist() == [1.0, 3.0]
        assert curve.tail_lengths.tolist() == [2.75, 0.75]
        assert curve.value(0.0) == 2.75
        assert curve.value(0.999) == 2.75
        assert curve.value(1.0) == 0.75
        assert curve.value(2.5) == 0.75
        assert curve.value(3.0) == 0.0
        assert curve.integral() == 2.75 * 1.0 + 0.75 * 2.0 == loi(f)

    def test_value_accepts_arrays_and_rejects_negative_thresholds(self):
        curve = survival_minus(TENT)
        out = curve.value(np.array([0.0, 0.5, 1.0, 2.0]))
        assert isinstance(out, np.ndarray)
        assert out.tolist() == [2.0, 2.0, 0.0, 0.0]
        assert isinstance(curve.value(0.5), float)
        with pytest.raises(InvalidParameterError):
            curve.value(-0.25)
        with pytest.raises(InvalidParameterError):
            curve.value(np.array([0.5, -1.0]))
        # NaN is no threshold either, also for a curve with no breaks to search.
        for z in (math.nan, np.array([0.5, math.nan])):
            for nan_curve in (curve, survival_minus(RISING_LINE)):
                with pytest.raises(InvalidParameterError, match=r"^survival curves are defined for thresholds z >= 0$"):
                    nan_curve.value(z)

    def test_standardized_input_gives_identical_curve(self):
        # TENT starts at the origin; the same tent shifted along both axes (exactly) has the same curve.
        raw = survival_minus(SampledFunction(TENT.xs + 2.5, TENT.ys - 4.0))
        std = survival_minus(TENT)
        assert raw.breaks.tolist() == std.breaks.tolist()
        assert raw.tail_lengths.tolist() == std.tail_lengths.tolist()
        assert raw.tv == std.tv


class TestSurvivalOracle:
    def test_one_minus_cos_matches_arcsin_formula(self):
        curve = survival_minus(sampled_one_minus_cos())
        for z in (0.0, 0.25, 0.5, math.sqrt(2.0) / 2.0, 0.9):
            expected = math.pi - 2.0 * math.asin(z)
            assert abs(curve.value(z) - expected) < 2e-3
        assert curve.value(1.1) == 0.0
        assert_close(curve.integral(), 2.0, rel=1e-3, abs_=1e-3)
        assert_close(curve.tv, 4.0, rel=1e-3, abs_=1e-3)

    @given(dyadic_functions())
    @settings(max_examples=200, deadline=None)
    def test_layer_cake_identity_is_exact(self, f):
        # Dyadic lengths and slopes keep every partial sum exactly
        # representable, so the band-by-band total equals the cell-by-cell
        # total bit for bit.
        assert survival_minus(f).integral() == loi(f)
        assert survival_plus(f).integral() == lod(f)


def tied_walks(rng: np.random.Generator, n: int):
    """Random walks of n cells that repeat many slopes, from rounded ordinates and from lines."""
    yield SampledFunction(np.linspace(-3.0, 7.0, n + 1), np.round(np.cumsum(rng.normal(size=n + 1)), 1))
    xs = np.concatenate(([0.0], np.cumsum(rng.choice([0.25, 0.5, 1.0], n))))
    yield SampledFunction(xs, 0.1 * np.cumsum(rng.integers(-2, 3, n + 1)))
    # Runs of four samples on a line c·x through the origin, c a signed power of two: each
    # cell within a run has slope c exactly, whatever its width, so tied parts have unequal
    # lengths and their tail sums depend on the order in which they are added.
    xs = np.cumsum(rng.uniform(0.1, 1.0, n + 1)) - 3.0
    yield SampledFunction(xs, np.repeat(rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0], n + 1), 4)[: n + 1] * xs)


@pytest.mark.filterwarnings("error")
class TestCurveFromSignedCells:
    def test_same_bits_as_the_whole_profile(self):
        rng = np.random.default_rng(4242)
        for n in (1, 2, 9, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5):
            for f in tied_walks(rng, n):
                for sign, survival in (("neg", survival_minus), ("pos", survival_plus)):
                    assert curve_bits(survival(f)) == curve_bits(reference_curve(f, sign)), (n, sign)

    def test_strict_verdicts_match_the_whole_profile(self):
        rng = np.random.default_rng(4343)
        for _ in range(20):
            walks = [f for f in tied_walks(rng, int(rng.integers(1, 200))) if total_variation(f) > 0.0]
            for g, h, (relation, sign) in itertools.product(walks, walks, (("SI", "neg"), ("SD", "pos"))):
                curve_g, curve_h = reference_curve(g, sign), reference_curve(h, sign)
                grid = np.unique(np.concatenate(([0.0], curve_g.breaks, curve_h.breaks)))
                violated = curve_g.value(grid) / curve_g.tv > curve_h.value(grid) / curve_h.tv
                verdict = compare_strict(g, h, relation)
                assert verdict.holds == ("no" if violated.any() else "yes")
                assert verdict.witness == (float(grid[np.argmax(violated)]) if violated.any() else None)

    def test_plus_curve_is_the_minus_curve_of_the_negation(self):
        rng = np.random.default_rng(4444)
        for n in (1, 50, BLOCK + 1):
            for f in tied_walks(rng, n):
                assert curve_bits(survival_plus(f)) == curve_bits(survival_minus(negate(f)))

    def test_a_cell_of_the_other_sign_never_raises(self):
        # Cell 0 rises by 1 over a sub-normal width, so its difference quotient overflows.
        f = SampledFunction([0.0, 5e-324, 1.0], [0.0, 1.0, 0.0])
        curve = survival_minus(f)
        assert curve.breaks.tolist() == [1.0]
        assert curve.tail_lengths.tolist() == [1.0]
        assert curve.integral() == loi(f) == 1.0
        assert compare_strict(f, TENT, "SI").holds == "yes"
        with pytest.raises(InvalidInputError) as excinfo:
            survival_plus(f)
        assert str(excinfo.value) == "the difference quotient of cell 0 on [0.0, 5e-324] overflows float64"

    def test_an_overflowing_cell_of_the_curve_is_named(self):
        with pytest.raises(InvalidInputError) as excinfo:
            survival_minus(SampledFunction([0.0, 5e-324, 1.0], [1.0, 0.0, 0.0]))
        assert str(excinfo.value) == "the difference quotient of cell 0 on [0.0, 5e-324] overflows float64"
        # A fall from 1e308 to -1e308 in a later block: the increment itself overflows.
        k = BLOCK + 3
        ys = np.zeros(BLOCK + 11)
        ys[k], ys[k + 1 :] = 1e308, -1e308
        f = SampledFunction(np.arange(ys.shape[0], dtype=np.float64), ys)
        with pytest.raises(InvalidInputError) as excinfo:
            compare_strict(f, TENT, "SI")
        cell = f"cell {k} on [{float(k)!r}, {float(k + 1)!r}]"
        assert str(excinfo.value) == f"the difference quotient of {cell} overflows float64"


class TestCompare:
    def test_line_is_more_nondecreasing_than_tent(self):
        assert compare(RISING_LINE, TENT, "I").holds == "yes"
        assert compare(TENT, RISING_LINE, "I").holds == "no"

    def test_tent_is_more_nonincreasing_than_line(self):
        assert compare(TENT, RISING_LINE, "D").holds == "yes"
        assert compare(RISING_LINE, TENT, "D").holds == "no"

    def test_line_is_more_monotone_than_tent(self):
        assert compare(RISING_LINE, TENT, "M").holds == "yes"
        assert compare(TENT, RISING_LINE, "M").holds == "no"

    def test_every_function_compares_to_itself(self):
        for relation in ("I", "D", "M"):
            verdict = compare(TENT, TENT, relation)
            assert verdict.holds == "yes"
            assert verdict.witness is None
            assert verdict.note is None

    def test_ties_answer_yes_in_both_directions(self):
        for relation in ("I", "D", "M"):
            assert compare(TENT, MIRROR_TENT, relation).holds == "yes"
            assert compare(MIRROR_TENT, TENT, relation).holds == "yes"

    def test_note_reports_differing_total_variations(self):
        verdict = compare(RISING_LINE, TENT, "I")
        assert verdict.note is not None
        assert "normalized" in verdict.note
        assert compare(TENT, MIRROR_TENT, "I").note is None

    def test_agrees_with_normalized_indices(self):
        rng = np.random.default_rng(4821)
        for _ in range(50):
            g = continuous_function(rng)
            h = continuous_function(rng)
            expected = "yes" if loi_norm(g) <= loi_norm(h) else "no"
            assert compare(g, h, "I").holds == expected
            expected = "yes" if lod_norm(g) <= lod_norm(h) else "no"
            assert compare(g, h, "D").holds == expected

    def test_negation_swaps_increase_and_decrease(self):
        rng = np.random.default_rng(915)
        for _ in range(50):
            g = continuous_function(rng)
            h = continuous_function(rng)
            assert compare(g, h, "I").holds == compare(negate(g), negate(h), "D").holds
            assert compare(g, h, "M").holds == compare(negate(g), negate(h), "M").holds

    def test_constant_operand_is_undefined(self):
        with pytest.raises(UndefinedComparisonError):
            compare(CONSTANT, TENT, "I")
        with pytest.raises(UndefinedComparisonError):
            compare(TENT, CONSTANT, "M")

    def test_unknown_relation_is_rejected(self):
        with pytest.raises(InvalidParameterError):
            compare(TENT, RISING_LINE, "X")
        with pytest.raises(InvalidParameterError):
            compare(TENT, RISING_LINE, "SI")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_overflowing_total_length_is_named(self):
        # Each falling cell is 1.5e308 wide, but the two together are wider than float64.
        f = SampledFunction([-1.5e308, 0.0, 1.5e308], [0.0, -1.0, -2.0])
        for curve, g, kind in ((survival_minus, f, "falling"), (survival_plus, negate(f), "rising")):
            with pytest.raises(InvalidInputError) as excinfo:
                curve(g)
            assert str(excinfo.value) == f"the total length of the {kind} cells overflows float64"
        with pytest.raises(InvalidInputError, match="total length of the falling cells"):
            compare_strict(f, TENT, "SI")
        # f has no rising cell, so its other curve is empty.
        assert survival_plus(f).breaks.tolist() == []


class TestCompareStrict:
    def test_crossing_curves_fail_both_ways_with_witnesses(self):
        verdict = compare_strict(STEEP, SHALLOW, "SI")
        assert verdict.holds == "no"
        assert verdict.witness == 1.0
        reverse = compare_strict(SHALLOW, STEEP, "SI")
        assert reverse.holds == "no"
        assert reverse.witness == 0.0

    def test_mirrored_crossing_for_sd(self):
        verdict = compare_strict(negate(STEEP), negate(SHALLOW), "SD")
        assert verdict.holds == "no"
        assert verdict.witness == 1.0

    def test_rising_line_strictly_dominates_everything(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            h = continuous_function(rng, force_mixed=True)
            verdict = compare_strict(RISING_LINE, h, "SI")
            assert verdict.holds == "yes"
            assert verdict.witness is None

    def test_ties_answer_yes(self):
        for g, h in ((TENT, MIRROR_TENT), (MIRROR_TENT, TENT)):
            assert compare_strict(g, h, "SI").holds == "yes"
            assert compare_strict(g, h, "SD").holds == "yes"

    def test_normalized_curves_beyond_float64_are_compared_exactly(self):
        # At threshold 0 the normalized curves are 1e300 / 1e-10 = 1e310 and 1e300 / 2e-10 = 5e309.
        f = SampledFunction([0.0, 1e300], [1e-10, 0.0])
        h = SampledFunction([0.0, 1e300], [2e-10, 0.0])
        verdict = compare_strict(f, h, "SI")
        assert (verdict.holds, verdict.witness) == ("no", 0.0)
        assert compare_strict(negate(f), negate(h), "SD").witness == 0.0
        # Past f's only break the curve of f is 0 and that of h is 5e309.
        assert compare_strict(h, f, "SI").witness == survival_minus(f).breaks[0]
        assert compare_strict(f, f, "SI").holds == "yes"

    def test_witness_present_exactly_when_no(self):
        rng = np.random.default_rng(3030)
        for _ in range(60):
            g = continuous_function(rng, force_mixed=True)
            h = continuous_function(rng, force_mixed=True)
            verdict = compare_strict(g, h, "SI")
            assert (verdict.witness is None) == (verdict.holds == "yes")
            if verdict.witness is not None:
                assert verdict.witness >= 0.0

    def test_dominated_pairs_hold_and_imply_index_order(self):
        rng = np.random.default_rng(6001)
        for _ in range(100):
            g, h = dominated_pair(rng)
            assert compare_strict(g, h, "SI").holds == "yes"
            assert compare(g, h, "I").holds == "yes"
            assert compare_strict(negate(g), negate(h), "SD").holds == "yes"

    def test_strict_implies_index_comparison(self):
        rng = np.random.default_rng(24)
        for _ in range(60):
            g = continuous_function(rng, force_mixed=True)
            h = continuous_function(rng, force_mixed=True)
            if compare_strict(g, h, "SI").holds == "yes":
                assert compare(g, h, "I").holds == "yes"
            if compare_strict(g, h, "SD").holds == "yes":
                assert compare(g, h, "D").holds == "yes"

    def test_note_reports_differing_total_variations(self):
        assert compare_strict(STEEP, SHALLOW, "SI").note is None
        noted = compare_strict(RISING_LINE, TENT, "SI")
        assert noted.note is not None and "normalized" in noted.note

    def test_constant_operand_is_undefined(self):
        with pytest.raises(UndefinedComparisonError):
            compare_strict(CONSTANT, TENT, "SI")
        with pytest.raises(UndefinedComparisonError):
            compare_strict(TENT, CONSTANT, "SD")

    def test_unknown_relation_is_rejected(self):
        with pytest.raises(InvalidParameterError):
            compare_strict(TENT, RISING_LINE, "I")
        with pytest.raises(InvalidParameterError):
            compare_strict(TENT, RISING_LINE, "steep")
