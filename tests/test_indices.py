"""Raw, normalized, and Lp monotonicity indices with their algebraic laws."""

import copy
import dataclasses
import hashlib
import math
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monotonia import (
    DiscreteSignedMeasure,
    GridDensityMeasure,
    InvalidInputError,
    InvalidParameterError,
    SampledFunction,
    UndefinedIndexError,
    derivative,
    jordan,
    loi,
    loi_norm,
    loi_p,
    lod,
    lod_norm,
    lom,
    lom_norm,
    lon,
    lop,
    los,
    normalized_indices,
    report,
    total_variation,
    _backend,
)

from helpers import (
    assert_close,
    dyadic_function,
    dyadic_functions,
    dyadic_scales,
    negate,
    outcome,
)


def shifted(f: SampledFunction, alpha: float) -> SampledFunction:
    return SampledFunction(f.xs, f.ys + alpha)


def scaled(f: SampledFunction, beta: float) -> SampledFunction:
    return SampledFunction(f.xs, f.ys * beta)


TENT = SampledFunction(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0]))
LINE = SampledFunction(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
CONST = SampledFunction(np.array([0.0, 1.0]), np.array([2.0, 2.0]))


BLOCK = _backend.BLOCK


def random_walk(rng: np.random.Generator, n: int) -> SampledFunction:
    """A function on non-dyadic data: uniform cell widths and normal increments."""
    xs = rng.uniform(-5.0, 5.0) + np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 3.0, n))))
    return SampledFunction(xs, np.cumsum(rng.normal(0.0, 1.0, n + 1)))


def jordan_bytes(g: SampledFunction) -> str:
    """A digest of every array of ``jordan(derivative(g))``."""
    pair = jordan(derivative(g))
    arrays = [arr for part in (pair.positive_part, pair.negative_part) for arr in (part.lengths, part.densities, part.masses)]
    return hashlib.sha256(b"".join(arr.tobytes() for arr in (*arrays, pair.hahn_positive, pair.hahn_negative))).hexdigest()


def bits(*values: float) -> list[str]:
    """Exact representations, so -0.0 and 0.0 differ."""
    return [float(v).hex() for v in values]


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

    @pytest.mark.parametrize(
        "index, what",
        [
            (total_variation, "the total variation"),
            (loi, "the integral of the negative part"),
            (lod, "the integral of the positive part"),
        ],
    )
    def test_single_reductions_name_their_own_sum(self, index, what):
        with pytest.raises(InvalidInputError) as excinfo:
            index(self.PEAKS)
        assert str(excinfo.value) == f"{what} overflows float64"


@pytest.mark.filterwarnings("error")
class TestIncrements:
    """The linear indices sum the parts of the increments Δy, each term rounded once."""

    def test_report_and_single_indices_agree_bit_for_bit(self):
        rng = np.random.default_rng(707)
        for _ in range(200):
            f = random_walk(rng, int(rng.integers(1, 300)))
            rep = report(f, p=1.0)
            assert bits(rep.loi, rep.lod, rep.tv, rep.lom) == bits(loi(f), lod(f), total_variation(f), lom(f))
            assert bits(rep.loi_norm, rep.lod_norm, rep.lom_norm) == bits(*normalized_indices(f))
            assert bits(rep.loi_p, loi_p(f, 1.0)) == bits(loi(f), loi(f))
            assert rep.loi + rep.lod == rep.tv

    def test_identities_hold_across_block_boundaries(self):
        # The indices, the derivative measure and loi_p each pass all their cells
        # to one kernel call, which sums them over the same blocks: same bits.
        rng = np.random.default_rng(909)
        for n in (BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5):
            f = random_walk(rng, n)
            profile = derivative(f)
            rep = report(f, p=2.5)
            singles = (loi(f), lod(f), total_variation(f), lom(f))
            assert bits(rep.loi, rep.lod, rep.tv, rep.lom) == bits(*singles)
            masses = profile.masses
            assert bits(*_backend.sign_split_sums(masses)) == bits(*singles[:3])
            # dg of the warm f, and of a cold copy of it, whose split dg reduces first.
            for nu in (derivative(f), derivative(SampledFunction(f.xs, f.ys))):
                assert bits(lop(nu), lon(nu), los(nu), nu.total_variation()) == bits(*singles[:2], singles[3], singles[2])
            total = _backend.transform_reduce(profile.densities, 2.5, profile.lengths)
            powered = total ** (1.0 / 2.5)
            assert bits(rep.loi_p, loi_p(f, 2.5)) == bits(powered, powered)

    def test_subnormal_cell_width_leaves_the_linear_indices_exact(self):
        # The rise over cell 0 is 1 although its difference quotient overflows.
        f = SampledFunction([0.0, 5e-324, 1.0], [0.0, 1.0, 0.0])
        assert (loi(f), lod(f), total_variation(f)) == (1.0, 1.0, 2.0)
        assert loi_p(f, 2.0) == 1.0
        # The same fall over the sub-normal cell: loi_p = 1 / sqrt(5e-324) is finite at p = 2.
        g = SampledFunction([0.0, 5e-324, 1.0], [1.0, 0.0, 0.0])
        assert (loi(g), lod(g), total_variation(g)) == (1.0, 0.0, 1.0)
        assert_close(loi_p(g, 2.0), 1.0 / math.sqrt(5e-324))
        assert_close(loi_p(g, 2.0), 4.4989137945431964e161)
        with pytest.raises(InvalidInputError) as excinfo:
            loi_p(g, 400.0)
        assert str(excinfo.value) == "loi_p for p=400.0 overflows float64"

    def test_loi_is_within_the_summation_bound_of_fsum(self):
        rng = np.random.default_rng(99)
        for n in (1, 7, 1000, 3 * BLOCK + 5):
            f = random_walk(rng, n)
            increments = np.diff(f.ys).tolist()
            exact = math.fsum(-d for d in increments if d < 0.0)
            bound = (n + 1) * 2.0**-53 * math.fsum(map(abs, increments))
            assert abs(loi(f) - exact) <= bound, n


@pytest.mark.filterwarnings("error")
class TestLpFromFallingCells:
    def test_same_bits_as_the_derivative_profile(self):
        rng = np.random.default_rng(808)
        for _ in range(100):
            f = random_walk(rng, int(rng.integers(1, 300)))
            for p in (1.5, 2.0, 3.0, 7.25):
                profile = derivative(f)
                total = _backend.transform_reduce(profile.densities, p, profile.lengths)
                assert bits(loi_p(f, p)) == bits(total ** (1.0 / p))

    def test_overflowing_powers_are_scaled(self):
        assert loi_p(SampledFunction([0.0, 1.0, 2.0], [0.0, -10.0, 0.0]), 400.0) == 10.0
        # Slopes -10, -20 and -5 on unit cells: the steepest one dominates.
        f = SampledFunction([0.0, 1.0, 2.0, 3.0], [0.0, -10.0, -30.0, -35.0])
        assert_close(loi_p(f, 400.0), 20.0 * (1.0 + 0.5**400) ** (1.0 / 400.0))
        assert loi_p(SampledFunction([0.0, 1.0, 2.0], [0.0, -1e308, 0.0]), 2.0) == 1e308

    def test_underflowing_powers_are_scaled(self):
        # The square 1e-400 underflows; the index 1e-200 does not.
        assert loi_p(SampledFunction([0.0, 1.0, 2.0], [0.0, -1e-200, 0.0]), 2.0) == 1e-200
        assert loi_p(SampledFunction([0.0, 1.0, 2.0], [0.0, -1e-200, 0.0]), 400.0) == 1e-200
        # (1e-50)**7 underflows before its width 1e300 multiplies it into the dominant 1e-50;
        # the sum without it, 1e-280, is normal but far below (span + n)·2**-1022.
        f = SampledFunction([0.0, 1.0, 1e300 + 1.0], [0.0, -1e-40, -1e-40 - 1e250])
        assert_close(loi_p(f, 7.0), 10.0 ** (-50.0 / 7.0))

    def test_lengths_summing_beyond_float64_are_scaled(self):
        f = SampledFunction([-1.5e308, 0.0, 1.5e308], [0.0, -1.0, -2.0])
        assert_close(loi_p(f, 2.0), math.sqrt(2.0) / math.sqrt(1.5e308))

    def test_an_index_beyond_float64_names_loi_p(self):
        # Four cells of slope -1e308 and width 0.5: loi_p = 2**(1/p) * 1e308.
        f = SampledFunction([0.0, 0.5, 1.0, 1.5, 2.0], [1e308, 5e307, 0.0, -5e307, -1e308])
        assert_close(loi_p(f, 2.0), math.sqrt(2.0) * 1e308)
        with pytest.raises(InvalidInputError) as excinfo:
            loi_p(f, 1.1)
        assert str(excinfo.value) == "loi_p for p=1.1 overflows float64"

    def test_wide_shallow_cell_outweighs_the_steepest(self):
        # Cell 0: width 1e-300, slope -100; cell 1: width ~1e300, slope -10.  At p = 400
        # the terms are 1e500 and 1e700, so loi_p = 10**(700/400), set by the shallow cell.
        f = SampledFunction([0.0, 1e-300, 1e300], [0.0, -1e-298, -1e-298 - 1e301])
        assert_close(loi_p(f, 400.0), 10.0**1.75)

    def test_an_overflowing_width_or_increment_is_named(self):
        with pytest.raises(InvalidInputError) as excinfo:
            loi_p(SampledFunction([-1.5e308, 1.5e308], [0.0, -1.0]), 2.0)
        assert str(excinfo.value) == "the width of cell 0 on [-1.5e+308, 1.5e+308] overflows float64"
        with pytest.raises(InvalidInputError) as excinfo:
            loi_p(SampledFunction([0.0, 1.0, 1e300], [0.0, 1e308, -1e308]), 2.0)
        assert str(excinfo.value) == "the increment of cell 1 on [1.0, 1e+300] overflows float64"

    def test_an_index_below_float64_names_loi_p(self):
        # One cell of width 1e300 falling by 1e-300: loi_p = 1e-300 / sqrt(1e300) = 1e-450.
        f = SampledFunction([0.0, 1e300, 2e300], [0.0, -1e-300, 0.0])
        with pytest.raises(InvalidInputError) as excinfo:
            loi_p(f, 2.0)
        assert str(excinfo.value) == "loi_p for p=2.0 underflows float64"


# loi_p at these exponents, and report, which attaches it.
LP_QUERIES = {
    **{f"loi_p {p}": (lambda f, p=p: loi_p(f, p)) for p in (0.5, 1.0, 1.5, 2.0, 3.0, 7.25, 400.0)},
    "report p=2": lambda f: report(f, p=2.0),
    "report p=3": lambda f: report(f, p=3),
}


@st.composite
def extreme_functions(draw):
    """Functions whose loi_p can overflow, underflow or take the scaled path."""
    xs = draw(st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=10, unique=True))
    values = st.floats(-1e308, 1e308) | st.floats(-1e-300, 1e-300) | st.floats(-8.0, 8.0)
    ys = draw(st.lists(values, min_size=len(xs), max_size=len(xs)))
    return SampledFunction(sorted(xs), ys)


class TestLpMemo:
    """A function keeps loi_p by exponent: computed on first use, the same answer ever after."""

    def test_one_powered_reduction_per_exponent(self, powered_calls):
        f = SampledFunction([0.0, 1.0, 2.5, 3.0, 4.0], [0.0, 2.0, -1.0, 0.5, -3.0])
        answers = [(loi_p(f, 2.0), report(f, p=2).loi_p, loi_p(f, 3)) for _ in range(2)]
        assert answers[0] == answers[1]
        assert powered_calls == [2.0, 3.0]
        assert answers[0][0] == answers[0][1]
        # p = 1 reads the sign split, and an integer exponent is the float one.
        assert (loi_p(f, 1), loi_p(f, 2)) == (loi(f), answers[0][0])
        assert powered_calls == [2.0, 3.0]

    @given(extreme_functions())
    @settings(max_examples=150, deadline=None)
    def test_a_warm_function_answers_as_a_fresh_one(self, f):
        for query in LP_QUERIES.values():
            outcome(query, f)
        for name, query in LP_QUERIES.items():
            assert outcome(query, f) == outcome(query, SampledFunction(f.xs, f.ys)), name

    @pytest.mark.parametrize(
        "xs, ys, p, what",
        [
            # A fall of 1e300 over a width of 1e-300: loi_p = 1e300 * 1e-300**(1/1.1 - 1) ≈ 1e327.
            ([0.0, 1e-300, 1.0], [0.0, -1e300, -1e300], 1.1, "overflows"),
            # A fall of 1e-300 over a width of 1e300: loi_p = 1e-300 / sqrt(1e300) = 1e-450.
            ([0.0, 1e300, 2e300], [0.0, -1e-300, 0.0], 2.0, "underflows"),
        ],
    )
    def test_a_scaled_path_error_raises_on_every_call(self, xs, ys, p, what):
        f = SampledFunction(xs, ys)
        errors = []
        for query in (lambda: loi_p(f, p), lambda: report(f, p=p), lambda: loi_p(f, p)):
            with pytest.raises(InvalidInputError) as excinfo:
                query()
            errors.append((type(excinfo.value), str(excinfo.value)))
        assert errors == [(InvalidInputError, f"loi_p for p={p!r} {what} float64")] * 3

    def test_restrict_and_replace_start_empty(self, powered_calls):
        f = SampledFunction([0.0, 1.0, 2.0, 3.0], [0.0, 2.0, -1.0, 0.5])
        assert loi_p(f, 2.0) == 3.0
        restricted = f.restrict(0.5, 2.5)
        replaced = dataclasses.replace(f, ys=2.0 * f.ys)
        same = dataclasses.replace(f)
        copies = (copy.copy(f), pickle.loads(pickle.dumps(f)))
        # Each computes its own loi_p at p = 2, once, and keeps it.
        for _ in range(2):
            assert (loi_p(restricted, 2.0), loi_p(replaced, 2.0), loi_p(same, 2.0)) == (3.0, 6.0, 3.0)
            assert [loi_p(g, 2.0) for g in copies] == [3.0, 3.0]
        assert powered_calls == [2.0] * 6

    def test_threads_that_race_get_the_answers_of_a_fresh_function(self):
        # Functions and measures keep their answers with no lock: threads that race compute the same bits.
        rng = np.random.default_rng(77)
        f = random_walk(rng, 5000)
        ys = f.ys.copy()
        ys[-2:] = (-1e308, 1e308)
        atoms = DiscreteSignedMeasure(rng.uniform(-5.0, 5.0, 5000), rng.normal(size=5000))
        grid = GridDensityMeasure(rng.uniform(0.1, 3.0, 5000), rng.normal(size=5000))
        dg_queries = (lambda g: lop(derivative(g)), lambda g: los(derivative(g)))
        # (shared object, a fresh one with the same arrays, the queries raced on it)
        cases = [
            (f, SampledFunction(f.xs, f.ys), (lambda g: loi_p(g, 2.0), lambda g: report(g, p=3.0), dg_queries[0], loi, jordan_bytes)),
            (SampledFunction(f.xs, ys), SampledFunction(f.xs, ys), dg_queries),
            (atoms, DiscreteSignedMeasure(atoms.locations, atoms.weights), (lop, los)),
            (grid, GridDensityMeasure(grid.lengths, grid.densities), (lop, los)),
        ]
        want = [outcome(query, fresh) for _, fresh, queries in cases for query in queries]
        cell = f"cell 4999 on [{float(f.xs[4999])!r}, {float(f.xs[5000])!r}]"
        assert want[5:7] == [f"InvalidInputError: the difference quotient of {cell} overflows float64"] * 2
        barrier = threading.Barrier(8)
        results = []

        def work():
            barrier.wait(timeout=10)
            results.append([outcome(query, nu) for nu, _, queries in cases for query in queries])

        threads = [threading.Thread(target=work) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [want] * 8
