"""Function model: validation, derivatives, and the exact integrals of the parts of f′."""

import copy
import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monotonia import (
    GridDensityMeasure,
    InvalidInputError,
    InvalidParameterError,
    SampledFunction,
    _backend,
    compare,
    derivative,
    lod,
    loi,
    loi_p,
    lom,
    lop,
    normalized_indices,
    report,
    survival_minus,
    total_variation,
)
from monotonia._backend import NEG_POW

from helpers import (
    assert_close,
    assert_sum_within_bound,
    cell_sum,
    dyadic_function,
    dyadic_functions,
    neg_part,
    outcome,
    pos_part,
    unpickled_out_of_band,
)


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

    def test_a_read_only_view_of_a_writeable_buffer_is_copied(self):
        # The view cannot be written, but its owner can: the function must not see that.
        y = np.array([0.0, 1.0, 0.0])
        v = y.view()
        v.flags.writeable = False
        f = SampledFunction([0.0, 1.0, 2.0], v)
        assert loi(f) == 1.0
        y[2] = 5.0
        assert f.ys.tolist() == [0.0, 1.0, 0.0]
        assert loi(f) == 1.0

    def test_a_read_only_array_that_owns_its_data_is_copied(self):
        # Its owner may set the flag back and write: the function must not see that.
        ys = np.array([0.0, 1.0, 0.0])
        ys.flags.writeable = False
        f = SampledFunction([0.0, 1.0, 2.0], ys)
        assert f.ys is not ys and loi(f) == 1.0
        ys.flags.writeable = True
        ys[2] = 5.0
        assert f.ys.tolist() == [0.0, 1.0, 0.0]
        assert loi(f) == 1.0

    def test_a_rewrapped_function_holds_its_own_frozen_arrays(self):
        f = SampledFunction([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        assert (loi(f), loi_p(f, 2.0)) == (1.0, 1.0)
        for g in (SampledFunction(f.xs, f.ys), dataclasses.replace(f), copy.copy(f)):
            for arr, own in ((g.xs, f.xs), (g.ys, f.ys)):
                assert not np.shares_memory(arr, own)
                with pytest.raises(ValueError):
                    arr.flags.writeable = True
            assert (g.ys.tolist(), loi(g), loi_p(g, 2.0)) == ([0.0, 1.0, 0.0], 1.0, 1.0)

    def test_a_frozen_array_cannot_be_made_writeable(self):
        f = SampledFunction([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        assert (loi(f), loi_p(f, 2.0)) == (1.0, 1.0)
        for arr in (f.xs, f.ys, f.restrict(0.5, 2.0).ys, dataclasses.replace(f, ys=-f.ys).ys):
            with pytest.raises(ValueError):
                arr.flags.writeable = True
        assert f.ys.tolist() == [0.0, 1.0, 0.0]
        assert (loi(f), loi_p(f, 2.0)) == (1.0, 1.0)

    def test_a_copied_or_unpickled_function_is_frozen_and_computes_its_own(self):
        f = SampledFunction([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        assert (loi(f), loi_p(f, 2.0)) == (1.0, 1.0)
        derivative(f)
        for g in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
            assert g._split is None and g._loi_p is None and g._overflow_cell is None
            for arr in (g.xs, g.ys):
                with pytest.raises(ValueError):
                    arr.flags.writeable = True
            assert (g.ys.tolist(), loi(g), loi_p(g, 2.0)) == ([0.0, 1.0, 0.0], 1.0, 1.0)

    def test_a_large_unpickled_function_is_frozen(self):
        # Protocols 0-4 unpickle an array over 1000 bytes as a writeable array over the pickle's bytes.
        xs = np.linspace(0.0, 1.0, 200)
        f = SampledFunction(xs, np.sin(20.0 * xs))
        want = (loi(f), loi_p(f, 2.0))
        copies = [pickle.loads(pickle.dumps(f, protocol=protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        # Protocol 5 out of band: the loaded arrays lie over the caller's buffers, overwritten after loading.
        for g in copies + [unpickled_out_of_band(f)]:
            for arr in (g.xs, g.ys):
                with pytest.raises(ValueError):
                    arr.flags.writeable = True
            assert (g.ys.tolist(), loi(g), loi_p(g, 2.0)) == (f.ys.tolist(), *want)

    def test_a_writeable_array_over_bytes_is_copied(self):
        # What the unpickler makes of an array over 1000 bytes under protocols 0-4,
        # here with the canonical dtype, which np.asarray passes through as it is.
        ys = np.empty(0)
        ys.__setstate__((1, (200,), np.dtype(np.float64), False, np.linspace(0.0, 1.0, 200).tobytes()))
        assert ys.flags.writeable and isinstance(ys.base, bytes)
        f = SampledFunction(np.arange(200.0), ys)
        assert f.ys is not ys and loi(f) == 0.0
        with pytest.raises(ValueError):
            f.ys.flags.writeable = True
        ys[5] = -9.0
        assert f.ys[5] == 5.0 / 199.0 and loi(f) == 0.0

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


class TestDerivative:
    def test_difference_quotients(self):
        g = SampledFunction(np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 1.0, 1.0, 0.0]))
        profile = derivative(g)
        assert np.array_equal(profile.lengths, np.array([1.0, 1.0, 1.0]))
        assert np.array_equal(profile.densities, np.array([1.0, 0.0, -1.0]))

    def test_linear_constant_slope(self):
        xs = np.array([0.0, 0.25, 0.8, 1.0])
        g = SampledFunction(xs, 2.0 * xs)
        assert np.all(derivative(g).densities == 2.0)

    def test_smooth_function_slopes_near_midpoint_derivative(self):
        n = 100_000
        xs = np.linspace(0.0, 3 * math.pi / 2, n)
        g = SampledFunction(xs, 1.0 - np.cos(xs))
        profile = derivative(g)
        mids = 0.5 * (xs[:-1] + xs[1:])
        assert float(np.max(np.abs(profile.densities - np.sin(mids)))) < 1.0 / n

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
        # The first call checks every cell; later ones read the kept verdict.
        errors = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = SampledFunction(np.array(xs), np.array(ys))
            for _ in range(3):
                with pytest.raises(InvalidInputError) as excinfo:
                    derivative(f)
                errors.append((type(excinfo.value), str(excinfo.value)))
        assert errors == [(InvalidInputError, f"the difference quotient of {cell} overflows float64")] * 3
        assert f._overflow_cell == int(cell.split()[1])

    def test_restrict_and_replace_start_without_the_kept_verdict(self):
        f = SampledFunction([0.0, 1.0, 2.0, 3.0], [0.0, 2.0, -1.0, 0.5])
        derivative(f)
        assert f._overflow_cell == -1
        overflowing = dataclasses.replace(f, ys=[0.0, 1e308, -1e308, 0.0])
        derived = (f.restrict(0.5, 2.5), dataclasses.replace(f, ys=-f.ys), dataclasses.replace(f), overflowing)
        for g in derived:
            assert g._overflow_cell is None
        with pytest.raises(InvalidInputError, match=r"^the difference quotient of cell 1 on \[1\.0, 2\.0\]"):
            derivative(overflowing)
        # And back: a function replaced from one that overflows checks its own cells.
        assert lop(derivative(dataclasses.replace(overflowing, ys=f.ys))) == 3.0
        assert lop(derivative(derived[0])) == 3.0

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
            assert SampledFunction([-1e308, 5e307], [0.0, 1.0]).span == 1.5e308

    def test_profile_keeps_fresh_arrays_read_only(self):
        profile = derivative(SampledFunction([0.0, 1.0, 3.0], [0.0, 2.0, 1.0]))
        assert isinstance(profile, GridDensityMeasure)
        assert profile.lengths.tolist() == [1.0, 2.0]
        assert profile.densities.tolist() == [2.0, -0.5]
        assert profile.masses.tolist() == [2.0, -1.0]
        for arr in (profile.lengths, profile.densities, profile.masses):
            assert not arr.flags.writeable


class TestIntegrateTransform:
    """The integrals of the parts of f′, and of powers of its negative part, against the cell widths."""

    def test_matches_direct_loop_bitwise(self):
        # On dyadic data every term and partial sum is exact, so any summation order gives the loop's bits.
        rng = np.random.default_rng(21)
        for _ in range(50):
            f = dyadic_function(rng, max_cells=40)
            assert loi(f) == cell_sum(f, neg_part)
            assert lod(f) == cell_sum(f, pos_part)
            assert total_variation(f) == cell_sum(f, abs)
            assert loi_p(f, 2.0) == cell_sum(f, neg_part, 2.0) ** 0.5

    def test_linear_transforms_sum_the_increments(self):
        # Non-dyadic data: length * slope would round twice, the increment once.
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 100))
            f = SampledFunction(np.cumsum(rng.uniform(0.1, 3.0, n + 1)), rng.normal(size=n + 1))
            masses = derivative(f).masses
            assert masses.tobytes() == np.diff(f.ys).tobytes()
            neg, pos, tv = _backend.sign_split_sums(masses)
            assert (neg, pos) == (-masses.clip(max=0.0).sum(), masses.clip(min=0.0).sum())
            assert (loi(f), lod(f), total_variation(f), loi_p(f, 1.0)) == (neg, pos, tv, neg)

    def test_profile_built_from_arrays_has_products_as_masses(self):
        # A measure built from a density has lengths · densities as masses; the
        # two-step constructor of the derivative measure returns its argument.
        profile = GridDensityMeasure(np.array([2.0, 0.5]), np.array([1.5, -3.0]))
        assert profile.masses.tolist() == [3.0, -1.5]
        assert GridDensityMeasure.from_derivative_profile(profile) is profile
        assert lop(profile) == 1.5

    def test_inexact_power_is_within_the_summation_bound(self):
        # x**1.5 of a dyadic slope is not a dyadic number, so the sum is no longer exact.
        rng = np.random.default_rng(21)
        for _ in range(50):
            profile = derivative(dyadic_function(rng, max_cells=40))
            terms = []
            slack = 0.0
            for length, slope in zip(profile.lengths.tolist(), profile.densities.tolist()):
                if slope < 0.0:
                    terms.append(length * (-slope) ** 1.5)
                    slack += length * 4.0 * math.ulp((-slope) ** 1.5)
            got = _backend.transform_reduce(profile.densities, NEG_POW, 1.5, profile.lengths)
            assert_sum_within_bound(got, terms, slack)

    def test_one_minus_cos_negative_part(self):
        xs = np.linspace(0.0, 3 * math.pi / 2, 100_000)
        assert abs(loi(SampledFunction(xs, 1.0 - np.cos(xs))) - 1.0) < 1e-3

    def test_total_variation_of_one_minus_cos(self):
        xs = np.linspace(0.0, 3 * math.pi / 2, 100_000)
        g = SampledFunction(xs, 1.0 - np.cos(xs))
        assert abs(total_variation(g) - 3.0) < 1e-3

    def test_zero_function(self):
        g = SampledFunction(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
        assert (loi(g), total_variation(g), loi_p(g, 2.0)) == (0.0, 0.0, 0.0)

    def test_power_validation(self):
        f = SampledFunction(np.array([0.0, 1.0]), np.array([0.0, -1.0]))
        with pytest.raises(InvalidParameterError):
            loi_p(f, 0.5)
        with pytest.raises(InvalidParameterError):
            loi_p(f, math.inf)


class TestModelInvariants:
    @given(dyadic_functions())
    @settings(max_examples=200, deadline=None)
    def test_additivity_of_parts(self, f):
        assert_close(cell_sum(f, neg_part) + cell_sum(f, pos_part), total_variation(f), rel=1e-12)

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
            return loi(SampledFunction(xs, 1.0 - np.cos(xs)))

        for n in (2_000, 4_000, 8_000):
            assert abs(neg_at(n) - neg_at(2 * n)) < 1.0 / n
            assert abs(neg_at(n) - 1.0) < 1.0 / n


# Every query that reads the sign split of a function's increments, on a pair (f, h).
SPLIT_QUERIES = {
    "loi": lambda f, h: loi(f),
    "lod": lambda f, h: lod(f),
    "lom": lambda f, h: lom(f),
    "total_variation": lambda f, h: total_variation(f),
    "normalized_indices": lambda f, h: normalized_indices(f),
    "report": lambda f, h: report(f, p=2),
    "compare I": lambda f, h: compare(f, h, "I"),
    "compare D": lambda f, h: compare(f, h, "D"),
    "compare M": lambda f, h: compare(f, h, "M"),
    "survival_minus tv": lambda f, h: survival_minus(f).tv,
}


@st.composite
def sampled_pairs(draw):
    """Two functions on one grid of arbitrary widths, with arbitrary (not dyadic) values."""
    n = draw(st.integers(2, 12))
    widths = draw(st.lists(st.floats(0.125, 8.0), min_size=n - 1, max_size=n - 1))
    values = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    xs = np.concatenate(([0.0], np.cumsum(widths)))
    ys_f = np.asarray(draw(st.lists(values, min_size=n, max_size=n)))
    ys_h = np.asarray(draw(st.lists(values, min_size=n, max_size=n)))
    return xs, ys_f, ys_h


class TestSignSplitMemo:
    """A function reduces its increments once, on first use, and every later answer is the same."""

    @pytest.mark.parametrize("name", SPLIT_QUERIES)
    def test_one_reduction_per_function_object(self, name, split_calls):
        f = SampledFunction([0.0, 1.0, 2.5, 3.0], [0.0, 2.0, -1.0, 0.5])
        h = SampledFunction([0.0, 1.0, 2.0], [1.0, 0.0, 3.0])
        query = SPLIT_QUERIES[name]
        first = outcome(query, f, h)
        for _ in range(2):
            assert outcome(query, f, h) == first
        assert len(split_calls) == (2 if name.startswith("compare") else 1)
        for other in SPLIT_QUERIES.values():
            outcome(other, f, h)
        assert split_calls == [3, 2]

    @given(sampled_pairs())
    @settings(max_examples=100, deadline=None)
    def test_a_warm_function_answers_as_a_fresh_one(self, arrays):
        xs, ys_f, ys_h = arrays
        warm = SampledFunction(xs, ys_f), SampledFunction(xs, ys_h)
        for query in SPLIT_QUERIES.values():
            outcome(query, *warm)
        for name, query in SPLIT_QUERIES.items():
            fresh = SampledFunction(xs, ys_f), SampledFunction(xs, ys_h)
            assert outcome(query, *warm) == outcome(query, *fresh), name

    @pytest.mark.parametrize("name", SPLIT_QUERIES)
    def test_an_overflowing_sum_raises_on_every_call(self, name):
        f = SampledFunction([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 1.5e308, 0.0, 1.5e308, 0.0])
        errors = []
        for _ in range(2):
            with pytest.raises(InvalidInputError) as excinfo:
                SPLIT_QUERIES[name](f, f)
            errors.append((type(excinfo.value), str(excinfo.value)))
        assert errors[0] == errors[1]
        assert errors[0][1].endswith("overflows float64")

    def test_restrict_and_replace_reduce_their_own_split(self, split_calls):
        f = SampledFunction([0.0, 1.0, 2.0, 3.0], [0.0, 2.0, -1.0, 0.5])
        assert loi(f) == 3.0
        restricted = f.restrict(0.5, 2.5)
        replaced = dataclasses.replace(f, ys=-f.ys)
        same = dataclasses.replace(f)
        assert (loi(restricted), loi(replaced), loi(same)) == (3.0, 3.5, 3.0)
        assert total_variation(restricted) == 4.75
        assert len(split_calls) == 4
