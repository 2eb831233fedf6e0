"""Results that keep the bits of a stable sort, whichever unstable sort NumPy runs.

The library sorts unstably where equal keys cannot change an answer, and
restores the input order by hand where they can: the sign of a zero in a
sample, the value and rows that a duplicate error names, and the order in
which tied slope parts add up to a survival curve's tails.  Each test draws
small inputs full of ties (-0.0 next to 0.0, repeated values, tied slopes)
and compares bits with a reference built on a stable sort.  NumPy's
unstable sort orders ties differently at each CPU dispatch level, so CI runs
this module a second time with ``NPY_DISABLE_CPU_FEATURES`` set.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monotonia import (
    DiscreteSignedMeasure,
    EmpiricalDistribution,
    InvalidInputError,
    SampledFunction,
    compare_strict,
    survival_minus,
    survival_plus,
)
from monotonia import cli

from helpers import curve_bits, reference_curve

# Few distinct values, so that draws repeat them; -0.0 and 0.0 compare equal.
TIED_VALUES = st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.5, -2.5, 5e-324, 1.7976931348623157e308])
# The zeros are the least of these values, so the first duplicate is often -0.0 or 0.0.
LOCATIONS = st.sampled_from([-0.0, 0.0, 1.0, 2.5, 1.7976931348623157e308])
WEIGHTS = st.sampled_from([0.0, -0.0, 1.0, -2.0, 0.5])
# Signed powers of two: a cell on the line c·x has slope c exactly, whatever its width.
LINE_SLOPES = st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])


def stable_first_duplicate(rows: list[tuple[int, float]]) -> tuple[tuple[int, float], tuple[int, float]] | None:
    """The first two (row, value) pairs, in input order, of the smallest repeated value, as a stable sort finds them."""
    ordered = sorted(rows, key=lambda row: row[1])  # Python's sort is stable
    for a, b in zip(ordered, ordered[1:]):
        if a[1] == b[1]:
            return a, b
    return None


class TestEmpiricalDistribution:
    @given(st.lists(TIED_VALUES, min_size=1, max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_values_have_the_bits_of_a_stable_sort(self, values):
        expected = np.sort(np.array(values), kind="stable")
        assert EmpiricalDistribution(values).values.tobytes() == expected.tobytes()

    def test_a_large_sample_of_signed_zeros(self):
        sample = np.random.default_rng(31).choice([-0.0, 0.0, 1.0, -1.0], 100_000)
        assert EmpiricalDistribution(sample).values.tobytes() == np.sort(sample, kind="stable").tobytes()


class TestDuplicateAtoms:
    @pytest.mark.parametrize("locations, named", [([0.0, 1.0, -0.0], "0.0"), ([-0.0, 1.0, 0.0], "-0.0")])
    def test_the_error_names_the_first_location_in_input_order(self, locations, named):
        with pytest.raises(InvalidInputError) as excinfo:
            DiscreteSignedMeasure(locations, [1.0, 1.0, 1.0])
        assert str(excinfo.value) == f"duplicate atom location {named}; merge weights first"

    @given(st.lists(st.tuples(LOCATIONS, WEIGHTS), max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_atoms_and_errors_match_a_stable_sort(self, atoms):
        kept = [(x, w) for x, w in atoms if w != 0.0]
        duplicate = stable_first_duplicate(list(enumerate(x for x, _ in kept)))
        locations = [x for x, _ in atoms]
        weights = [w for _, w in atoms]
        if duplicate is not None:
            with pytest.raises(InvalidInputError) as excinfo:
                DiscreteSignedMeasure(locations, weights)
            assert str(excinfo.value) == f"duplicate atom location {duplicate[0][1]!r}; merge weights first"
            return
        nu = DiscreteSignedMeasure(locations, weights)
        ordered = sorted(kept, key=lambda atom: atom[0])
        assert nu.locations.tobytes() == np.array([x for x, _ in ordered], dtype=np.float64).tobytes()
        assert nu.weights.tobytes() == np.array([w for _, w in ordered], dtype=np.float64).tobytes()


def load_function(rows: list[tuple[float, float]]):
    """``cli._load_function`` on a CSV file of ``rows`` under a header: the function's arrays, or the error."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        path.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in rows), encoding="utf-8")
        try:
            f = cli._load_function(str(path))
        except InvalidInputError as exc:
            return str(exc).replace(str(path), "in.csv")
    return f.xs.tobytes(), f.ys.tobytes()


class TestDuplicateAbscissas:
    @pytest.mark.parametrize("xs, named", [([0.0, 1.0, -0.0], "0.0"), ([-0.0, 1.0, 0.0], "-0.0")])
    def test_the_error_names_the_first_value_and_rows_in_file_order(self, xs, named):
        assert load_function([(x, 1.0) for x in xs]) == f"in.csv: duplicate x={named} at rows 2 and 4"

    @given(st.lists(st.tuples(LOCATIONS, st.floats(-10.0, 10.0)), min_size=2, max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_functions_and_errors_match_a_stable_sort(self, rows):
        # Data rows start at line 2, below the header.
        duplicate = stable_first_duplicate([(i + 2, x) for i, (x, _) in enumerate(rows)])
        if duplicate is not None:
            (first, x), (second, _) = duplicate
            assert load_function(rows) == f"in.csv: duplicate x={x!r} at rows {first} and {second}"
            return
        ordered = sorted(rows, key=lambda row: row[0])
        xs, ys = (np.array(column, dtype=np.float64) for column in zip(*ordered))
        assert load_function(rows) == (xs.tobytes(), ys.tobytes())


@st.composite
def tied_functions(draw) -> SampledFunction:
    """Runs of samples on lines c·x through the origin: tied parts of unequal, non-dyadic lengths.

    Their tails then depend on the order in which the lengths are added.
    """
    slopes = draw(st.lists(LINE_SLOPES, min_size=1, max_size=12))
    run = draw(st.integers(1, 8))
    coefficients = np.repeat(slopes, run)
    widths = draw(st.lists(st.floats(0.1, 1.0), min_size=coefficients.shape[0] + 1, max_size=coefficients.shape[0] + 1))
    xs = np.cumsum(widths) - 3.0
    return SampledFunction(xs, np.concatenate(([coefficients[0]], coefficients)) * xs)


class TestSurvivalCurves:
    @given(tied_functions())
    @settings(max_examples=300, deadline=None)
    def test_breaks_and_tails_match_a_stable_sort(self, f):
        assert curve_bits(survival_minus(f)) == curve_bits(reference_curve(f, "neg"))
        assert curve_bits(survival_plus(f)) == curve_bits(reference_curve(f, "pos"))

    @given(tied_functions(), tied_functions(), st.sampled_from([("SI", "neg"), ("SD", "pos")]))
    @settings(max_examples=300, deadline=None)
    def test_strict_verdicts_and_witnesses_match_a_stable_sort(self, g, h, relation_sign):
        relation, sign = relation_sign
        curve_g, curve_h = reference_curve(g, sign), reference_curve(h, sign)
        grid = np.unique(np.concatenate(([0.0], curve_g.breaks, curve_h.breaks)))
        violated = curve_g.value(grid) / curve_g.tv > curve_h.value(grid) / curve_h.tv
        verdict = compare_strict(g, h, relation)
        assert verdict.holds == ("no" if violated.any() else "yes")
        assert verdict.witness == (float(grid[np.argmax(violated)]) if violated.any() else None)

