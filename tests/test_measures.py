"""Tests for signed-measure representations, Jordan decomposition, and positivity indices."""

from __future__ import annotations

import copy
import itertools
import pickle
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monotonia import (
    DiscreteSignedMeasure,
    GridDensityMeasure,
    InvalidInputError,
    MixedSignedMeasure,
    PositivityReport,
    SampledFunction,
    UndefinedIndexError,
    _backend,
    derivative,
    jordan,
    loi,
    lod,
    lom,
    lon,
    lon_norm,
    lop,
    lop_norm,
    los,
    los_norm,
    positivity_report,
    total_variation,
)

from helpers import (
    assert_close,
    continuous_function,
    dyadic_function,
    dyadic_functions,
    outcome,
    unpickled_out_of_band,
)

ATOMS = DiscreteSignedMeasure.from_atoms([(0.0, 2.0), (1.0, -1.0), (2.5, 0.5), (3.0, -0.25)])
GRID = GridDensityMeasure([1.0, 2.0, 0.5], [3.0, -2.0, 0.0])
EMPTY = DiscreteSignedMeasure.from_atoms([])


def random_discrete(rng: np.random.Generator, allow_empty: bool = False) -> DiscreteSignedMeasure:
    n = int(rng.integers(0 if allow_empty else 1, 9))
    locations = rng.choice(np.arange(64.0), size=n, replace=False)
    weights = rng.uniform(-5.0, 5.0, n)
    return DiscreteSignedMeasure(locations, weights)


def random_grid(rng: np.random.Generator) -> GridDensityMeasure:
    n = int(rng.integers(1, 9))
    return GridDensityMeasure(rng.uniform(0.1, 3.0, n), rng.uniform(-5.0, 5.0, n))


class TestDiscreteConstruction:
    def test_zero_weights_are_dropped_and_atoms_sorted(self):
        nu = DiscreteSignedMeasure([3.0, 1.0, 2.0], [0.5, 0.0, -2.0])
        assert nu.atoms == [(2.0, -2.0), (3.0, 0.5)]

    def test_from_atoms_round_trip(self):
        assert ATOMS.atoms == [(0.0, 2.0), (1.0, -1.0), (2.5, 0.5), (3.0, -0.25)]
        assert EMPTY.atoms == []

    def test_atoms_are_pairs_of_python_floats_with_the_array_bits(self):
        nu = DiscreteSignedMeasure([1e300, -0.0, 2.5], [1.7976931348623157e308, 5e-324, -1.5])
        atoms = nu.atoms
        assert atoms == [(-0.0, 5e-324), (2.5, -1.5), (1e300, 1.7976931348623157e308)]
        assert all(type(atom) is tuple and len(atom) == 2 for atom in atoms)
        assert all(type(v) is float for atom in atoms for v in atom)
        assert [np.float64(v).tobytes() for atom in atoms for v in atom] == [
            v.tobytes() for pair in zip(nu.locations, nu.weights) for v in pair
        ]

    def test_duplicate_locations_rejected_after_stripping(self):
        with pytest.raises(InvalidInputError, match="duplicate atom location"):
            DiscreteSignedMeasure([1.0, 2.0, 1.0], [0.5, 1.0, 0.25])
        # The duplicate pair disappears with the zero weight, so this is fine.
        nu = DiscreteSignedMeasure([1.0, 2.0, 1.0], [0.5, 1.0, 0.0])
        assert nu.atoms == [(1.0, 0.5), (2.0, 1.0)]

    def test_construction_copies_no_more_than_the_sort_needs(self):
        # The caller's two arrays are copied once each, the sort's permutation
        # and one gather sit beside them, and nothing else stays alive.
        rng = np.random.default_rng(17)
        n = 100_000
        locations = rng.permutation(n).astype(np.float64) * 0.5 + rng.uniform(0.0, 0.25, n)
        weights = rng.normal(0.2, 1.0, n)
        weights[rng.random(n) < 0.01] = 0.0
        tracemalloc.start()
        try:
            nu = DiscreteSignedMeasure(locations, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.1 * locations.nbytes
        order = np.argsort(locations[weights != 0.0], kind="stable")
        assert nu.locations.tobytes() == locations[weights != 0.0][order].tobytes()
        assert nu.weights.tobytes() == weights[weights != 0.0][order].tobytes()

    def test_shape_and_finiteness_validation(self):
        with pytest.raises(InvalidInputError):
            DiscreteSignedMeasure([1.0, 2.0], [1.0])
        with pytest.raises(InvalidInputError):
            DiscreteSignedMeasure([1.0], [np.nan])
        with pytest.raises(InvalidInputError):
            DiscreteSignedMeasure([np.inf], [1.0])

    def test_arrays_are_frozen(self):
        with pytest.raises(ValueError):
            ATOMS.weights[0] = 7.0


class TestGridConstruction:
    def test_zero_densities_are_kept(self):
        assert GRID.densities.tolist() == [3.0, -2.0, 0.0]
        assert GRID.lengths.tolist() == [1.0, 2.0, 0.5]

    def test_cell_masses_are_lengths_times_densities(self):
        assert GRID.masses.tolist() == [3.0, -4.0, 0.0]
        assert not GRID.masses.flags.writeable
        assert (lop(GRID), lon(GRID), GRID.total_variation()) == (4.0, 3.0, 7.0)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            GridDensityMeasure([1.0, -1.0], [1.0, 1.0])
        with pytest.raises(InvalidInputError):
            GridDensityMeasure([1.0, 0.0], [1.0, 1.0])
        with pytest.raises(InvalidInputError):
            GridDensityMeasure([1.0], [1.0, 2.0])
        with pytest.raises(InvalidInputError):
            GridDensityMeasure([1.0], [np.nan])

    def test_mixed_component_types_checked(self):
        with pytest.raises(InvalidInputError):
            MixedSignedMeasure(GRID, GRID)
        with pytest.raises(InvalidInputError):
            MixedSignedMeasure(ATOMS, ATOMS)


class TestJordan:
    def test_discrete_example(self):
        pair = jordan(ATOMS)
        assert pair.positive_part.atoms == [(0.0, 2.0), (2.5, 0.5)]
        assert pair.negative_part.atoms == [(1.0, 1.0), (3.0, 0.25)]
        assert pair.hahn_positive.tolist() == [0, 2]
        assert pair.hahn_negative.tolist() == [1, 3]
        assert pair.hahn_positive.dtype == np.intp

    def test_grid_example(self):
        pair = jordan(GRID)
        assert pair.positive_part.densities.tolist() == [3.0, 0.0, 0.0]
        assert pair.negative_part.densities.tolist() == [0.0, 2.0, 0.0]
        assert pair.positive_part.lengths.tolist() == GRID.lengths.tolist()
        # Cells with zero density carry no mass and sit in the non-negative set.
        assert pair.hahn_positive.tolist() == [0, 2]
        assert pair.hahn_negative.tolist() == [1]

    def test_empty_measure_decomposes(self):
        pair = jordan(EMPTY)
        assert pair.positive_part.atoms == []
        assert pair.negative_part.atoms == []
        assert pair.hahn_positive.shape == (0,)
        assert pair.hahn_negative.shape == (0,)

    def test_mixed_measure_is_rejected(self):
        with pytest.raises(InvalidInputError, match="individually"):
            jordan(MixedSignedMeasure(ATOMS, GRID))

    def test_discrete_reconstruction(self):
        rng = np.random.default_rng(1234)
        for _ in range(50):
            nu = random_discrete(rng)
            pair = jordan(nu)
            rebuilt: dict[float, float] = {}
            for x, w in pair.positive_part.atoms:
                rebuilt[x] = rebuilt.get(x, 0.0) + w
            for x, w in pair.negative_part.atoms:
                rebuilt[x] = rebuilt.get(x, 0.0) - w
            assert rebuilt == dict(nu.atoms)

    def test_grid_reconstruction_is_cellwise_exact(self):
        rng = np.random.default_rng(987)
        for _ in range(50):
            nu = random_grid(rng)
            pair = jordan(nu)
            delta = pair.positive_part.densities - pair.negative_part.densities
            assert delta.tolist() == nu.densities.tolist()

    def test_parts_are_nonnegative_and_supported_on_hahn_sets(self):
        rng = np.random.default_rng(555)
        for _ in range(50):
            nu = random_grid(rng)
            pair = jordan(nu)
            assert np.all(pair.positive_part.densities >= 0.0)
            assert np.all(pair.negative_part.densities >= 0.0)
            assert np.all(pair.positive_part.densities[pair.hahn_negative] == 0.0)
            assert np.all(pair.negative_part.densities[pair.hahn_positive] == 0.0)

    def test_part_masses_sum_to_total_variation(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            for nu in (random_discrete(rng), random_grid(rng)):
                pair = jordan(nu)
                assert_close(
                    lon(pair.positive_part) + lon(pair.negative_part),
                    nu.total_variation(),
                )


class TestIndices:
    def test_discrete_example(self):
        assert lop(ATOMS) == 1.25
        assert lon(ATOMS) == 2.5
        assert los(ATOMS) == 2.5
        assert ATOMS.total_variation() == 3.75

    def test_grid_example(self):
        assert lop(GRID) == 4.0
        assert lon(GRID) == 3.0
        assert los(GRID) == 6.0
        assert GRID.total_variation() == 7.0

    def test_normalized_example(self):
        nu = DiscreteSignedMeasure([0.0, 1.0], [1.0, -2.0])
        assert_close(lop_norm(nu), 2.0 / 3.0)
        assert_close(lon_norm(nu), 1.0 / 3.0)
        assert_close(los_norm(nu), 2.0 / 3.0)

    def test_balanced_measure_has_unit_normalized_sign_index(self):
        nu = DiscreteSignedMeasure([0.0, 1.0], [1.5, -1.5])
        assert los_norm(nu) == 1.0

    def test_zero_measure(self):
        assert lop(EMPTY) == 0.0
        assert lon(EMPTY) == 0.0
        assert los(EMPTY) == 0.0
        assert EMPTY.total_variation() == 0.0
        with pytest.raises(UndefinedIndexError):
            lop_norm(EMPTY)
        zero_grid = GridDensityMeasure([1.0, 2.0], [0.0, 0.0])
        assert zero_grid.total_variation() == 0.0
        with pytest.raises(UndefinedIndexError):
            los_norm(zero_grid)

    def test_negation_swaps_lop_and_lon(self):
        rng = np.random.default_rng(808)
        for _ in range(50):
            nu = random_discrete(rng)
            flipped = DiscreteSignedMeasure(nu.locations, -nu.weights)
            assert lop(nu) == lon(flipped)
            assert lon(nu) == lop(flipped)
            assert los(nu) == los(flipped)

    def test_split_sums_to_total_variation(self):
        rng = np.random.default_rng(4242)
        for _ in range(50):
            for nu in (random_discrete(rng), random_grid(rng)):
                assert_close(lop(nu) + lon(nu), nu.total_variation())
                assert 2.0 * min(lop(nu), lon(nu)) == los(nu)

    def test_normalized_bounds_and_complement(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            nu = random_grid(rng)
            up, down = lop_norm(nu), lon_norm(nu)
            assert 0.0 <= up <= 1.0 and 0.0 <= down <= 1.0
            assert_close(up + down, 1.0)
            assert_close(los_norm(nu), 2.0 * min(up, down))


class TestMixed:
    def test_componentwise_sums(self):
        mixed = MixedSignedMeasure(ATOMS, GRID)
        assert lop(mixed) == lop(ATOMS) + lop(GRID)
        assert lon(mixed) == lon(ATOMS) + lon(GRID)
        assert mixed.total_variation() == ATOMS.total_variation() + GRID.total_variation()
        assert los(mixed) == 2.0 * min(lop(mixed), lon(mixed))

    def test_normalized_uses_combined_total_variation(self):
        mixed = MixedSignedMeasure(ATOMS, GRID)
        assert_close(lop_norm(mixed), lop(mixed) / mixed.total_variation())
        assert_close(lon_norm(mixed), lon(mixed) / mixed.total_variation())

    def test_empty_component_is_neutral(self):
        mixed = MixedSignedMeasure(EMPTY, GRID)
        assert lop(mixed) == lop(GRID)
        assert lon(mixed) == lon(GRID)


def bits(value) -> str | None:
    return None if value is None else float(value).hex()


@pytest.mark.filterwarnings("error")
class TestPositivityReport:
    def measures(self):
        rng = np.random.default_rng(515)
        for _ in range(40):
            yield random_discrete(rng)
            yield random_grid(rng)
            yield MixedSignedMeasure(random_discrete(rng, allow_empty=True), random_grid(rng))
            f = continuous_function(rng)
            yield derivative(f)
        yield ATOMS
        yield GRID

    def test_fields_are_the_single_indices_bit_for_bit(self):
        for nu in self.measures():
            rep = positivity_report(nu)
            assert isinstance(rep, PositivityReport)
            want = (lop(nu), lon(nu), los(nu), nu.total_variation(), lop_norm(nu), lon_norm(nu), los_norm(nu))
            got = (rep.lop, rep.lon, rep.los, rep.tv, rep.lop_norm, rep.lon_norm, rep.los_norm)
            assert list(map(bits, got)) == list(map(bits, want))

    def test_zero_measure_has_no_normalized_indices(self):
        zero_grid = GridDensityMeasure([1.0, 2.0], [0.0, 0.0])
        for nu in (EMPTY, zero_grid, MixedSignedMeasure(EMPTY, zero_grid)):
            assert positivity_report(nu) == PositivityReport(0.0, 0.0, 0.0, 0.0, None, None, None)

    def test_rejects_what_is_not_a_measure(self):
        with pytest.raises(InvalidInputError):
            positivity_report([1.0, -1.0])


class TestFunctionBridge:
    @given(dyadic_functions())
    @settings(max_examples=150, deadline=None)
    def test_derivative_measure_recovers_function_indices(self, f):
        nu = derivative(f)
        assert lop(nu) == loi(f)
        assert lon(nu) == lod(f)
        assert los(nu) == lom(f)
        assert nu.total_variation() == total_variation(f)

    def test_bridge_on_continuous_functions(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            f = continuous_function(rng)
            nu = derivative(f)
            assert lop(nu) == loi(f)
            assert lon(nu) == lod(f)

    @pytest.mark.filterwarnings("error")
    def test_bridge_is_exact_on_non_dyadic_random_walks(self):
        # The derivative measure carries the increments as masses, so no
        # length * slope product stands between it and the function.
        rng = np.random.default_rng(4242)
        for _ in range(100):
            n = int(rng.integers(1, 200))
            xs = np.cumsum(rng.uniform(0.1, 3.0, n + 1))
            f = SampledFunction(xs, np.cumsum(rng.normal(0.0, 1.0, n + 1)))
            nu = derivative(f)
            assert nu.masses.tolist() == np.diff(f.ys).tolist()
            assert not nu.masses.flags.writeable
            assert (lop(nu), lon(nu), los(nu)) == (loi(f), lod(f), lom(f))
            assert nu.total_variation() == total_variation(f)
            # The Jordan parts keep the parts of the increments as their masses.
            pair = jordan(nu)
            assert (lon(pair.positive_part), lon(pair.negative_part)) == (lod(f), loi(f))
            assert lop(pair.positive_part) == lop(pair.negative_part) == 0.0

    def test_bridge_on_dyadic_function_instance(self):
        rng = np.random.default_rng(123)
        f = dyadic_function(rng)
        nu = derivative(f)
        assert nu.lengths.tolist() == np.diff(f.xs).tolist()


class TestDistanceToCone:
    def test_lop_is_distance_to_positive_measures(self):
        # Brute force over candidate positive measures mu on the support of
        # nu: the total-variation distance ||nu - mu|| is minimized at
        # mu = positive part, with minimum equal to the negative-part mass.
        nu = DiscreteSignedMeasure([0.0, 1.0, 2.0], [2.0, -1.0, 0.5])
        grid = np.arange(0.0, 3.25, 0.25)
        best = min(
            sum(abs(w - m) for w, m in zip((2.0, -1.0, 0.5), mu))
            for mu in itertools.product(grid, repeat=3)
        )
        assert best == lop(nu) == 1.0

    def test_lon_is_distance_to_negative_measures(self):
        nu = DiscreteSignedMeasure([0.0, 1.0, 2.0], [2.0, -1.0, 0.5])
        grid = -np.arange(0.0, 3.25, 0.25)
        best = min(
            sum(abs(w - m) for w, m in zip((2.0, -1.0, 0.5), mu))
            for mu in itertools.product(grid, repeat=3)
        )
        assert best == lon(nu) == 2.5


@pytest.mark.filterwarnings("error")
class TestOverflowingTotalVariation:
    @pytest.mark.parametrize(
        "nu",
        [
            DiscreteSignedMeasure([0.0, 1.0], [1e308, 1e308]),
            GridDensityMeasure([2.0, 2.0], [1e308, -1e308]),
            # Each component is finite; their sum is not.
            MixedSignedMeasure(DiscreteSignedMeasure([0.0], [1e308]), GridDensityMeasure([1.0], [-1e308])),
        ],
    )
    def test_raises_instead_of_inf_or_nan(self, nu):
        for index in (lop_norm, lon_norm, los_norm, lop, los, lambda m: m.total_variation(), positivity_report):
            with pytest.raises(InvalidInputError) as excinfo:
                index(nu)
            assert str(excinfo.value) == "the total variation overflows float64"


# Every query that reads the sign split of a measure.
MEASURE_QUERIES = {
    "lop": lop,
    "lon": lon,
    "los": los,
    "lop_norm": lop_norm,
    "lon_norm": lon_norm,
    "los_norm": los_norm,
    "positivity_report": positivity_report,
    "total_variation": lambda nu: nu.total_variation(),
}

MASSES = st.floats(-1e308, 1e308) | st.floats(-1e-300, 1e-300) | st.sampled_from([0.0, -0.0, 1.0, -1.0])


@st.composite
def signed_measures(draw):
    """A discrete, grid or mixed measure whose indices may be zero, subnormal or overflow."""
    n = draw(st.integers(0, 8))
    atoms = DiscreteSignedMeasure(np.arange(float(n)), draw(st.lists(MASSES, min_size=n, max_size=n)))
    k = draw(st.integers(1, 8))
    lengths = draw(st.lists(st.floats(1e-3, 1e3), min_size=k, max_size=k))
    grid = GridDensityMeasure(lengths, draw(st.lists(MASSES, min_size=k, max_size=k)))
    return draw(st.sampled_from([atoms, grid, MixedSignedMeasure(atoms, grid)]))


def fresh(nu):
    """The same measure, built again, with no split kept."""
    if isinstance(nu, MixedSignedMeasure):
        return MixedSignedMeasure(fresh(nu.discrete), fresh(nu.grid))
    if isinstance(nu, DiscreteSignedMeasure):
        return DiscreteSignedMeasure(nu.locations, nu.weights)
    return GridDensityMeasure._of(nu.lengths, nu.densities, nu.masses)


def _arrays(nu) -> tuple[np.ndarray, ...]:
    if isinstance(nu, DiscreteSignedMeasure):
        return nu.locations, nu.weights
    return nu.lengths, nu.densities, nu.masses


class TestSplitMemo:
    """A measure reduces its masses once, on first use; dg takes the split of g."""

    @pytest.mark.parametrize("nu", [ATOMS, GRID], ids=["discrete", "grid"])
    def test_one_reduction_per_measure_object(self, nu, split_calls):
        nu = fresh(nu)
        answers = [outcome(query, nu) for query in MEASURE_QUERIES.values()]
        assert [outcome(query, nu) for query in MEASURE_QUERIES.values()] == answers
        assert len(split_calls) == 1

    def test_a_mixed_measure_sums_the_kept_splits_of_its_parts(self, split_calls):
        atoms, grid = fresh(ATOMS), fresh(GRID)
        lop(atoms)
        mixed = MixedSignedMeasure(atoms, grid)
        for query in MEASURE_QUERIES.values():
            query(mixed)
        assert split_calls == [4, 3]
        assert positivity_report(MixedSignedMeasure(atoms, grid)).tv == atoms.total_variation() + grid.total_variation()
        assert split_calls == [4, 3]

    def test_the_derivative_measure_takes_the_split_of_the_function(self, split_calls):
        f = SampledFunction([0.0, 1.0, 2.5, 3.0], [0.0, 2.0, -1.0, 0.5])
        assert loi(f) == 3.0
        assert (lop(derivative(f)), los(derivative(f))) == (3.0, 6.0)
        assert split_calls == [3]

    def test_the_function_takes_the_split_of_its_derivative_measure(self, split_calls):
        f = SampledFunction([0.0, 1.0, 2.5, 3.0], [0.0, 2.0, -1.0, 0.5])
        assert (lop(derivative(f)), los(derivative(f))) == (3.0, 6.0)
        assert (loi(f), lom(f)) == (3.0, 6.0)
        assert split_calls == [3]

    @pytest.mark.filterwarnings("error")
    def test_the_split_of_dg_is_the_reduction_of_its_masses(self):
        rng = np.random.default_rng(5150)
        for n in (1, 7, 300, _backend.BLOCK + 1):
            xs = np.cumsum(rng.uniform(0.1, 3.0, n + 1))
            f = SampledFunction(xs, np.cumsum(rng.normal(0.0, 1.0, n + 1)))
            nu = derivative(f)
            assert positivity_report(fresh(nu)) == positivity_report(nu)
            assert (lop(nu), lon(nu), nu.total_variation()) == (loi(f), lod(f), total_variation(f))

    @given(signed_measures())
    @settings(max_examples=200, deadline=None)
    def test_a_warm_measure_answers_as_a_fresh_one(self, nu):
        for query in MEASURE_QUERIES.values():
            outcome(query, nu)
        for name, query in MEASURE_QUERIES.items():
            assert outcome(query, nu) == outcome(query, fresh(nu)), name

    def test_a_constructed_measure_cannot_be_made_writeable(self):
        dg = derivative(SampledFunction([0.0, 1.0, 2.5, 3.0], [0.0, 2.0, -1.0, 0.5]))
        grid_parts, atom_parts = jordan(GRID), jordan(ATOMS)
        arrays = [*_arrays(ATOMS)]
        for nu in (GRID, dg, grid_parts.positive_part, grid_parts.negative_part):
            arrays += _arrays(nu)
        for pair in (atom_parts, grid_parts):
            arrays += [pair.hahn_positive, pair.hahn_negative]
        for arr in arrays:
            with pytest.raises(ValueError):
                arr.flags.writeable = True

    def test_a_copied_or_unpickled_measure_is_frozen_and_reduces_its_own(self, split_calls):
        f = SampledFunction([0.0, 1.0, 2.5, 3.0], [0.0, 2.0, -1.0, 0.5])
        # 200 cells: protocols 0-4 unpickle an array over 1000 bytes as a writeable array over bytes.
        xs = np.linspace(0.0, 1.0, 201)
        large = derivative(SampledFunction(xs, np.sin(20.0 * xs)))
        for nu in (ATOMS, GRID, derivative(f), large, MixedSignedMeasure(ATOMS, GRID)):
            want = positivity_report(nu)
            copies = [pickle.loads(pickle.dumps(nu, protocol=4)), pickle.loads(pickle.dumps(nu)),
                      copy.deepcopy(nu), copy.copy(nu)]
            if nu is ATOMS or nu is large:
                # Loaded over the caller's buffers, which are overwritten after loading.
                copies.append(unpickled_out_of_band(nu))
            for copied in copies:
                mixed = isinstance(copied, MixedSignedMeasure)
                parts = (copied.discrete, copied.grid) if mixed else (copied,)
                sources = (nu.discrete, nu.grid) if mixed else (nu,)
                for part, source in zip(parts, sources):
                    for arr, kept in zip(_arrays(part), _arrays(source)):
                        assert arr.tolist() == kept.tolist()
                        with pytest.raises(ValueError):
                            arr.flags.writeable = True
                # Each part reduces its own masses once, unless it is the source's:
                # a shallow copy of a mixed measure shares its frozen parts.
                split_calls.clear()
                assert positivity_report(copied) == positivity_report(copied) == want
                assert split_calls == [_arrays(part)[-1].shape[0] for part, source in zip(parts, sources) if part is not source]


def eager_arrays(f: SampledFunction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lengths, densities, masses) of df built at once from the samples: Δx, Δy/Δx and Δy."""
    lengths, masses = np.diff(f.xs), np.diff(f.ys)
    return lengths, masses / lengths, masses


ARRAY_NAMES = ("lengths", "densities", "masses")


def view_functions(sizes=(1, 2, 7, 300, _backend.BLOCK - 1, _backend.BLOCK, _backend.BLOCK + 1)):
    rng = np.random.default_rng(6060)
    for n in sizes:
        xs = rng.uniform(-5.0, 5.0) + np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 3.0, n))))
        yield SampledFunction(xs, np.cumsum(rng.normal(0.0, 1.0, n + 1)))


@pytest.mark.filterwarnings("error")
class TestDerivativeView:
    """dg is a view of g: it holds g alone, forms its arrays on first read and shares g's split."""

    def test_arrays_read_first_have_the_bits_of_the_eager_build(self):
        for f in view_functions():
            want = [arr.tobytes() for arr in eager_arrays(f)]
            for first in ARRAY_NAMES:
                dg = derivative(f)
                assert (lop(dg), lon(dg)) == (loi(f), lod(f))
                assert not set(ARRAY_NAMES) & set(vars(dg))
                read = getattr(dg, first)
                assert [arr.tobytes() for arr in _arrays(dg)] == want
                assert getattr(dg, first) is read
                for arr in _arrays(dg):
                    assert arr.dtype == np.float64
                    with pytest.raises(ValueError):
                        arr.flags.writeable = True

    def test_repr_and_jordan_parts_read_the_arrays(self):
        for f in view_functions((1, 7, 300)):
            eager = GridDensityMeasure._of(*eager_arrays(f))
            assert repr(derivative(f)) == repr(eager)
            got, want = jordan(derivative(f)), jordan(eager)
            for part, kept in ((got.positive_part, want.positive_part), (got.negative_part, want.negative_part)):
                assert [arr.tobytes() for arr in _arrays(part)] == [arr.tobytes() for arr in _arrays(kept)]
            assert got.hahn_negative.tolist() == want.hahn_negative.tolist()

    def test_copies_of_a_never_read_view_answer_like_it(self):
        copiers = {
            "pickle 4": lambda nu: pickle.loads(pickle.dumps(nu, protocol=4)),
            "pickle 5": lambda nu: pickle.loads(pickle.dumps(nu, protocol=5)),
            "out of band": unpickled_out_of_band,
            "copy": copy.copy,
            "deepcopy": copy.deepcopy,
        }
        for f in view_functions((1, 7, 300, _backend.BLOCK + 1)):
            want = [outcome(query, derivative(f)) for query in MEASURE_QUERIES.values()]
            arrays = [arr.tobytes() for arr in eager_arrays(f)]
            for name, copier in copiers.items():
                copied = copier(derivative(f))
                assert copied._function is None, name
                assert [outcome(query, copied) for query in MEASURE_QUERIES.values()] == want, name
                assert [arr.tobytes() for arr in _arrays(copied)] == arrays, name
                for arr in _arrays(copied):
                    with pytest.raises(ValueError):
                        arr.flags.writeable = True

    def test_threads_that_race_read_the_same_bytes(self):
        f = next(view_functions((_backend.BLOCK + 1,)))
        want = [arr.tobytes() for arr in eager_arrays(f)]
        dg = derivative(f)
        barrier = threading.Barrier(8)
        results = []

        def work(k):
            barrier.wait(timeout=10)
            # Each thread reads the arrays in its own order.
            names = ARRAY_NAMES[k % 3 :] + ARRAY_NAMES[: k % 3]
            read = {name: getattr(dg, name).tobytes() for name in names}
            results.append([read[name] for name in ARRAY_NAMES])

        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
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
        assert [arr.tobytes() for arr in _arrays(dg)] == want

    def test_a_warm_function_answers_lop_and_los_of_dg_without_an_array(self):
        f = next(view_functions((100_000,)))
        ys = f.ys.copy()
        ys[-2:] = (-1e308, 1e308)
        overflowing = SampledFunction(f.xs, ys)
        want = (loi(f), lom(f))
        # The first calls check the difference quotients; later ones read the kept verdict.
        derivative(f)
        with pytest.raises(InvalidInputError) as first:
            derivative(overflowing)
        tracemalloc.start()
        try:
            got = (lop(derivative(f)), los(derivative(f)))
            with pytest.raises(InvalidInputError) as later:
                derivative(overflowing)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert str(later.value) == str(first.value)
        assert peak < 64 * 1024
