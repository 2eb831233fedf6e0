"""The NumPy reduction kernels against plain Python loops.

Each kernel sum is checked against ``math.fsum`` of the loop's terms within
the summation error bound, and exactly where the contract is exact: empty
inputs, zero results, and the sign split's total and symmetry.  The sign
split reduces one array of signed cell masses; the powered code takes
values and, optionally, their cell lengths.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from helpers import assert_sum_within_bound

from monotonia import _backend
from monotonia._backend import NEG, NEG_POW, POS

POWER_CODES = (NEG_POW,)
POWERS = (1.0, 1.5, 2.0, 2.7, 3.0)
# pow's error on a powered term: np.power was measured within 1 ulp of
# libm's pow; 4 ulps leave a margin for other CPUs' SIMD routines.
POW_ULPS = 4.0


def libm_pow(x, p):
    """``math.pow`` with libm's answer to overflow, ``inf``, in place of OverflowError."""
    try:
        return math.pow(x, p)
    except OverflowError:
        return math.inf


def reference_terms(values, code, p=1.0, lengths=None):
    """The terms of a plain loop, and the slack pow's error adds to their sum.

    The powered code's terms are ``length * (−value)**p`` over the negative
    values, with unit lengths when ``lengths`` is None.
    """
    terms = []
    slack = 0.0
    unit = lengths is None
    for length, v in zip([1.0] * len(values) if unit else lengths.tolist(), values.tolist()):
        if code == NEG_POW and v < 0.0:
            power = libm_pow(abs(v), p)
            terms.append(power if unit else length * power)
            if p != 1.0:
                slack += length * POW_ULPS * math.ulp(power)
    return terms, slack


def reference_split_terms(masses):
    """The loop's terms of the sign split: negative, positive and magnitude."""
    neg, pos, mag = [], [], []
    for v in masses.tolist():
        if v < 0.0:
            neg.append(-v)
            mag.append(-v)
        elif v > 0.0:
            pos.append(v)
            mag.append(v)
    return neg, pos, mag


def same_bits(a: float, b: float) -> bool:
    """Bitwise equality, so -0.0 and 0.0 differ; any NaN equals any NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return bool(np.float64(a).view(np.int64) == np.float64(b).view(np.int64))


def random_cells(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    lengths = rng.uniform(0.01, 3.0, n)
    values = rng.uniform(-10.0, 10.0, n)
    # Sprinkle exact zeros so the "skip zero cells" branches are exercised.
    values[rng.uniform(size=n) < 0.1] = 0.0
    return lengths, values


def extreme_cells(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cells whose sums, products and powers underflow to 0, overflow to inf, or stay ordinary."""
    spread = float(rng.choice([1.0, 20.0, 160.0, 300.0]))
    lengths = 10.0 ** rng.uniform(-spread, spread, n)
    values = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-spread - 20.0, spread + 8.0, n)
    values[rng.uniform(size=n) < 0.1] = rng.choice([-0.0, 0.0])
    return lengths, values


BLOCK = 1 << 16
# (lengths, values): the sign split takes the values as masses, the powered code both.
EDGE_CASES = {
    # Every powered term underflows: each powered result is +0.0.
    "underflow": ([1e-300, 1e-300, 1e-300], [-1e-300, 1e-300, -1e-300]),
    "negative_underflow_only": ([1e-300, 1e-300], [-1e-300, -1e-300]),
    # Subnormal masses, summed exactly.
    "subnormal_masses": ([1.0, 1.0, 1.0], [-5e-324, 5e-324, -5e-324]),
    "negative_zeros": ([1.0, 2.0], [-0.0, -0.0]),
    # Masses and powered terms of both signs overflow, so every sum is inf.
    "overflow_both_signs": ([1e300, 1e300, 1.0, 1.0], [1e308, -1e308, 1e308, -1e308]),
    "overflow_negative": ([1.0, 1e300, 1.0], [-2.0, -1e308, -1e308]),
    "power_overflows_before_length": ([1e-300, 1.0], [-1e200, -3.0]),
    "empty": ([], []),
}


def adversarial_cases():
    rng = np.random.default_rng(2718)
    for name, (lengths, values) in EDGE_CASES.items():
        yield name, np.array(lengths, dtype=np.float64), np.array(values, dtype=np.float64)
    for n in (BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7):
        yield f"ordinary_{n}", *random_cells(rng, n)
        yield f"extreme_{n}", *extreme_cells(rng, n)
    for trial in range(150):
        yield f"extreme_small_{trial}", *extreme_cells(rng, int(rng.integers(1, 64)))


ADVERSARIAL = list(adversarial_cases())


def reduce_cases():
    """(case name, values, code, p, lengths) over the adversarial inputs: values
    with and without lengths for the powered code."""
    for name, lengths, values in ADVERSARIAL:
        for code in POWER_CODES:
            for p in (1.0, 2.0, 2.7):
                yield name, values, code, p, lengths
                yield name, values, code, p, None


@pytest.mark.filterwarnings("error")
class TestAdversarialAccuracy:
    """Magnitudes at IEEE extremes and large sizes, within the bound and without warnings."""

    def test_sign_split_within_bound(self):
        for name, _, masses in ADVERSARIAL:
            got = _backend.sign_split_sums(masses)
            for result, terms in zip(got, reference_split_terms(masses), strict=True):
                assert_sum_within_bound(result, terms), name

    def test_transform_reduce_within_bound(self):
        for name, values, code, p, lengths in reduce_cases():
            terms, slack = reference_terms(values, code, p, lengths)
            got = _backend.transform_reduce(values, code, p, lengths)
            assert_sum_within_bound(got, terms, slack), (name, code, p, lengths is None)


@pytest.mark.filterwarnings("error")
class TestAdversarialBitwise:
    """The exact parts of the contract on the same adversarial inputs."""

    def test_split_total_and_mirror_are_exact(self):
        for name, _, masses in ADVERSARIAL:
            neg, pos, tv = _backend.sign_split_sums(masses)
            mirrored = _backend.sign_split_sums(-masses)
            assert same_bits(neg, mirrored[POS]), name
            assert same_bits(pos, mirrored[NEG]), name
            assert same_bits(tv, neg + pos), name

    def test_zero_results_are_positive_zero(self):
        zeros = 0
        for name, values, code, p, lengths in reduce_cases():
            got = _backend.transform_reduce(values, code, p, lengths)
            if got == 0.0:
                zeros += 1
                assert same_bits(got, 0.0), (name, code, p, lengths is None)
        for name, _, masses in ADVERSARIAL:
            for got in _backend.sign_split_sums(masses):
                if got == 0.0:
                    zeros += 1
                    assert same_bits(got, 0.0), name
        assert zeros > 0

    def test_edge_cases_reach_the_extremes(self):
        # Guards the case list: the extremes above must really be produced by the loop.
        cases = {name: (np.array(lengths), np.array(values)) for name, (lengths, values) in EDGE_CASES.items()}

        def split(name):
            return tuple(sum(terms, 0.0) for terms in reference_split_terms(cases[name][1]))

        lengths, values = cases["underflow"]
        for code in POWER_CODES:
            for p in (1.0, 2.0):
                terms, _ = reference_terms(values, code, p, lengths)
                assert terms and same_bits(sum(terms, 0.0), 0.0)
        assert split("subnormal_masses") == (1e-323, 5e-324, 1.5e-323)
        assert split("overflow_both_signs") == (math.inf, math.inf, math.inf)
        assert split("overflow_negative") == (math.inf, 0.0, math.inf)
        lengths, values = cases["power_overflows_before_length"]
        terms, _ = reference_terms(values, NEG_POW, 2.0, lengths)
        assert sum(terms) == math.inf


class TestTransformReduceParity:
    def test_random_cells_within_bound(self):
        rng = np.random.default_rng(8080)
        for trial in range(200):
            lengths, values = random_cells(rng, int(rng.integers(1, 40)))
            for result, terms in zip(_backend.sign_split_sums(values), reference_split_terms(values), strict=True):
                assert_sum_within_bound(result, terms), trial
            for code in POWER_CODES:
                for p in POWERS:
                    for cell_lengths in (lengths, None):
                        terms, slack = reference_terms(values, code, p, cell_lengths)
                        got = _backend.transform_reduce(values, code, p, cell_lengths)
                        assert_sum_within_bound(got, terms, slack), (trial, code, p)

    def test_empty_arrays(self):
        empty = np.empty(0, dtype=np.float64)
        for code in POWER_CODES:
            assert same_bits(_backend.transform_reduce(empty, code, 2.0), 0.0)
            assert same_bits(_backend.transform_reduce(empty, code, 2.0, empty), 0.0)
        got = _backend.sign_split_sums(empty)
        assert got == (0.0, 0.0, 0.0)
        assert all(same_bits(v, 0.0) for v in got)

    def test_unknown_code_rejected(self):
        arr = np.array([1.0])
        # Only the powers of the negative part are reduced here; the linear sums are the sign split's.
        for code in (NEG, POS, 3, 4, 5, 99):
            for lengths in (None, arr):
                with pytest.raises(ValueError):
                    _backend.transform_reduce(arr, code, 2.0, lengths)

    def test_read_only_arrays_are_accepted(self):
        # Library arrays are frozen, so the kernels must take non-writable input.
        lengths = np.array([1.0, 2.0])
        values = np.array([-1.0, 3.0])
        lengths.flags.writeable = False
        values.flags.writeable = False
        assert _backend.transform_reduce(values, NEG_POW, 2.0, lengths) == 1.0
        assert _backend.sign_split_sums(values) == (1.0, 3.0, 4.0)


class TestSignSplitParity:
    def test_parts_of_a_one_signed_array_are_its_total(self):
        rng = np.random.default_rng(88)
        for _ in range(100):
            _, masses = random_cells(rng, int(rng.integers(1, 40)))
            neg, pos, tv = _backend.sign_split_sums(masses)
            # Clamping away one sign leaves the other part's bits and a zero part.
            assert _backend.sign_split_sums(np.minimum(masses, 0.0)) == (neg, 0.0, neg)
            assert _backend.sign_split_sums(np.maximum(masses, 0.0)) == (0.0, pos, pos)

    def test_components_are_consistent(self):
        rng = np.random.default_rng(404)
        for _ in range(100):
            _, masses = random_cells(rng, int(rng.integers(1, 40)))
            neg, pos, tv = _backend.sign_split_sums(masses)
            assert neg + pos == tv
