"""The NumPy reduction kernels against plain Python loops.

Each kernel sum is checked against ``math.fsum`` of the loop's terms within
the summation error bound, and exactly where the contract is exact: empty
inputs, zero results, a power of 1, and the sign split against the single
reductions.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from helpers import assert_sum_within_bound

from monotonia import _backend
from monotonia._backend import ABS, ABS_POW, NEG, NEG_POW, POS, POS_POW

ALL_CODES = (NEG, POS, ABS, NEG_POW, POS_POW, ABS_POW)
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


def reference_terms(lengths, values, code, p=1.0):
    """The terms ``length * H(value)`` of a plain loop, and the slack pow's error adds to their sum."""
    terms = []
    slack = 0.0
    for length, v in zip(lengths.tolist(), values.tolist()):
        if code == NEG:
            if v < 0.0:
                terms.append(length * (-v))
        elif code == POS:
            if v > 0.0:
                terms.append(length * v)
        elif code == ABS:
            terms.append(length * abs(v))
        elif (code == NEG_POW and v < 0.0) or (code == POS_POW and v > 0.0) or (code == ABS_POW and v != 0.0):
            power = libm_pow(abs(v), p)
            terms.append(length * power)
            if p != 1.0:
                slack += length * POW_ULPS * math.ulp(power)
    return terms, slack


def reference_split_terms(lengths, values):
    """The loop's terms of the fused sign split: negative, positive and magnitude."""
    neg, pos, mag = [], [], []
    for length, v in zip(lengths.tolist(), values.tolist()):
        if v < 0.0:
            term = length * (-v)
            neg.append(term)
            mag.append(term)
        elif v > 0.0:
            term = length * v
            pos.append(term)
            mag.append(term)
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
    """Cells whose products and powers underflow to 0, overflow to inf, or stay ordinary."""
    spread = float(rng.choice([1.0, 20.0, 160.0, 300.0]))
    lengths = 10.0 ** rng.uniform(-spread, spread, n)
    values = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-spread - 20.0, spread + 8.0, n)
    values[rng.uniform(size=n) < 0.1] = rng.choice([-0.0, 0.0])
    return lengths, values


BLOCK = 1 << 16
EDGE_CASES = {
    # Every product underflows: each result is +0.0.
    "underflow": ([1e-300, 1e-300, 1e-300], [-1e-300, 1e-300, -1e-300]),
    "negative_underflow_only": ([1e-300, 1e-300], [-1e-300, -1e-300]),
    "negative_zeros": ([1.0, 2.0], [-0.0, -0.0]),
    # Products of both signs overflow, so every mass is inf.
    "overflow_both_signs": ([1e300, 1e300, 1.0], [1e300, -1e300, 1.0]),
    "overflow_negative": ([1.0, 1e300], [-2.0, -1e300]),
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
    """(case name, lengths, values, code, p) over the adversarial inputs."""
    for name, lengths, values in ADVERSARIAL:
        for code in ALL_CODES:
            for p in (1.0, 2.0, 2.7) if code >= NEG_POW else (1.0,):
                yield name, lengths, values, code, p


@pytest.mark.filterwarnings("error")
class TestAdversarialAccuracy:
    """Magnitudes at IEEE extremes and large sizes, within the bound and without warnings."""

    def test_sign_split_within_bound(self):
        for name, lengths, values in ADVERSARIAL:
            got = _backend.sign_split_sums(lengths, values)
            for result, terms in zip(got, reference_split_terms(lengths, values), strict=True):
                assert_sum_within_bound(result, terms), name

    def test_transform_reduce_within_bound(self):
        for name, lengths, values, code, p in reduce_cases():
            terms, slack = reference_terms(lengths, values, code, p)
            got = _backend.transform_reduce(lengths, values, code, p)
            assert_sum_within_bound(got, terms, slack), (name, code, p)


@pytest.mark.filterwarnings("error")
class TestAdversarialBitwise:
    """The exact parts of the contract on the same adversarial inputs."""

    def test_split_equals_linear_reductions(self):
        for name, lengths, values in ADVERSARIAL:
            neg, pos, tv = _backend.sign_split_sums(lengths, values)
            assert same_bits(neg, _backend.transform_reduce(lengths, values, NEG)), name
            assert same_bits(pos, _backend.transform_reduce(lengths, values, POS)), name
            assert same_bits(tv, _backend.transform_reduce(lengths, values, ABS)), name

    def test_zero_results_are_positive_zero(self):
        zeros = 0
        for name, lengths, values, code, p in reduce_cases():
            got = _backend.transform_reduce(lengths, values, code, p)
            if got == 0.0:
                zeros += 1
                assert same_bits(got, 0.0), (name, code, p)
        for name, lengths, values in ADVERSARIAL:
            for got in _backend.sign_split_sums(lengths, values):
                if got == 0.0:
                    zeros += 1
                    assert same_bits(got, 0.0), name
        assert zeros > 0

    def test_edge_cases_reach_the_extremes(self):
        # Guards the case list: the extremes above must really be produced by the loop.
        results = {
            name: tuple(sum(terms, 0.0) for terms in reference_split_terms(np.array(lengths), np.array(values)))
            for name, (lengths, values) in EDGE_CASES.items()
        }
        assert all(same_bits(r, 0.0) for r in results["underflow"])
        assert results["overflow_both_signs"] == (math.inf, math.inf, math.inf)
        lengths, values = map(np.array, EDGE_CASES["power_overflows_before_length"])
        terms, _ = reference_terms(lengths, values, NEG_POW, 2.0)
        assert sum(terms) == math.inf


class TestTransformReduceParity:
    def test_random_cells_within_bound(self):
        rng = np.random.default_rng(8080)
        for trial in range(200):
            lengths, values = random_cells(rng, int(rng.integers(1, 40)))
            for code in ALL_CODES:
                for p in POWERS if code >= NEG_POW else (1.0,):
                    terms, slack = reference_terms(lengths, values, code, p)
                    got = _backend.transform_reduce(lengths, values, code, p)
                    assert_sum_within_bound(got, terms, slack), (trial, code, p)

    def test_power_one_delegates_to_linear_codes(self):
        rng = np.random.default_rng(12)
        lengths, values = random_cells(rng, 25)
        for code in (NEG, POS, ABS):
            assert same_bits(
                _backend.transform_reduce(lengths, values, code + NEG_POW, 1.0),
                _backend.transform_reduce(lengths, values, code),
            )

    def test_empty_arrays(self):
        empty = np.empty(0, dtype=np.float64)
        for code in ALL_CODES:
            assert same_bits(_backend.transform_reduce(empty, empty, code, 2.0), 0.0)
        got = _backend.sign_split_sums(empty, empty)
        assert got == (0.0, 0.0, 0.0)
        assert all(same_bits(v, 0.0) for v in got)

    def test_unknown_code_rejected(self):
        arr = np.array([1.0])
        with pytest.raises(ValueError):
            _backend.transform_reduce(arr, arr, 99)

    def test_read_only_arrays_are_accepted(self):
        # Library arrays are frozen, so the kernels must take non-writable input.
        lengths = np.array([1.0, 2.0])
        values = np.array([-1.0, 3.0])
        lengths.flags.writeable = False
        values.flags.writeable = False
        assert _backend.transform_reduce(lengths, values, ABS) == 7.0
        assert _backend.transform_reduce(lengths, values, POS_POW, 2.0) == 18.0
        assert _backend.sign_split_sums(lengths, values) == (1.0, 6.0, 7.0)


class TestSignSplitParity:
    def test_total_mass_matches_abs_reduce(self):
        rng = np.random.default_rng(88)
        for _ in range(100):
            lengths, values = random_cells(rng, int(rng.integers(1, 40)))
            neg, pos, tv = _backend.sign_split_sums(lengths, values)
            assert tv == _backend.transform_reduce(lengths, values, ABS)
            assert neg == _backend.transform_reduce(lengths, values, NEG)
            assert pos == _backend.transform_reduce(lengths, values, POS)

    def test_components_are_consistent(self):
        rng = np.random.default_rng(404)
        for _ in range(100):
            lengths, values = random_cells(rng, int(rng.integers(1, 40)))
            neg, pos, tv = _backend.sign_split_sums(lengths, values)
            assert math.isclose(neg + pos, tv, rel_tol=1e-12, abs_tol=1e-15)
