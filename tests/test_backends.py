"""Bit-identity between the compiled kernels, the pure-Python fallback and a plain loop.

The fallback is checked in every environment; the tests that need the
compiled extension skip where it is not built.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import monotonia
from monotonia import _kernels_py

try:
    from monotonia import _kernels as compiled
except ImportError:
    compiled = None

needs_compiled = pytest.mark.skipif(
    compiled is None, reason="compiled extension not built in this environment"
)
BACKENDS = (_kernels_py,) if compiled is None else (compiled, _kernels_py)

ALL_CODES = (
    _kernels_py.NEG,
    _kernels_py.POS,
    _kernels_py.ABS,
    _kernels_py.NEG_POW,
    _kernels_py.POS_POW,
    _kernels_py.ABS_POW,
)
POWERS = (1.0, 1.5, 2.0, 2.7, 3.0)


def libm_pow(x, p):
    """``math.pow`` with libm's answer to overflow, ``inf``, in place of OverflowError."""
    try:
        return math.pow(x, p)
    except OverflowError:
        return math.inf


def reference_transform_reduce(lengths, values, code, p=1.0):
    """Plain Python loop spelling out the contract both backends must match."""
    acc = 0.0
    for length, v in zip(lengths.tolist(), values.tolist()):
        if code == _kernels_py.NEG:
            if v < 0.0:
                acc += length * (-v)
        elif code == _kernels_py.POS:
            if v > 0.0:
                acc += length * v
        elif code == _kernels_py.ABS:
            acc += length * abs(v)
        elif code == _kernels_py.NEG_POW:
            if v < 0.0:
                acc += length * libm_pow(-v, p)
        elif code == _kernels_py.POS_POW:
            if v > 0.0:
                acc += length * libm_pow(v, p)
        else:
            if v != 0.0:
                acc += length * libm_pow(abs(v), p)
    return acc


def reference_sign_split_sums(lengths, values):
    """Plain Python loop spelling out the fused sign split of ``_kernels.pyx``."""
    neg = pos = tv = signed_total = 0.0
    for length, v in zip(lengths.tolist(), values.tolist()):
        if v < 0.0:
            term = length * (-v)
            neg += term
            tv += term
            signed_total -= term
        elif v > 0.0:
            term = length * v
            pos += term
            tv += term
            signed_total += term
    return neg, pos, tv, signed_total


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


CHUNK = _kernels_py.CHUNK
EDGE_CASES = {
    # Every product underflows: the loop's 0.0 start makes each result +0.0.
    "underflow": ([1e-300, 1e-300, 1e-300], [-1e-300, 1e-300, -1e-300]),
    "negative_underflow_only": ([1e-300, 1e-300], [-1e-300, -1e-300]),
    "negative_zeros": ([1.0, 2.0], [-0.0, -0.0]),
    # Products of both signs overflow, so the signed total is inf - inf = NaN.
    "overflow_both_signs": ([1e300, 1e300, 1.0], [1e300, -1e300, 1.0]),
    "overflow_negative": ([1.0, 1e300], [-2.0, -1e300]),
    "power_overflows_before_length": ([1e-300, 1.0], [-1e200, -3.0]),
    "empty": ([], []),
}


def adversarial_cases():
    rng = np.random.default_rng(2718)
    for name, (lengths, values) in EDGE_CASES.items():
        yield name, np.array(lengths, dtype=np.float64), np.array(values, dtype=np.float64)
    for n in (CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7):
        yield f"ordinary_{n}", *random_cells(rng, n)
        yield f"extreme_{n}", *extreme_cells(rng, n)
    for trial in range(150):
        yield f"extreme_small_{trial}", *extreme_cells(rng, int(rng.integers(1, 64)))


ADVERSARIAL = list(adversarial_cases())


@pytest.mark.filterwarnings("error")
class TestAdversarialBitwise:
    """Magnitudes at IEEE extremes and sizes across the fallback's chunk boundary, without warnings."""

    def test_sign_split_matches_loop(self):
        for name, lengths, values in ADVERSARIAL:
            expected = reference_sign_split_sums(lengths, values)
            for backend in BACKENDS:
                got = backend.sign_split_sums(lengths, values)
                assert all(same_bits(a, b) for a, b in zip(got, expected)), (
                    backend.BACKEND_NAME, name, got, expected,
                )

    def test_transform_reduce_matches_loop(self):
        for name, lengths, values in ADVERSARIAL:
            for code in ALL_CODES:
                for p in (1.0, 2.0, 2.7) if code >= _kernels_py.NEG_POW else (1.0,):
                    expected = reference_transform_reduce(lengths, values, code, p)
                    for backend in BACKENDS:
                        got = backend.transform_reduce(lengths, values, code, p)
                        assert same_bits(got, expected), (backend.BACKEND_NAME, name, code, p, got, expected)

    def test_edge_cases_reach_the_extremes(self):
        # Guards the case list: the extremes above must really be produced.
        results = {
            name: reference_sign_split_sums(np.array(lengths), np.array(values))
            for name, (lengths, values) in EDGE_CASES.items()
        }
        assert all(same_bits(r, 0.0) for r in results["underflow"])
        assert results["overflow_both_signs"][:3] == (math.inf, math.inf, math.inf)
        assert math.isnan(results["overflow_both_signs"][3])
        lengths, values = map(np.array, EDGE_CASES["power_overflows_before_length"])
        assert reference_transform_reduce(lengths, values, _kernels_py.NEG_POW, 2.0) == math.inf


class TestTransformReduceParity:
    def test_backends_and_reference_agree_bit_for_bit(self):
        rng = np.random.default_rng(8080)
        for trial in range(200):
            lengths, values = random_cells(rng, int(rng.integers(1, 40)))
            for code in ALL_CODES:
                for p in POWERS if code >= _kernels_py.NEG_POW else (1.0,):
                    expected = reference_transform_reduce(lengths, values, code, p)
                    for backend in BACKENDS:
                        assert backend.transform_reduce(lengths, values, code, p) == expected, (
                            backend.BACKEND_NAME, trial, code, p,
                        )

    def test_power_one_delegates_to_linear_codes(self):
        rng = np.random.default_rng(12)
        lengths, values = random_cells(rng, 25)
        for backend in BACKENDS:
            assert backend.transform_reduce(lengths, values, _kernels_py.NEG_POW, 1.0) == (
                backend.transform_reduce(lengths, values, _kernels_py.NEG)
            )
            assert backend.transform_reduce(lengths, values, _kernels_py.ABS_POW, 1.0) == (
                backend.transform_reduce(lengths, values, _kernels_py.ABS)
            )

    def test_empty_arrays(self):
        empty = np.empty(0, dtype=np.float64)
        for backend in BACKENDS:
            assert backend.transform_reduce(empty, empty, _kernels_py.ABS) == 0.0
            assert backend.sign_split_sums(empty, empty) == (0.0, 0.0, 0.0, 0.0)

    def test_unknown_code_rejected(self):
        arr = np.array([1.0])
        for backend in BACKENDS:
            with pytest.raises(ValueError):
                backend.transform_reduce(arr, arr, 99)

    def test_read_only_arrays_are_accepted(self):
        # Library arrays are frozen, so the kernels must take non-writable input.
        lengths = np.array([1.0, 2.0])
        values = np.array([-1.0, 3.0])
        lengths.flags.writeable = False
        values.flags.writeable = False
        for backend in BACKENDS:
            assert backend.transform_reduce(lengths, values, _kernels_py.ABS) == 7.0
            assert backend.sign_split_sums(lengths, values) == (1.0, 6.0, 7.0, 5.0)


class TestSignSplitParity:
    @needs_compiled
    def test_backends_agree_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            lengths, values = random_cells(rng, int(rng.integers(1, 40)))
            assert compiled.sign_split_sums(lengths, values) == _kernels_py.sign_split_sums(
                lengths, values
            )

    def test_total_mass_matches_abs_reduce(self):
        rng = np.random.default_rng(88)
        for _ in range(100):
            lengths, values = random_cells(rng, int(rng.integers(1, 40)))
            for backend in BACKENDS:
                _, _, tv, _ = backend.sign_split_sums(lengths, values)
                assert tv == backend.transform_reduce(lengths, values, _kernels_py.ABS)

    def test_components_are_consistent(self):
        rng = np.random.default_rng(404)
        for _ in range(100):
            lengths, values = random_cells(rng, int(rng.integers(1, 40)))
            for backend in BACKENDS:
                neg, pos, tv, signed = backend.sign_split_sums(lengths, values)
                assert math.isclose(neg + pos, tv, rel_tol=1e-12, abs_tol=1e-15)
                assert math.isclose(pos - neg, signed, rel_tol=1e-12, abs_tol=1e-12)


def run_with_env(**extra_env) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.update(extra_env)
    return subprocess.run(
        [
            sys.executable,
            "-c",
            "import monotonia; print(monotonia.BACKEND_NAME, monotonia.HAVE_COMPILED)",
        ],
        capture_output=True,
        text=True,
        env=env,
    )


class TestBackendSelection:
    @needs_compiled
    def test_default_prefers_compiled(self):
        assert monotonia.BACKEND_NAME == "compiled"
        assert monotonia.HAVE_COMPILED is True

    def test_env_forces_python_fallback(self):
        proc = run_with_env(MONO_BACKEND="python")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["python", "False"]

    @needs_compiled
    def test_env_forces_compiled(self):
        proc = run_with_env(MONO_BACKEND="compiled")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["compiled", "True"]

    def test_invalid_env_value_fails_import(self):
        proc = run_with_env(MONO_BACKEND="fortran")
        assert proc.returncode != 0
        assert "MONO_BACKEND" in proc.stderr

    @needs_compiled
    def test_full_pipeline_matches_across_backends(self):
        # Run a small end-to-end computation under the forced fallback and
        # compare against the in-process compiled result, digit for digit.
        script = (
            "import numpy as np\n"
            "from monotonia import SampledFunction, loi, lod, loi_p, total_variation\n"
            "rng = np.random.default_rng(5)\n"
            "xs = np.cumsum(np.concatenate(([0.0], rng.uniform(0.1, 2.0, 30))))\n"
            "f = SampledFunction(xs, rng.uniform(-4.0, 4.0, 31))\n"
            "print(repr(loi(f)), repr(lod(f)), repr(loi_p(f, 2.7)), repr(total_variation(f)))\n"
        )
        env = dict(os.environ)
        env["MONO_BACKEND"] = "python"
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        import numpy as np  # local to mirror the script exactly

        from monotonia import SampledFunction, lod, loi, loi_p, total_variation

        rng = np.random.default_rng(5)
        xs = np.cumsum(np.concatenate(([0.0], rng.uniform(0.1, 2.0, 30))))
        f = SampledFunction(xs, rng.uniform(-4.0, 4.0, 31))
        expected = f"{loi(f)!r} {lod(f)!r} {loi_p(f, 2.7)!r} {total_variation(f)!r}"
        assert proc.stdout.strip() == expected
