"""Shared generators and assertions for the test suite.

Two families of random functions are used.  The dyadic family draws slopes,
lengths, and shifts from small dyadic rationals, so every ordinate, slope,
and scaled/shifted variant is exactly representable and the algebraic
identities can be asserted at full precision.  The continuous family draws
ordinary uniform floats with slopes bounded away from zero; it is used where
genuine ties would be degenerate (orderings, risk samples) and exact
identities are not at stake.
"""

from __future__ import annotations

import math
import sys

import numpy as np
from hypothesis import strategies as st

from monotonia import SampledFunction


def assert_close(actual: float, expected: float, rel: float = 1e-12, abs_: float = 1e-15) -> None:
    assert math.isclose(actual, expected, rel_tol=rel, abs_tol=abs_), (
        f"{actual!r} != {expected!r} (rel_tol={rel}, abs_tol={abs_})"
    )


U = 2.0**-53  # unit roundoff of float64
TINY = 2.0**-1074  # smallest subnormal


def assert_sum_within_bound(got: float, terms: list[float], slack: float = 0.0) -> None:
    """``got`` is within (n + 1)·u·Σ|terms| + slack of the exact sum of the n rounded, non-negative ``terms``.

    That bounds the error of any summation order, fused multiply-adds
    included (Higham, "The accuracy of floating point summation", 1993).
    The check allows one u·Σ|terms| more for second-order terms, and a
    subnormal per term for products that underflow.  When a term or
    the exact sum overflows, ``got`` must be ``inf``.
    """
    try:
        exact = math.fsum(terms)
        magnitude = math.fsum(map(abs, terms))
    except OverflowError:  # a huge partial sum
        exact = magnitude = math.inf
    if not math.isfinite(exact):
        assert got == math.inf, (got, exact)
        return
    n = len(terms)
    bound = (n + 2) * U * magnitude + n * TINY + slack
    if math.isinf(got):
        assert abs(exact) + bound >= sys.float_info.max, (got, exact)
    else:
        assert abs(got - exact) <= bound, (got, exact, bound)


def _assemble(lengths: np.ndarray, slopes: np.ndarray, x0: float, y0: float) -> SampledFunction:
    xs = x0 + np.concatenate(([0.0], np.cumsum(lengths)))
    ys = y0 + np.concatenate(([0.0], np.cumsum(slopes * lengths)))
    return SampledFunction(xs, ys)


def dyadic_function(rng: np.random.Generator, min_cells: int = 2, max_cells: int = 60) -> SampledFunction:
    """Random piecewise-linear function with exactly representable data.

    Slopes lie in [-10, 10] on a 1/1024 grid, lengths in (0, 3] on a 1/256
    grid; all cumulative sums stay far below 2**52 in scaled-integer terms,
    so ordinates are exact and so are shifted/scaled copies built from them.
    """
    n = int(rng.integers(min_cells, max_cells + 1))
    lengths = rng.integers(1, 769, n) / 256.0
    slopes = rng.integers(-10240, 10241, n) / 1024.0
    x0 = float(rng.integers(-1280, 1281)) / 256.0
    y0 = float(rng.integers(-1280, 1281)) / 256.0
    return _assemble(lengths, slopes, x0, y0)


def dyadic_shift(rng: np.random.Generator) -> float:
    return float(rng.integers(-1280, 1281)) / 256.0


def dyadic_scale(rng: np.random.Generator) -> float:
    """Nonzero scale in [-4, 4] on a 1/128 grid."""
    while True:
        k = int(rng.integers(-512, 513))
        if k != 0:
            return k / 128.0


def continuous_function(
    rng: np.random.Generator,
    min_cells: int = 2,
    max_cells: int = 12,
    force_mixed: bool = False,
) -> SampledFunction:
    """Random function with uniform lengths/slopes, slopes bounded away from 0."""
    while True:
        n = int(rng.integers(min_cells, max_cells + 1))
        lengths = rng.uniform(0.1, 3.0, n)
        signs = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
        slopes = signs * rng.uniform(0.01, 10.0, n)
        if force_mixed and not (np.any(slopes < 0.0) and np.any(slopes > 0.0)):
            continue
        x0 = float(rng.uniform(-5.0, 5.0))
        y0 = float(rng.uniform(-5.0, 5.0))
        return _assemble(lengths, slopes, x0, y0)


def dominated_pair(rng: np.random.Generator) -> tuple[SampledFunction, SampledFunction]:
    """(g, h) built so g's normalized falling-part survival curve sits below h's.

    g reuses h's falling cells with lengths shrunk by a common factor rho (so
    g's curve is rho times h's at every level) and carries strictly more than
    rho times h's rising mass, which pushes g's total variation above rho
    times h's.  Everything lives on the dyadic grid: recovered slopes are the
    exact rationals for both functions, so the two curves share break values
    bit for bit and the normalized dominance holds with a relative margin of
    at least 1e-4, far above the rounding of the final divisions.  A
    one-sided slope perturbation would not survive the strict thresholding at
    shared breaks, which is why exactness rather than an epsilon is used.
    """
    while True:
        h = dyadic_function(rng, min_cells=3, max_cells=10)
        lengths = np.diff(h.xs)
        slopes = np.diff(h.ys) / lengths
        if np.any(slopes < 0.0):
            break
    falling = slopes < 0.0
    rho = int(rng.integers(77, 231)) / 256.0
    margin = int(rng.integers(26, 257)) / 256.0
    pos_mass = float(np.sum(lengths[~falling] * slopes[~falling]))
    rise_num = int(rng.integers(512, 2049))
    rise_slope = rise_num / 1024.0
    rise_cells = math.ceil((rho * pos_mass + margin) * (256.0 * 1024.0) / rise_num)
    rise_length = rise_cells / 256.0
    g_lengths = np.concatenate((lengths[falling] * rho, [rise_length]))
    g_slopes = np.concatenate((slopes[falling], [rise_slope]))
    order = rng.permutation(g_lengths.shape[0])
    g = _assemble(g_lengths[order], g_slopes[order], 0.0, 0.0)
    return g, h


def negate(f: SampledFunction) -> SampledFunction:
    return SampledFunction(f.xs, -f.ys)


@st.composite
def dyadic_functions(draw, min_cells: int = 2, max_cells: int = 10):
    """Hypothesis strategy over the dyadic family (shrinks over integers)."""
    n = draw(st.integers(min_cells, max_cells))
    lens = draw(st.lists(st.integers(1, 768), min_size=n, max_size=n))
    raw_slopes = draw(st.lists(st.integers(-10240, 10240), min_size=n, max_size=n))
    x0 = draw(st.integers(-1280, 1280)) / 256.0
    y0 = draw(st.integers(-1280, 1280)) / 256.0
    lengths = np.asarray(lens, dtype=np.float64) / 256.0
    slopes = np.asarray(raw_slopes, dtype=np.float64) / 1024.0
    return _assemble(lengths, slopes, x0, y0)


@st.composite
def dyadic_scales(draw):
    k = draw(st.integers(-512, 512).filter(lambda v: v != 0))
    return k / 128.0
