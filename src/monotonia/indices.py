"""Indices quantifying how far a function is from being monotone.

``loi`` measures the distance from the non-decreasing cone (the integral of
the negative part of the derivative), ``lod`` the distance from the
non-increasing cone, and ``lom`` twice the smaller of the two.  Normalized
variants divide by the total variation and live in [0, 1]; they are undefined
for constant functions and raising is preferred over silently emitting NaN.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _backend
from .errors import InvalidInputError, InvalidParameterError, UndefinedIndexError
from .functions import (
    SampledFunction,
    StandardizedFunction,
    _as_sampled,
    _increment_blocks,
    _increment_split,
    _increment_sum,
    derivative,
)

__all__ = [
    "MonotonicityReport",
    "loi",
    "lod",
    "lom",
    "loi_norm",
    "lod_norm",
    "lom_norm",
    "normalized_indices",
    "loi_p",
    "report",
]


@dataclass(frozen=True)
class MonotonicityReport:
    """All raw and normalized indices of one function, plus interval metadata.

    Normalized fields are ``None`` when the function is constant (zero total
    variation).  ``interval`` records the original sampling interval; the
    indices themselves are invariant under the standardizing shift.
    """

    loi: float
    lod: float
    lom: float
    tv: float
    loi_norm: float | None
    lod_norm: float | None
    lom_norm: float | None
    interval: tuple[float, float]
    p: float | None = None
    loi_p: float | None = None


def loi(g: StandardizedFunction | SampledFunction) -> float:
    """Distance from the set of non-decreasing functions (L1, via the derivative): Σ(Δy)⁻."""
    return _increment_sum(g, _backend.NEG)


def lod(g: StandardizedFunction | SampledFunction) -> float:
    """Distance from the set of non-increasing functions: Σ(Δy)⁺."""
    return _increment_sum(g, _backend.POS)


def lom(g: StandardizedFunction | SampledFunction) -> float:
    """Twice the smaller of loi and lod; 0 exactly when the function is monotone."""
    neg, pos, _ = _split(g)
    return 2.0 * min(neg, pos)


def _split(g: StandardizedFunction | SampledFunction) -> tuple[float, float, float]:
    """(loi, lod, total variation) of ``g``, from its increments."""
    return _finite_split(_increment_split(g))


def _finite_split(split: tuple[float, float, float]) -> tuple[float, float, float]:
    """A sign split whose total variation is finite, so neither part nor any ratio of them is inf or NaN."""
    if math.isinf(split[2]):
        raise InvalidInputError("the total variation overflows float64")
    return split


def _normalize(neg: float, pos: float, tv: float) -> tuple[float, float, float] | None:
    """(neg/tv, pos/tv, twice their minimum), or None when ``tv`` is zero."""
    if tv == 0.0:
        return None
    up = neg / tv
    down = pos / tv
    return up, down, 2.0 * min(up, down)


def normalized_indices(g: StandardizedFunction | SampledFunction) -> tuple[float, float, float]:
    """(loi_norm, lod_norm, lom_norm); raises UndefinedIndexError for constant functions."""
    norm = _normalize(*_split(g))
    if norm is None:
        raise UndefinedIndexError("normalized indices are undefined for constant functions (zero total variation)")
    return norm


def loi_norm(g: StandardizedFunction | SampledFunction) -> float:
    return normalized_indices(g)[0]


def lod_norm(g: StandardizedFunction | SampledFunction) -> float:
    return normalized_indices(g)[1]


def lom_norm(g: StandardizedFunction | SampledFunction) -> float:
    return normalized_indices(g)[2]


def loi_p(g: StandardizedFunction | SampledFunction, p: float) -> float:
    """Lp-distance from the non-decreasing cone: the p-norm of the derivative's negative part.

    Coincides with ``loi`` at p = 1.  The minimizing comparison function is the
    same for every p, so only the size of the gap changes with the exponent.
    """
    return _loi_p(_as_sampled(g), p)


def _falling_cells(f: SampledFunction):
    """(first cell, falling cells, their lengths, their slopes) of ``f``, block by block.

    Only the falling cells are divided.  Run to its end, it also checks that
    no difference quotient of ``f`` overflows: no cell is wider than the
    span, and none rises more steeply than the largest rise over the shortest
    cell.  Where either bound is not finite, ``derivative`` names the first
    cell whose quotient overflows.
    """
    xs = f.xs
    buf = np.empty(min(_backend.BLOCK, xs.shape[0] - 1))
    rise, shortest = 0.0, math.inf
    for start, increments in _increment_blocks(f):
        widths = buf[: increments.shape[0]]
        with np.errstate(over="ignore"):
            np.subtract(xs[start + 1 : start + 1 + widths.shape[0]], xs[start : start + widths.shape[0]], out=widths)
        rise = max(rise, float(increments.max()))
        shortest = min(shortest, float(widths.min()))
        falling = np.flatnonzero(increments < 0.0)
        lengths = widths[falling]
        slopes = increments[falling]
        with np.errstate(over="ignore", under="ignore"):
            np.divide(slopes, lengths, out=slopes)
        yield start, falling, lengths, slopes
    with np.errstate(over="ignore"):
        span = xs[-1] - xs[0]
    if not (math.isfinite(span) and math.isfinite(rise / shortest)):
        derivative(f)


def _loi_p(f: SampledFunction, p: float) -> float:
    """``loi_p`` of ``f``, from the lengths and slopes of its falling cells."""
    p = float(p)
    if not math.isfinite(p) or p < 1.0:
        raise InvalidParameterError(f"p must be a finite real >= 1, got {p}")
    if p == 1.0:
        return _increment_sum(f, _backend.NEG)
    total = 0.0
    falls = False
    for _, falling, lengths, slopes in _falling_cells(f):
        total += _backend.transform_reduce(slopes, _backend.NEG_POW, p, lengths)
        falls = falls or falling.shape[0] > 0
    # A term whose power or product underflows loses at most (length + 1)·2**-1075,
    # so a sum of at least (span + n)·2**-1022 is within u of one that lost nothing.
    floor = (float(f.xs[-1]) - float(f.xs[0]) + (f.xs.shape[0] - 1)) * sys.float_info.min
    if math.isinf(total) or (falls and total < floor):
        return _scaled_loi_p(f, p)
    return total ** (1.0 / p)


def _scaled_loi_p(f: SampledFunction, p: float) -> float:
    """``loi_p`` where its powered terms overflow or underflow.

    ``loi_p`` is the p-norm of the falling cells' ``length**(1/p) * slope``,
    so the largest of these is factored out (the scaled norm of hypot and
    dnrm2): the powered sum of the rest lies in [1, n].  Length and slope are
    joined before the power, so a wide cell's term cannot underflow away.
    """

    def terms():
        for _, _, lengths, slopes in _falling_cells(f):
            with np.errstate(over="ignore", under="ignore"):
                yield np.power(lengths, 1.0 / p) * slopes

    scale = max(-float(t.min()) for t in terms() if t.shape[0])
    if math.isinf(scale):
        derivative(f)  # raises where a quotient overflows, naming the first such cell
        raise InvalidInputError(f"loi_p for p={p!r} overflows float64")
    if scale == 0.0:
        i = next(start + int(falling[0]) for start, falling, _, _ in _falling_cells(f) if falling.shape[0])
        raise InvalidInputError(
            f"the difference quotient of cell {i} on [{float(f.xs[i])!r}, {float(f.xs[i + 1])!r}] "
            "underflows float64"
        )
    total = 0.0
    for t in terms():
        total += _backend.transform_reduce(t / scale, _backend.NEG_POW, p)
    index = scale * total ** (1.0 / p)
    if math.isinf(index):
        raise InvalidInputError(f"loi_p for p={p!r} overflows float64")
    return index


def report(f0: StandardizedFunction | SampledFunction, p: float | None = None) -> MonotonicityReport:
    """Assemble every index of ``f0`` into one report.

    Raw indices are always present; normalized fields are ``None`` for
    constant functions.  When ``p`` is given the Lp lack-of-increase index is
    attached as well.
    """
    f = _as_sampled(f0)
    neg, pos, tv = _split(f)
    norm = _normalize(neg, pos, tv) or (None, None, None)
    return MonotonicityReport(
        loi=neg,
        lod=pos,
        lom=2.0 * min(neg, pos),
        tv=tv,
        loi_norm=norm[0],
        lod_norm=norm[1],
        lom_norm=norm[2],
        interval=(float(f.xs[0]), float(f.xs[-1])),
        p=None if p is None else float(p),
        loi_p=None if p is None else _loi_p(f, p),
    )
