"""Piecewise-linear model of sampled functions.

A sampled function is interpolated linearly between its grid points; its
derivative is then piecewise constant, and the derivative measure puts mass
f(b) − f(a) on a cell [a, b].  Every index in this package integrates a
part of that derivative (negative, positive or both), or a power of a part,
against cell lengths, which the piecewise-constant model evaluates exactly
(no quadrature error at the model level).  A linear index is therefore a
sum of the parts of the increments Δy: each term is rounded once, where Δy
is formed, and needs no lengths and no slopes.  Only ``loi_p`` and the
survival curves use cell widths; ``measures.derivative`` gives df itself
as a grid measure, with the increments as its masses.

A ``SampledFunction`` is frozen, like every array that an object of the
package holds: construction copies the caller's samples once, and
``_freeze`` wraps the copies, with no second copy, in arrays that NumPy
refuses to make writeable again.  Their owners are private, so the samples
do not change, and a function's answers are kept on it as scalars, each
computed on the first call that needs it: its sign split (the NEG and POS
sums of its increments and their total), which ``loi``, ``lod``, ``lom``,
``total_variation``, the normalised indices, ``report`` and the index
comparisons all read, ``loi_p`` at each exponent p ≠ 1, and whether every
difference quotient is finite, which ``derivative`` checks once.  The
derivative measure dg is a view of g that forms its arrays on first read,
and g and dg share one split, whichever of them is asked for it first.  The
survival curves still do their work on every call.  Vertical jumps are not
representable: duplicate abscissas are rejected and callers must
pre-process data with ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _backend
from .errors import InvalidInputError, InvalidParameterError

__all__ = [
    "SampledFunction",
    "total_variation",
]


def _as_float_array(values, name: str) -> np.ndarray:
    """A private float64 copy of the caller's ``values``, validated: the one copy of the input."""
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidInputError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite values")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    """``arr``'s memory as an array that no one can make writeable again.

    ``arr`` must be contiguous, and either frozen already or made by the
    package and held by nothing else: a caller's values are copied first, by
    ``_as_float_array``.  ``arr`` is marked read-only and wrapped, not
    copied, in an array over a read-only ``memoryview`` of it, whose
    writeable flag NumPy refuses to set, as it does for every view of it.
    ``arr`` stays the owner, as ``out.base.obj``, and is private: its own
    flag can be set again.
    """
    arr.flags.writeable = False
    return np.frombuffer(memoryview(arr), arr.dtype)


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """A function known through samples ``ys`` on a strictly increasing grid ``xs``."""

    xs: np.ndarray
    ys: np.ndarray

    # The sign split of the increments, (neg, pos, tv), set on first use by
    # ``_increment_split``; ``loi_p`` by exponent, a dict set on first use by
    # ``indices._loi_p``; and the first cell whose difference quotient
    # overflows, or -1 where none does, set by ``measures.derivative``.  Not
    # fields: ``dataclasses.replace`` and ``restrict`` make a new function,
    # which computes its own.
    _split = None
    _loi_p = None
    _overflow_cell = None

    def __post_init__(self):
        xs = _as_float_array(self.xs, "xs")
        ys = _as_float_array(self.ys, "ys")
        if xs.shape[0] != ys.shape[0]:
            raise InvalidInputError(
                f"xs and ys must have equal length, got {xs.shape[0]} and {ys.shape[0]}"
            )
        if xs.shape[0] < 2:
            raise InvalidInputError("need at least 2 samples to define a function")
        # Compared, not differenced: a difference of finite samples can overflow.
        unordered = xs[1:] <= xs[:-1]
        if np.any(unordered):
            i = int(np.argmax(unordered))
            if xs[i + 1] == xs[i]:
                raise InvalidInputError(f"duplicate abscissa x={float(xs[i])!r} at positions {i} and {i + 1}")
            raise InvalidInputError("xs must be strictly increasing")
        object.__setattr__(self, "xs", _freeze(xs))
        object.__setattr__(self, "ys", _freeze(ys))

    def __reduce__(self):
        # A copy or an unpickled function is built again, so that its arrays
        # are frozen and it keeps no answer that they did not give.
        return type(self), (self.xs, self.ys)

    @classmethod
    def from_callable(cls, fn: Callable[[float], float], a: float, b: float, n: int) -> "SampledFunction":
        """Sample ``fn`` at ``n`` uniformly spaced points on [a, b] (endpoints included)."""
        if not (math.isfinite(a) and math.isfinite(b)) or a >= b:
            raise InvalidParameterError(f"need finite a < b, got [{a}, {b}]")
        if n < 2:
            raise InvalidParameterError("need at least 2 sample points")
        xs = np.linspace(a, b, n)
        return cls(xs, [fn(float(x)) for x in xs])

    @property
    def lower(self) -> float:
        return float(self.xs[0])

    @property
    def upper(self) -> float:
        return float(self.xs[-1])

    @property
    def span(self) -> float:
        lower, upper = self.lower, self.upper
        span = upper - lower
        if math.isinf(span):
            raise InvalidInputError(f"the span of [{lower!r}, {upper!r}] overflows float64")
        return span

    def value_at(self, x: float) -> float:
        """Linear interpolation; ``x`` must lie within the sampled interval."""
        if not (self.xs[0] <= x <= self.xs[-1]):
            raise InvalidParameterError(f"x={x!r} outside sampled interval [{self.lower}, {self.upper}]")
        return float(np.interp(x, self.xs, self.ys))

    def restrict(self, a: float, b: float) -> "SampledFunction":
        """Truncate to [a, b], interpolating the endpoint ordinates linearly."""
        if not (math.isfinite(a) and math.isfinite(b)) or a >= b:
            raise InvalidParameterError(f"need finite a < b, got [{a}, {b}]")
        if a < self.xs[0] or b > self.xs[-1]:
            raise InvalidParameterError(
                f"[{a}, {b}] is not contained in the sampled interval [{self.lower}, {self.upper}]"
            )
        inside = (self.xs > a) & (self.xs < b)
        xs = np.concatenate(([a], self.xs[inside], [b]))
        ys = np.concatenate(([self.value_at(a)], self.ys[inside], [self.value_at(b)]))
        return SampledFunction(xs, ys)


def _as_sampled(g) -> SampledFunction:
    if isinstance(g, SampledFunction):
        return g
    raise InvalidInputError(f"expected a SampledFunction, got {type(g).__name__}")


def _cell(f: SampledFunction, i: int) -> str:
    """Cell ``i`` of ``f`` with its x-range, as the errors about it name it."""
    return f"cell {i} on [{float(f.xs[i])!r}, {float(f.xs[i + 1])!r}]"


def _increments(g: SampledFunction) -> np.ndarray:
    """The increments f(b) − f(a) of ``g``: the masses of dg, whose parts the linear indices sum."""
    with np.errstate(over="ignore"):
        return np.diff(_as_sampled(g).ys)


def _signed_cells(f: SampledFunction, code: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cells, their widths, their increments) of one sign of ``f``.

    ``code`` is ``_backend.NEG`` for the falling cells (Δy < 0) or
    ``_backend.POS`` for the rising ones (Δy > 0).  Only these cells carry
    the negative or positive part of df, so the scaled ``loi_p`` and the
    survival curves take their widths and increments from here.  The widths
    and increments are fresh arrays, which the caller may overwrite.
    """
    increments = _increments(f)
    cells = np.flatnonzero(increments < 0.0 if code == _backend.NEG else increments > 0.0)
    with np.errstate(over="ignore"):
        widths = f.xs[cells + 1] - f.xs[cells]
    return cells, widths, increments[cells]


_LINEAR_SUMS = {
    _backend.NEG: "the integral of the negative part",
    _backend.POS: "the integral of the positive part",
}


def _checked_sum(total: float, what: str) -> float:
    """A linear sum, or InvalidInputError naming it (``what``) where it overflows float64."""
    if math.isinf(total):
        raise InvalidInputError(f"{what} overflows float64")
    return total


def _increment_sum(g: SampledFunction, code: int) -> float:
    """The NEG or POS reduction of the increments of ``g``: entry ``code`` of its split."""
    return _checked_sum(_increment_split(g)[code], _LINEAR_SUMS[code])


def _increment_split(g: SampledFunction) -> tuple[float, float, float]:
    """``sign_split_sums`` of the increments of ``g``, reduced on first use and kept on ``g``.

    The raw sums are kept, so each caller checks them for overflow on every
    call.  Two threads that race here compute the same bits.
    """
    f = _as_sampled(g)
    if f._split is None:
        object.__setattr__(f, "_split", _backend.sign_split_sums(_increments(f)))
    return f._split


def total_variation(g: SampledFunction) -> float:
    """Total rise plus total fall: the integral of the absolute derivative, Σ|Δy|."""
    return _checked_sum(_increment_split(g)[2], "the total variation")
