"""Piecewise-linear model of sampled functions.

A sampled function is interpolated linearly between its grid points; its
derivative is then piecewise constant.  Every index in this package reduces to
integrating a transform of that derivative against cell lengths, which the
piecewise-constant model evaluates exactly (no quadrature error at the model
level).  Vertical jumps are not representable: duplicate abscissas are
rejected and callers must pre-process data with ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _backend
from .errors import InvalidInputError, InvalidParameterError

__all__ = [
    "SampledFunction",
    "StandardizedFunction",
    "DerivativeProfile",
    "DerivativeTransform",
    "standardize",
    "derivative",
    "integrate_transform",
    "total_variation",
]

def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidInputError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite values")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.float64)
    if out is arr and arr.flags.writeable:
        out = arr.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """A function known through samples ``ys`` on a strictly increasing grid ``xs``."""

    xs: np.ndarray
    ys: np.ndarray

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

    @classmethod
    def from_callable(cls, fn: Callable[[float], float], a: float, b: float, n: int) -> "SampledFunction":
        """Sample ``fn`` at ``n`` uniformly spaced points on [a, b] (endpoints included)."""
        if not (math.isfinite(a) and math.isfinite(b)) or a >= b:
            raise InvalidParameterError(f"need finite a < b, got [{a}, {b}]")
        if n < 2:
            raise InvalidParameterError("need at least 2 sample points")
        xs = np.linspace(a, b, n)
        ys = np.asarray([fn(float(x)) for x in xs], dtype=np.float64)
        return cls(xs, ys)

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


@dataclass(frozen=True, eq=False)
class StandardizedFunction:
    """A sampled function shifted to start at the origin: domain [0, span], first ordinate 0."""

    inner: SampledFunction

    def __post_init__(self):
        f = self.inner
        if f.xs[0] != 0.0 or f.ys[0] != 0.0:
            raise InvalidInputError("standardized function must satisfy xs[0] == 0 and ys[0] == 0")

    @property
    def span(self) -> float:
        """Length of the domain interval; equals the right endpoint after standardization."""
        return float(self.inner.xs[-1])

    @property
    def final_value(self) -> float:
        """Value at the right endpoint; its magnitude is the net rise of the function."""
        return float(self.inner.ys[-1])


@dataclass(frozen=True, eq=False)
class DerivativeProfile:
    """Piecewise-constant derivative: one (length, slope) pair per grid cell."""

    lengths: np.ndarray
    slopes: np.ndarray

    def __post_init__(self):
        lengths = _as_float_array(self.lengths, "lengths")
        slopes = _as_float_array(self.slopes, "slopes")
        if lengths.shape[0] != slopes.shape[0]:
            raise InvalidInputError("lengths and slopes must have equal length")
        if lengths.shape[0] == 0:
            raise InvalidInputError("profile needs at least one cell")
        if np.any(lengths <= 0.0):
            raise InvalidInputError("cell lengths must be positive")
        object.__setattr__(self, "lengths", _freeze(lengths))
        object.__setattr__(self, "slopes", _freeze(slopes))

    @property
    def span(self) -> float:
        with np.errstate(over="ignore"):
            span = float(np.sum(self.lengths))
        if math.isinf(span):
            raise InvalidInputError("the total length of the cells overflows float64")
        return span


@dataclass(frozen=True)
class DerivativeTransform:
    """Scalar map applied to slopes under the integral; non-negative with T(0) = 0.

    Built-ins cover the negative part, positive part, absolute value, and their
    p-th powers (p >= 1).  ``custom`` accepts any scalar callable satisfying the
    same contract; custom transforms always run on the Python path.
    """

    code: int
    p: float = 1.0
    fn: Callable[[float], float] | None = field(default=None, compare=False)

    _CUSTOM = -1

    @classmethod
    def neg_part(cls) -> "DerivativeTransform":
        return cls(_backend.NEG)

    @classmethod
    def pos_part(cls) -> "DerivativeTransform":
        return cls(_backend.POS)

    @classmethod
    def abs_value(cls) -> "DerivativeTransform":
        return cls(_backend.ABS)

    @classmethod
    def neg_part_power(cls, p: float) -> "DerivativeTransform":
        return cls(_backend.NEG_POW, p=cls._check_power(p))

    @classmethod
    def pos_part_power(cls, p: float) -> "DerivativeTransform":
        return cls(_backend.POS_POW, p=cls._check_power(p))

    @classmethod
    def abs_power(cls, p: float) -> "DerivativeTransform":
        return cls(_backend.ABS_POW, p=cls._check_power(p))

    @classmethod
    def custom(cls, fn: Callable[[float], float]) -> "DerivativeTransform":
        value_at_zero = fn(0.0)
        if not (isinstance(value_at_zero, (int, float)) and value_at_zero == 0):
            raise InvalidParameterError("custom transform must map 0 to 0")
        return cls(cls._CUSTOM, fn=fn)

    @staticmethod
    def _check_power(p) -> float:
        p = float(p)
        if not math.isfinite(p) or p < 1.0:
            raise InvalidParameterError(f"power must be a finite real >= 1, got {p}")
        return p

    def __call__(self, x: float) -> float:
        if self.code == _backend.NEG:
            return -x if x < 0.0 else 0.0
        if self.code == _backend.POS:
            return x if x > 0.0 else 0.0
        if self.code == _backend.ABS:
            return abs(x)
        if self.code == _backend.NEG_POW:
            return (-x) ** self.p if x < 0.0 else 0.0
        if self.code == _backend.POS_POW:
            return x ** self.p if x > 0.0 else 0.0
        if self.code == _backend.ABS_POW:
            return abs(x) ** self.p if x != 0.0 else 0.0
        assert self.fn is not None
        return self.fn(x)


def standardize(f0: SampledFunction) -> StandardizedFunction:
    """Shift a sampled function so it starts at the origin.

    The grid is translated to start at 0 and the ordinates are lifted so the
    first one is 0; cells map one-to-one, so slopes are preserved up to
    rounding.  Standardizing an already standardized function is an exact
    no-op.
    """
    if not isinstance(f0, SampledFunction):
        raise InvalidInputError(f"expected a SampledFunction, got {type(f0).__name__}")
    xs = f0.xs - f0.xs[0]
    ys = f0.ys - f0.ys[0]
    return StandardizedFunction(SampledFunction(xs, ys))


def _as_sampled(g) -> SampledFunction:
    if isinstance(g, StandardizedFunction):
        return g.inner
    if isinstance(g, SampledFunction):
        return g
    raise InvalidInputError(f"expected a SampledFunction or StandardizedFunction, got {type(g).__name__}")


def derivative(g: StandardizedFunction | SampledFunction) -> DerivativeProfile:
    """Cell-wise difference quotients of the samples (the standardizing shift leaves them unchanged)."""
    f = _as_sampled(g)
    with np.errstate(all="ignore"):
        lengths = np.diff(f.xs)
        slopes = np.diff(f.ys)
        np.divide(slopes, lengths, out=slopes)
    # Nothing else holds these fresh arrays, so the profile may keep them as they are.
    lengths.flags.writeable = False
    slopes.flags.writeable = False
    try:
        return DerivativeProfile(lengths, slopes)
    except InvalidInputError:
        # Cells of valid samples have positive length: only an overflow leaves one non-finite.
        i = int(np.argmin(np.isfinite(lengths) & np.isfinite(slopes)))
        raise InvalidInputError(
            f"the difference quotient of cell {i} on [{float(f.xs[i])!r}, {float(f.xs[i + 1])!r}] "
            "overflows float64"
        ) from None


_LINEAR_SUMS = {
    _backend.NEG: "the integral of the negative part",
    _backend.POS: "the integral of the positive part",
    _backend.ABS: "the total variation",
}


def integrate_transform(profile: DerivativeProfile, transform: DerivativeTransform) -> float:
    """Integrate ``transform(slope)`` against cell lengths.

    Exact for the piecewise-linear model: the result is the sum of
    ``length * transform(slope)`` over cells.  Built-in transforms sum in
    NumPy blocks, within (n + 1)·u·Σ|terms| (u = 2**-53) of the exact sum of
    the n rounded terms, plus pow's error for powers; exactly where every
    term and partial sum is exact.  A built-in sum that overflows float64
    raises InvalidInputError.  Custom transforms are summed left to right.
    """
    code, p = transform.code, transform.p
    if code == DerivativeTransform._CUSTOM:
        acc = 0.0
        fn = transform.fn
        assert fn is not None
        for i in range(profile.slopes.shape[0]):
            value = fn(float(profile.slopes[i]))
            if not (isinstance(value, (int, float)) and math.isfinite(value)) or value < 0.0:
                raise InvalidParameterError(
                    f"custom transform returned {value!r} at slope {profile.slopes[i]!r}; "
                    "transforms must return finite non-negative reals"
                )
            acc += float(profile.lengths[i]) * float(value)
        return acc
    total = float(_backend.transform_reduce(profile.lengths, profile.slopes, code, p))
    if math.isinf(total):
        what = _LINEAR_SUMS.get(code, f"the powered sum for p={p!r}")
        raise InvalidInputError(f"{what} overflows float64")
    return total


def total_variation(g: StandardizedFunction | SampledFunction) -> float:
    """Total rise plus total fall: the integral of the absolute derivative."""
    return integrate_transform(derivative(g), DerivativeTransform.abs_value())
