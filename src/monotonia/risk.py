"""Weighted premiums, loading diagnostics, and gain-loss style ratios.

The premium of a sample under a weight function w on [0, 1] is the
w-weighted average of the empirical quantile function.  Because the
empirical quantile is constant on the blocks ((i-1)/n, i/n], every integral
against it reduces to differences of the cumulative weight W(t) at block
edges; the catalog weights have closed-form W, and sampled weights use the
exact primitive of their piecewise-linear model, so premiums and covariances
carry no quadrature error.

Loading is the question of whether the premium is at least the mean.  It is
decided by the sign of cov[F^{-1}(U), w(U)], reported together with two
equivalent ratio forms of the same sign condition.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateWeightError,
    InvalidInputError,
    InvalidParameterError,
    NumericalInvariantError,
    UndefinedRatioError,
)
from . import _backend
from .functions import SampledFunction, _as_float_array, _as_sampled, _freeze

__all__ = [
    "EmpiricalDistribution",
    "WeightSpec",
    "LoadingReport",
    "WEIGHT_CATALOG",
    "quantile",
    "premium",
    "loading_covariance",
    "v_theta",
    "GainLossReport",
    "gain_loss",
    "gain_loss_report",
    "loading_report",
]

WEIGHT_CATALOG = ("indicator", "proportional_hazards", "size_biased", "esscher", "kamps")

# Taylor coefficients of chi(x) = sum_k (-x)**k / (k + 2)!, highest power first.
# Below x = 1/8 ten terms leave a truncation error under 1e-17 relative; above
# it the closed form of the kamps weight loses about 2 eps / x < 2e-15 to
# cancellation.
_KAMPS_CHI = np.array([1.0 / math.factorial(k + 2) for k in reversed(range(10))])
_KAMPS_SERIES_BELOW = 0.125


@dataclass(frozen=True, eq=False)
class EmpiricalDistribution:
    """A sample held as its order statistics.

    The quantile function is the left-continuous generalized inverse of the
    empirical distribution function: a step function taking the i-th order
    statistic on the block ((i-1)/n, i/n].
    """

    values: np.ndarray

    def __post_init__(self):
        values = _as_float_array(self.values, "values")
        if values.shape[0] < 1:
            raise InvalidInputError("need at least one observation")
        values.sort(kind="stable")
        object.__setattr__(self, "values", _freeze(values))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def mean(self) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            mean = float(np.mean(self.values))
        if not math.isfinite(mean):
            # A partial sum overflows: scaled by 2**-k with 2**k >= n, exactly, none can.
            k = (self.n - 1).bit_length()
            mean = math.ldexp(float(np.mean(np.ldexp(self.values, -k))), k)
        return mean

    def quantile(self, p: float) -> float:
        """The smallest sample value x with F(x) >= p, for p in (0, 1]."""
        if not (0.0 < p <= 1.0):
            raise InvalidParameterError(f"quantile level must be in (0, 1], got {p!r}")
        idx = math.ceil(self.n * p)
        idx = min(max(idx, 1), self.n)
        return float(self.values[idx - 1])


def quantile(ed: EmpiricalDistribution, p: float) -> float:
    return ed.quantile(p)


@dataclass(frozen=True, eq=False)
class WeightSpec:
    """A weight function w >= 0 on [0, 1], catalog-named or sampled.

    Catalog kinds with parameter:
      indicator(p), p in (0,1):        w(t) = 1{t > p} (average value at risk)
      proportional_hazards(v), v > 0:  w(t) = v (1-t)^(v-1)
      size_biased(lam), lam > 0:       w(t) = t^lam
      esscher(lam), lam > 0:           w(t) = exp(lam t)
      kamps(lam), lam > 0:             w(t) = 1 - exp(-lam t)
    A sampled weight is the piecewise-linear interpolant of non-negative
    samples on [0, 1].  All integration goes through the cumulative weight
    ``W(t)``, closed-form for the catalog and the exact piecewise-quadratic
    primitive for samples; no quadrature is involved either way.
    """

    kind: str
    param: float | None = None
    samples: SampledFunction | None = None

    def __post_init__(self):
        if self.kind == "sampled":
            if self.samples is None:
                raise InvalidParameterError("sampled weight requires a SampledFunction")
            fn = self.samples
            if abs(fn.lower) > 1e-9 or abs(fn.upper - 1.0) > 1e-9:
                raise InvalidInputError(
                    f"sampled weight must cover [0, 1], got [{fn.lower}, {fn.upper}]"
                )
            if np.any(fn.ys < 0.0):
                raise InvalidInputError("weight samples must be non-negative")
            if self.total_weight() <= 0.0:
                raise DegenerateWeightError("sampled weight integrates to zero")
            return
        if self.kind not in WEIGHT_CATALOG:
            raise InvalidParameterError(
                f"unknown weight kind {self.kind!r}; choose one of "
                f"{', '.join(WEIGHT_CATALOG)} or 'sampled'"
            )
        p = self.param
        if p is None or not math.isfinite(p):
            raise InvalidParameterError(f"weight {self.kind!r} requires a finite parameter")
        if self.kind == "indicator":
            if not (0.0 < p < 1.0):
                raise InvalidParameterError(f"indicator level must be in (0, 1), got {p!r}")
        elif p <= 0.0:
            raise InvalidParameterError(f"weight {self.kind!r} requires a positive parameter, got {p!r}")

    @classmethod
    def indicator(cls, p: float) -> "WeightSpec":
        return cls("indicator", float(p))

    @classmethod
    def proportional_hazards(cls, nu: float) -> "WeightSpec":
        return cls("proportional_hazards", float(nu))

    @classmethod
    def size_biased(cls, lam: float) -> "WeightSpec":
        return cls("size_biased", float(lam))

    @classmethod
    def esscher(cls, lam: float) -> "WeightSpec":
        return cls("esscher", float(lam))

    @classmethod
    def kamps(cls, lam: float) -> "WeightSpec":
        return cls("kamps", float(lam))

    @classmethod
    def sampled(cls, fn: SampledFunction) -> "WeightSpec":
        return cls("sampled", None, fn)

    def cumulative(self, t) -> np.ndarray:
        """W(t) = integral of w from 0 to t, vectorized over t in [0, 1]."""
        return self._finite_cumulative(t, "cumulative weight")

    def _finite_cumulative(self, t, what: str) -> np.ndarray:
        with np.errstate(over="ignore"):
            cum = self._cumulative(np.asarray(t, dtype=np.float64))
        if np.any(np.isinf(cum)):
            if self.kind == "sampled":
                raise InvalidInputError(f"the {what} of the weight samples overflows float64")
            raise InvalidParameterError(f"the {what} of {self.kind}({self.param!r}) overflows float64")
        return cum

    def _cumulative(self, t: np.ndarray) -> np.ndarray:
        p = self.param
        if self.kind == "indicator":
            return np.maximum(0.0, t - p)
        if self.kind == "proportional_hazards":
            return 1.0 - np.power(1.0 - t, p)
        if self.kind == "size_biased":
            return np.power(t, p + 1.0) / (p + 1.0)
        if self.kind == "esscher":
            return np.expm1(p * t) / p
        if self.kind == "kamps":
            # t + expm1(-x)/p with x = p t cancels as x -> 0 (to 0 at p = 1e-300), so
            # small x takes W = x t chi(x), chi(x) = (x + expm1(-x)) / x**2 by its series.
            x = p * t
            series = x * t * np.polyval(_KAMPS_CHI, -np.minimum(x, _KAMPS_SERIES_BELOW))
            return np.where(x < _KAMPS_SERIES_BELOW, series, t + np.expm1(-x) / p)
        return self._sampled_cumulative(t)

    def _sampled_cumulative(self, t: np.ndarray) -> np.ndarray:
        fn = self.samples
        xs, ys = fn.xs, fn.ys
        # Halved before they are added, so two large ordinates cannot overflow.
        cell_areas = (0.5 * ys[:-1] + 0.5 * ys[1:]) * np.diff(xs)
        cum = np.concatenate(([0.0], np.cumsum(cell_areas)))
        tt = np.clip(t, xs[0], xs[-1])
        idx = np.clip(np.searchsorted(xs, tt, side="right") - 1, 0, xs.shape[0] - 2)
        dx = tt - xs[idx]
        slope = (ys[idx + 1] - ys[idx]) / (xs[idx + 1] - xs[idx])
        return cum[idx] + ys[idx] * dx + 0.5 * slope * dx * dx

    def total_weight(self) -> float:
        """The normalizing constant, W(1)."""
        return float(self._finite_cumulative(1.0, "total weight"))

    def normalized_cumulative(self, t) -> np.ndarray:
        """W(t) / W(1), finite also where W(1) overflows (esscher at large parameters)."""
        if self.kind == "esscher":
            # (e^{lam t} - 1) / (e^lam - 1) with e^lam divided out of both.
            lam = self.param
            t = np.asarray(t, dtype=np.float64)
            return np.exp(lam * (t - 1.0)) * np.expm1(-lam * t) / np.expm1(-lam)
        if self.kind == "size_biased":
            # W(t) / W(1) is t^(lam+1): W(t) = t^(lam+1) / (lam+1) would round a sub-normal one to 0.
            return np.power(np.asarray(t, dtype=np.float64), self.param + 1.0)
        total = self.total_weight()
        if total <= 0.0:
            raise DegenerateWeightError("weight function integrates to zero")
        # W is non-decreasing, so no W(t) overflows where W(1) does not.
        return self._cumulative(np.asarray(t, dtype=np.float64)) / total


def _block_weights(ed: EmpiricalDistribution, w: WeightSpec) -> np.ndarray:
    """Share of the total weight on each quantile block ((i-1)/n, i/n]."""
    edges = np.arange(ed.n + 1, dtype=np.float64) / ed.n
    increments = np.diff(w.normalized_cumulative(edges))
    # W is non-decreasing; clip the roundoff-level negatives a monotone
    # primitive can still produce when differenced.
    return np.maximum(increments, 0.0)


def premium(ed: EmpiricalDistribution, w: WeightSpec) -> float:
    """The w-weighted premium of the sample, evaluated block-exactly through the cumulative weight."""
    return _premium(ed, _block_weights(ed, w))


def _premium(ed: EmpiricalDistribution, blocks: np.ndarray) -> float:
    return float(np.sum(ed.values * blocks))


def loading_covariance(ed: EmpiricalDistribution, w: WeightSpec) -> float:
    """cov of the quantile and weight functions against the uniform measure.

    Non-negative exactly when the premium carries non-negative loading.
    Block-exact like ``premium``.
    """
    return _covariance(ed, w, premium(ed, w))


def _covariance(ed: EmpiricalDistribution, w: WeightSpec, prem: float) -> float:
    """W(1) * (premium - mean), the covariance of the quantile with the unnormalized weight."""
    if ed.n == 1 or ed.values[0] == ed.values[-1]:
        return 0.0
    return (prem - ed.mean()) * w.total_weight()


def v_theta(ed: EmpiricalDistribution) -> tuple[SampledFunction, float]:
    """The tail-covariance function v and its integral theta.

    v(t) = cov of the quantile function with the indicator of (t, 1]; it
    vanishes at both endpoints and is non-negative in between.  The quantile
    is constant on each block ((i-1)/n, i/n], so v is linear between the knots
    i/n: it is returned exactly as its n + 1 knot values, and theta is the
    exact integral of that interpolant.
    """
    n = ed.n
    vals = np.zeros(n + 1)
    tol = 0.0
    scale = 1.0
    if ed.values[0] != ed.values[-1]:
        # v(i/n) = i (n - i) / n^2 * (mean of the top n - i - mean of the bottom i).
        # v is unchanged by a shift; centred at a middle order statistic, the
        # partial sums do not cancel.
        with np.errstate(over="ignore"):
            centred = ed.values - ed.values[n // 2]
        if max(-centred[0], centred[-1]) > sys.float_info.max / (n * n):
            # A partial sum, or the product by i (n - i), could leave float64:
            # centre the order statistics scaled by 2**-k, 2**k >= n**2, which
            # keeps the bits of every normal result, and scale v back.
            k = 2 * (n - 1).bit_length()
            scale = math.ldexp(1.0, k)
            centred = np.ldexp(ed.values, -k) - math.ldexp(ed.values[n // 2], -k)
        i = np.arange(1, n, dtype=np.float64)
        rest = i[::-1]  # n - i
        inner = np.cumsum(centred[:0:-1])[::-1] / rest
        inner -= np.cumsum(centred[:-1]) / i
        inner *= i * rest
        vals[1:-1] = inner / float(n) ** 2
        # Each mean is within (count + 1) u max|centred| of its exact value, so
        # v, at most a quarter of their difference, is within this of its own.
        tol = scale * ((n + 4) * 2.0**-53 * max(-centred[0], centred[-1]))
    theta = scale * (float(np.sum(vals)) / n)
    vals *= scale
    if np.min(vals) < -tol:
        raise NumericalInvariantError(
            f"tail covariance dipped below tolerance: min {np.min(vals)!r}"
        )
    if vals[0] != 0.0 or vals[-1] != 0.0:
        raise NumericalInvariantError("tail covariance must vanish at both endpoints")
    knots = np.arange(n + 1, dtype=np.float64) / n
    return SampledFunction(knots, vals), theta


def _half_product(*factors: np.ndarray) -> np.ndarray:
    """0.5 times the product of ``factors``, multiplied mantissa by mantissa.

    The exponents are added apart and applied once, at the end, so only the
    result can overflow or underflow, never a partial product (``0.5 * h``
    alone rounds a sub-normal width h to 0).  Where every partial product of
    ``0.5 * h * ...`` is normal, the bits are the same.
    """
    mantissa, exponent = np.frexp(factors[0])
    for factor in factors[1:]:
        m, e = np.frexp(factor)
        mantissa *= m
        exponent += e
    return np.ldexp(mantissa, exponent - 1)


def _value_split(g: SampledFunction) -> tuple[float, float]:
    """Exact integrals of the positive and negative parts of the values of g.

    They are the parts of the measure g·dx: a mass per cell, split in two at
    the interpolated root where the sign changes, so both are exact for the
    piecewise-linear model.  A cell whose width, or a + b or a − b, overflows
    is formed from halves and doubled back, and each mass by ``_half_product``,
    so only a mass below float64 rounds to 0.  Raises ``InvalidInputError``
    where a part overflows float64, or underflows it though g has an ordinate
    of its sign.
    """
    xs, a, b = g.xs, g.ys[:-1], g.ys[1:]
    with np.errstate(over="ignore"):
        h = np.diff(xs)
        wide = np.isinf(h)
        tall = np.isinf(np.abs(a) + np.abs(b))
    scale = 1.0
    if wide.any() or tall.any():
        h = np.where(wide, 0.5 * xs[1:] - 0.5 * xs[:-1], h)
        a = np.where(tall, 0.5 * a, a)
        b = np.where(tall, 0.5 * b, b)
        scale = np.where(wide, 2.0, 1.0) * np.where(tall, 2.0, 1.0)
    crossing = np.sign(a) * np.sign(b) < 0.0
    ac, bc, hc = a[crossing], b[crossing], h[crossing]
    # Only a mass that exceeds float64 overflows here; its part then raises in ``_parts``.
    with np.errstate(over="ignore"):
        masses = _half_product(h, a + b)
        # A crossing cell keeps its part of a's sign and appends that of b's,
        # split at fractions t and s = 1 - t of the cell, each a quotient:
        # 1.0 - t loses s to cancellation once t rounds to 1 (|b| < 1e-16 |a|).
        masses[crossing] = _half_product(hc, ac / (ac - bc), ac)
        second = _half_product(hc, bc / (bc - ac), bc)
        masses = np.concatenate((masses * scale, second * np.broadcast_to(scale, h.shape)[crossing]))
    return _parts(masses, np.max(g.ys) > 0.0, np.min(g.ys) < 0.0, "g")


def _parts(masses: np.ndarray, has_pos: bool, has_neg: bool, of: str) -> tuple[float, float]:
    """(positive, negative) part of the one-signed ``masses`` of ``of``, which raises where it leaves float64.

    A part underflows where it is 0.0 but ``has_pos`` or ``has_neg`` says it is not.
    """
    neg, pos, _ = _backend.sign_split_sums(masses)
    for part, total, nonzero in (("positive", pos, has_pos), ("negative", neg, has_neg)):
        if math.isinf(total):
            raise InvalidInputError(f"the integral of the {part} part of {of} overflows float64")
        if total == 0.0 and nonzero:
            raise InvalidInputError(f"the integral of the {part} part of {of} underflows float64")
    return pos, neg


def _ratios(pos: float, neg: float) -> tuple[float, float]:
    if pos == 0.0 and neg == 0.0:
        raise UndefinedRatioError("both the positive and negative parts integrate to zero")
    glr = math.inf if neg == 0.0 else pos / neg
    if math.isinf(glr) and neg > 0.0:
        raise InvalidInputError(f"the gain-loss ratio {pos!r} / {neg!r} overflows float64")
    total = pos + neg
    if math.isinf(total):
        # Where the sum overflows, halving the larger part is exact.
        return glr, (0.5 * pos) / (0.5 * pos + 0.5 * neg)
    return glr, pos / total


@dataclass(frozen=True)
class GainLossReport:
    """The gain-loss ratios of the values of a function, with the integral they restate.

    ``integral_nonneg`` says whether the integral of g is non-negative, which
    holds exactly when ``glr >= 1``.
    """

    glr: float
    omega_style: float
    integral: float
    integral_nonneg: bool


def gain_loss_report(g: SampledFunction) -> GainLossReport:
    """Gain-loss ratio, its [0, 1]-valued normalization and the integral of g.

    The first ratio is integral of the positive part over integral of the
    negative part (+inf when nothing is negative); the second divides by the
    integral of |g| instead.  Both are computed from an exact sign-split of
    the piecewise-linear model, so the three predicates "integral >= 0",
    "first ratio >= 1", and "second ratio >= 1/2" agree.  A part, or the first
    ratio, beyond the range of float64 raises ``InvalidInputError``.
    """
    pos, neg = _value_split(_as_sampled(g))
    integral = pos - neg
    return GainLossReport(*_ratios(pos, neg), integral=integral, integral_nonneg=integral >= 0.0)


def gain_loss(g: SampledFunction) -> tuple[float, float]:
    """(glr, omega_style) of ``gain_loss_report(g)``."""
    rep = gain_loss_report(g)
    return rep.glr, rep.omega_style


@dataclass(frozen=True)
class LoadingReport:
    """Premium versus net premium, with the sign diagnostics spelled out.

    ``loading_nonneg`` says whether the covariance clears ``-1e-9`` times the
    sample range.  The ratios restate the covariance sign: the gain part is
    the integral of the positive part of (quantile - mean) * weight and the
    loss part its negative counterpart.  They are None when that product
    vanishes identically (constant samples), where no ratio is defined.
    ``loading_report`` raises ``InvalidInputError`` where a part overflows
    float64, or underflows it though a block of positive weight lies on its
    side of the mean, or where the gain-loss ratio overflows.
    """

    premium: float
    net_premium: float
    covariance: float
    loading_nonneg: bool
    gain_loss_ratio: float | None
    omega_style_ratio: float | None


def loading_report(ed: EmpiricalDistribution, w: WeightSpec) -> LoadingReport:
    """Premium, covariance, and the equivalent ratio forms in one pass."""
    blocks = _block_weights(ed, w)
    prem = _premium(ed, blocks)
    net = ed.mean()
    cov = _covariance(ed, w, prem)
    # Formed from halves, the tolerance stays finite where the range exceeds float64.
    tol = 2e-9 * float(0.5 * ed.values[-1] - 0.5 * ed.values[0])
    # Only a mass that exceeds float64 overflows here; its part then raises in ``_parts``.
    with np.errstate(over="ignore"):
        centered = ed.values - net
        if np.isinf(centered[0]) or np.isinf(centered[-1]):
            # A range beyond float64: the masses are formed from halves and doubled back.
            masses = 2.0 * ((0.5 * ed.values - 0.5 * net) * blocks)
        else:
            masses = centered * blocks
    # The sorted values below the mean, and those above it, are the blocks of each sign.
    below, above = np.searchsorted(ed.values, net, "left"), np.searchsorted(ed.values, net, "right")
    gains, losses = _parts(masses, blocks[above:].any(), blocks[:below].any(), "(quantile - mean) * weight")
    if gains == 0.0 and losses == 0.0:
        glr, omega = None, None
    else:
        glr, omega = _ratios(gains, losses)
    return LoadingReport(
        premium=prem,
        net_premium=net,
        covariance=cov,
        loading_nonneg=cov >= -tol,
        gain_loss_ratio=glr,
        omega_style_ratio=omega,
    )
