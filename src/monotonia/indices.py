"""Indices quantifying how far a function is from being monotone.

``loi`` measures the distance from the non-decreasing cone (the integral of
the negative part of the derivative), ``lod`` the distance from the
non-increasing cone, and ``lom`` twice the smaller of the two.  Normalized
variants divide by the total variation and live in [0, 1]; they are undefined
for constant functions and raising is preferred over silently emitting NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _backend
from .errors import InvalidInputError, InvalidParameterError, UndefinedIndexError
from .functions import (
    DerivativeProfile,
    DerivativeTransform,
    SampledFunction,
    StandardizedFunction,
    _as_sampled,
    derivative,
    integrate_transform,
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
    """Distance from the set of non-decreasing functions (L1, via the derivative)."""
    return integrate_transform(derivative(g), DerivativeTransform.neg_part())


def lod(g: StandardizedFunction | SampledFunction) -> float:
    """Distance from the set of non-increasing functions."""
    return integrate_transform(derivative(g), DerivativeTransform.pos_part())


def lom(g: StandardizedFunction | SampledFunction) -> float:
    """Twice the smaller of loi and lod; 0 exactly when the function is monotone."""
    neg, pos, _ = _split(derivative(g))
    return 2.0 * min(neg, pos)


def _split(profile: DerivativeProfile) -> tuple[float, float, float]:
    return _finite_split(_backend.sign_split_sums(profile.lengths, profile.slopes))


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
    norm = _normalize(*_split(derivative(g)))
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
    return _loi_p(derivative(g), p)


def _loi_p(profile: DerivativeProfile, p: float) -> float:
    p = float(p)
    if not math.isfinite(p) or p < 1.0:
        raise InvalidParameterError(f"p must be a finite real >= 1, got {p}")
    total = integrate_transform(profile, DerivativeTransform.neg_part_power(p))
    return total ** (1.0 / p)


def report(f0: StandardizedFunction | SampledFunction, p: float | None = None) -> MonotonicityReport:
    """Assemble every index of ``f0`` into one report.

    Raw indices are always present; normalized fields are ``None`` for
    constant functions.  When ``p`` is given the Lp lack-of-increase index is
    attached as well.
    """
    f = _as_sampled(f0)
    profile = derivative(f)
    neg, pos, tv = _split(profile)
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
        loi_p=None if p is None else _loi_p(profile, p),
    )
