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
    _as_sampled,
    _cell,
    _increment_split,
    _increment_sum,
    _signed_cells,
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
    variation).  ``interval`` records the sampling interval; the indices do
    not change when the function is shifted along either axis.
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


def loi(g: SampledFunction) -> float:
    """Distance from the set of non-decreasing functions (L1, via the derivative): Σ(Δy)⁻."""
    return _increment_sum(g, _backend.NEG)


def lod(g: SampledFunction) -> float:
    """Distance from the set of non-increasing functions: Σ(Δy)⁺."""
    return _increment_sum(g, _backend.POS)


def lom(g: SampledFunction) -> float:
    """Twice the smaller of loi and lod; 0 exactly when the function is monotone."""
    return _indices(_increment_split(g))[2]


def _indices(split: tuple[float, float, float]) -> tuple:
    """The raw and normalized indices of a sign split (neg, pos, tv), in report order.

    They are (neg, pos, twice their minimum, tv) and the first three over tv,
    which are None where tv is zero.  A total variation that overflows raises,
    so that no index nor ratio of them is inf or NaN.
    """
    neg, pos, tv = split
    if math.isinf(tv):
        raise InvalidInputError("the total variation overflows float64")
    if tv == 0.0:
        return neg, pos, 2.0 * min(neg, pos), tv, None, None, None
    up, down = neg / tv, pos / tv
    return neg, pos, 2.0 * min(neg, pos), tv, up, down, 2.0 * min(up, down)


def normalized_indices(g: SampledFunction) -> tuple[float, float, float]:
    """(loi_norm, lod_norm, lom_norm); raises UndefinedIndexError for constant functions."""
    indices = _indices(_increment_split(g))
    if indices[3] == 0.0:
        raise UndefinedIndexError("normalized indices are undefined for constant functions (zero total variation)")
    return indices[4:]


def loi_norm(g: SampledFunction) -> float:
    return normalized_indices(g)[0]


def lod_norm(g: SampledFunction) -> float:
    return normalized_indices(g)[1]


def lom_norm(g: SampledFunction) -> float:
    return normalized_indices(g)[2]


def loi_p(g: SampledFunction, p: float) -> float:
    """Lp-distance from the non-decreasing cone: the p-norm of the derivative's negative part.

    Coincides with ``loi`` at p = 1.  The minimizing comparison function is the
    same for every p, so only the size of the gap changes with the exponent.
    """
    return _loi_p(_as_sampled(g), p)


def _loi_p(f: SampledFunction, p: float) -> float:
    """``loi_p`` of ``f``: at p = 1 its split's NEG sum, else computed on first use and kept on ``f`` by p.

    Only a finite index is kept, so one that raises raises on every call.
    Two threads that race here compute the same bits.
    """
    p = float(p)
    if not math.isfinite(p) or p < 1.0:
        raise InvalidParameterError(f"p must be a finite real >= 1, got {p}")
    if p == 1.0:
        return _increment_sum(f, _backend.NEG)
    kept = f._loi_p
    if kept is None:
        kept = {}
        object.__setattr__(f, "_loi_p", kept)
    if p not in kept:
        kept[p] = _powered_loi_p(f, p)
    return kept[p]


def _powered_loi_p(f: SampledFunction, p: float) -> float:
    """``loi_p`` of ``f`` at p > 1, from the difference quotients and widths of its cells."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        widths = np.diff(f.xs)
        quotients = np.diff(f.ys)
        np.divide(quotients, widths, out=quotients)
    # The kernel drops the quotients of rising cells, inf and NaN included,
    # which are not negative.  A quotient or width that overflows makes this
    # sum inf or the floor below inf, and so takes the scaled path, which
    # forms no quotient.
    total = _backend.transform_reduce(quotients, _backend.NEG_POW, p, widths)
    # A term whose power or product underflows loses at most (length + 1)·2**-1075,
    # so a sum of at least (span + n)·2**-1022 is within u of one that lost nothing.
    floor = (float(f.xs[-1]) - float(f.xs[0]) + (f.xs.shape[0] - 1)) * sys.float_info.min
    if math.isinf(total) or (total < floor and np.any(f.ys[1:] < f.ys[:-1])):
        return _scaled_loi_p(f, p)
    return total ** (1.0 / p)


def _scaled_loi_p(f: SampledFunction, p: float) -> float:
    """``loi_p`` where its powered terms overflow or underflow.

    ``loi_p`` is the p-norm of the falling cells' ``Δy / width**(1 − 1/p)``,
    so the largest of these is factored out (the scaled norm of hypot and
    dnrm2): the powered sum of the rest lies in [1, n].  No difference
    quotient is formed, so a sub-normal width cannot overflow a term of a
    finite index.
    """
    falling, widths, increments = _signed_cells(f, _backend.NEG)
    for what, values in (("width", widths), ("increment", increments)):
        if np.isinf(values).any():
            i = int(falling[np.argmax(np.isinf(values))])
            raise InvalidInputError(f"the {what} of {_cell(f, i)} overflows float64")
    with np.errstate(over="ignore", under="ignore"):
        terms = increments / np.power(widths, 1.0 - 1.0 / p)
    scale = -float(terms.min())
    if math.isinf(scale):
        raise InvalidInputError(f"loi_p for p={p!r} overflows float64")
    if scale == 0.0:
        raise InvalidInputError(f"loi_p for p={p!r} underflows float64")
    index = scale * _backend.transform_reduce(terms / scale, _backend.NEG_POW, p) ** (1.0 / p)
    if math.isinf(index):
        raise InvalidInputError(f"loi_p for p={p!r} overflows float64")
    return index


def report(f0: SampledFunction, p: float | None = None) -> MonotonicityReport:
    """Assemble every index of ``f0`` into one report.

    Raw indices are always present; normalized fields are ``None`` for
    constant functions.  When ``p`` is given the Lp lack-of-increase index is
    attached as well.
    """
    f = _as_sampled(f0)
    return MonotonicityReport(
        *_indices(_increment_split(f)),
        interval=(float(f.xs[0]), float(f.xs[-1])),
        p=None if p is None else float(p),
        loi_p=None if p is None else _loi_p(f, p),
    )
