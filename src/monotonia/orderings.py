"""Monotonicity orderings between functions.

Two tiers: index comparisons (more non-decreasing, more non-increasing, more
monotone) driven by the normalized indices, and strict comparisons driven by
pointwise dominance of normalized level-set survival curves of the derivative.
Strict dominance implies the index comparison of the same direction.

Both tiers require non-constant functions; comparing raw indices across
different total variations is deliberately not exposed (it is not meaningful),
which is why verdicts carry a note whenever the total variations differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, UndefinedComparisonError
from .functions import SampledFunction, StandardizedFunction, derivative
from .indices import _normalize, _split

__all__ = [
    "SurvivalCurve",
    "OrderingVerdict",
    "survival_minus",
    "survival_plus",
    "compare",
    "compare_strict",
    "INDEX_RELATIONS",
    "STRICT_RELATIONS",
]

INDEX_RELATIONS = ("I", "D", "M")
STRICT_RELATIONS = ("SI", "SD")


@dataclass(frozen=True, eq=False)
class SurvivalCurve:
    """Right-continuous step function z -> measure of cells whose slope part exceeds z.

    ``breaks`` holds the distinct positive part values in increasing order and
    ``tail_lengths[k]`` the total cell length with part >= breaks[k]; the curve
    equals ``tail_lengths[k]`` on [breaks[k-1], breaks[k]) and 0 beyond the
    last break.  ``sign`` records which derivative part ("neg" or "pos") was
    thresholded and ``tv`` the total variation of the source function.
    """

    breaks: np.ndarray
    tail_lengths: np.ndarray
    sign: str
    tv: float

    def value(self, z):
        """Evaluate the curve at z >= 0 (scalar or array)."""
        z_arr = np.asarray(z, dtype=np.float64)
        if np.any(z_arr < 0.0):
            raise InvalidParameterError("survival curves are defined for thresholds z >= 0")
        if self.breaks.shape[0] == 0:
            out = np.zeros_like(z_arr)
        else:
            idx = np.searchsorted(self.breaks, z_arr, side="right")
            padded = np.concatenate((self.tail_lengths, [0.0]))
            out = padded[idx]
        return float(out) if np.isscalar(z) or z_arr.ndim == 0 else out

    def integral(self) -> float:
        """Area under the curve; by the layer-cake identity this is the raw index."""
        if self.breaks.shape[0] == 0:
            return 0.0
        widths = np.diff(np.concatenate(([0.0], self.breaks)))
        return float(np.sum(self.tail_lengths * widths))


@dataclass(frozen=True)
class OrderingVerdict:
    """Outcome of one comparison: which relation, whether it holds, and context.

    ``witness`` is a threshold where strict dominance fails (present exactly
    when a strict comparison answers "no").  ``note`` carries advisories, e.g.
    that the operands' total variations differ so only normalized indices are
    comparable.
    """

    relation: str
    holds: str
    witness: float | None = None
    note: str | None = None


def _curve(g: StandardizedFunction | SampledFunction, sign: str) -> SurvivalCurve:
    profile = derivative(g)
    if sign == "neg":
        parts = np.where(profile.slopes < 0.0, -profile.slopes, 0.0)
    else:
        parts = np.where(profile.slopes > 0.0, profile.slopes, 0.0)
    _, _, tv = _split(profile)
    order = np.argsort(parts, kind="stable")
    sorted_parts = parts[order]
    suffix = np.cumsum(profile.lengths[order][::-1])[::-1]
    # The first cell of each run of equal positive parts gives its break and tail.
    new_run = np.concatenate(([True], sorted_parts[1:] != sorted_parts[:-1]))
    starts = np.flatnonzero(new_run & (sorted_parts > 0.0))
    return SurvivalCurve(breaks=sorted_parts[starts], tail_lengths=suffix[starts], sign=sign, tv=tv)


def survival_minus(g: StandardizedFunction | SampledFunction) -> SurvivalCurve:
    """Survival curve of the derivative's negative part (time spent falling faster than z)."""
    return _curve(g, "neg")


def survival_plus(g: StandardizedFunction | SampledFunction) -> SurvivalCurve:
    """Survival curve of the derivative's positive part."""
    return _curve(g, "pos")


def _normalized(g) -> tuple[float, float, float, float]:
    neg, pos, tv = _split(derivative(g))
    norm = _normalize(neg, pos, tv)
    if norm is None:
        raise UndefinedComparisonError("cannot compare constant functions (zero total variation)")
    return (*norm, tv)


def _tv_note(tv_g: float, tv_h: float) -> str | None:
    if tv_g != tv_h:
        return (
            f"total variations differ ({tv_g!r} vs {tv_h!r}); "
            "normalized indices are compared, raw indices would not be comparable"
        )
    return None


def compare(g, h, relation: str) -> OrderingVerdict:
    """Index comparison: is ``g`` at least as monotone as ``h`` in the given sense?

    Relations: "I" (more non-decreasing), "D" (more non-increasing), "M" (more
    monotone).  All three compare normalized indices with non-strict
    inequality, so ties answer "yes" and every function compares to itself.
    """
    if relation not in INDEX_RELATIONS:
        raise InvalidParameterError(f"relation must be one of {INDEX_RELATIONS}, got {relation!r}")
    lack_inc_g, lack_dec_g, lack_mono_g, tv_g = _normalized(g)
    lack_inc_h, lack_dec_h, lack_mono_h, tv_h = _normalized(h)
    left, right = {
        "I": (lack_inc_g, lack_inc_h),
        "D": (lack_dec_g, lack_dec_h),
        "M": (lack_mono_g, lack_mono_h),
    }[relation]
    return OrderingVerdict(
        relation=relation,
        holds="yes" if left <= right else "no",
        note=_tv_note(tv_g, tv_h),
    )


def compare_strict(g, h, relation: str) -> OrderingVerdict:
    """Strict comparison via normalized survival-curve dominance.

    "SI" checks the negative-part curves, "SD" the positive-part curves; the
    dominance must hold at every threshold.  Because both normalized curves
    are right-continuous step functions, checking at zero and at every
    breakpoint of either curve is exhaustive.  On failure the verdict carries
    the first offending threshold as a witness.
    """
    if relation not in STRICT_RELATIONS:
        raise InvalidParameterError(f"relation must be one of {STRICT_RELATIONS}, got {relation!r}")
    sign = "neg" if relation == "SI" else "pos"
    curve_g = _curve(g, sign)
    curve_h = _curve(h, sign)
    if curve_g.tv == 0.0 or curve_h.tv == 0.0:
        raise UndefinedComparisonError("cannot compare constant functions (zero total variation)")
    grid = np.unique(np.concatenate(([0.0], curve_g.breaks, curve_h.breaks)))
    left = curve_g.value(grid) / curve_g.tv
    right = curve_h.value(grid) / curve_h.tv
    violated = left > right
    note = _tv_note(curve_g.tv, curve_h.tv)
    if np.any(violated):
        witness = float(grid[int(np.argmax(violated))])
        return OrderingVerdict(relation=relation, holds="no", witness=witness, note=note)
    return OrderingVerdict(relation=relation, holds="yes", note=note)
