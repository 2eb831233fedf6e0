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

import math
from dataclasses import dataclass

import numpy as np

from . import _backend
from .errors import InvalidInputError, InvalidParameterError, UndefinedComparisonError
from .functions import SampledFunction, _as_sampled, _cell, _freeze, _signed_cells, total_variation
from .indices import MonotonicityReport, report

__all__ = [
    "SurvivalCurve",
    "OrderingVerdict",
    "survival_minus",
    "survival_plus",
    "compare",
    "compare_strict",
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
        # Written so that NaN, which compares false, is rejected too.
        if not np.all(z_arr >= 0.0):
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


def _curve(g: SampledFunction, sign: str) -> SurvivalCurve:
    """The survival curve of one part of g', from the cells of that sign alone.

    The other cells have part 0, which makes no break and adds to no tail.
    """
    f = _as_sampled(g)
    cells, lengths, parts = _signed_cells(f, _backend.NEG if sign == "neg" else _backend.POS)
    with np.errstate(all="ignore"):
        np.divide(np.abs(parts, out=parts), lengths, out=parts)
    finite = np.isfinite(lengths) & np.isfinite(parts)
    if not finite.all():
        i = int(cells[np.argmin(finite)])
        raise InvalidInputError(f"the difference quotient of {_cell(f, i)} overflows float64")
    tv = total_variation(f)
    # Tied parts add their lengths to the tails in the order of their cells, as a stable
    # sort leaves them; without a tie every sort gives the one permutation.
    order = np.argsort(parts)
    sorted_parts = parts[order]
    new_run = np.concatenate(([True], sorted_parts[1:] != sorted_parts[:-1]))
    if not new_run.all():
        # Keyed by its run of equal parts, then by its own index, each cell sorts into the
        # stable order: the key is below n^2, and modulo n it gives back the index.
        n = order.shape[0]
        key = np.cumsum(new_run)
        key -= 1
        key *= n
        key += order
        key.sort()
        order = np.remainder(key, n, out=key)
    with np.errstate(over="ignore"):
        suffix = np.cumsum(lengths[order][::-1])[::-1]
    # The first cell of each run of equal positive parts gives its break and tail.
    starts = np.flatnonzero(new_run & (sorted_parts > 0.0))
    tails = suffix[starts]
    # The tails fall, so the first is the largest: the length of every cell of positive part.
    if tails.shape[0] and math.isinf(tails[0]):
        kind = "falling" if sign == "neg" else "rising"
        raise InvalidInputError(f"the total length of the {kind} cells overflows float64")
    return SurvivalCurve(breaks=_freeze(sorted_parts[starts]), tail_lengths=_freeze(tails), sign=sign, tv=tv)


def survival_minus(g: SampledFunction) -> SurvivalCurve:
    """Survival curve of the derivative's negative part (time spent falling faster than z)."""
    return _curve(g, "neg")


def survival_plus(g: SampledFunction) -> SurvivalCurve:
    """Survival curve of the derivative's positive part."""
    return _curve(g, "pos")


def _normalized(g) -> MonotonicityReport:
    rep = report(g)
    if rep.tv == 0.0:
        raise UndefinedComparisonError("cannot compare constant functions (zero total variation)")
    return rep


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
    rep_g, rep_h = _normalized(g), _normalized(h)
    field = {"I": "loi_norm", "D": "lod_norm", "M": "lom_norm"}[relation]
    return OrderingVerdict(
        relation=relation,
        holds="yes" if getattr(rep_g, field) <= getattr(rep_h, field) else "no",
        note=_tv_note(rep_g.tv, rep_h.tv),
    )


def _quotient(curve: SurvivalCurve, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(exponent, mantissa in [0.5, 1)) of the curve over its tv at ``grid``, ordered as the quotients are.

    The mantissa quotient lies in (0.5, 2), so it cannot overflow where the
    quotient itself would; where that is normal it has the quotient's bits.
    A zero gets the lowest exponent.
    """
    mantissa, exponent = np.frexp(curve.value(grid))
    tv_mantissa, tv_exponent = math.frexp(curve.tv)
    mantissa, shift = np.frexp(mantissa / tv_mantissa)
    exponent += shift - tv_exponent
    exponent[mantissa == 0.0] = np.iinfo(exponent.dtype).min
    return exponent, mantissa


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
    (left_exp, left), (right_exp, right) = _quotient(curve_g, grid), _quotient(curve_h, grid)
    violated = (left_exp > right_exp) | ((left_exp == right_exp) & (left > right))
    note = _tv_note(curve_g.tv, curve_h.tv)
    if np.any(violated):
        witness = float(grid[int(np.argmax(violated))])
        return OrderingVerdict(relation=relation, holds="no", witness=witness, note=note)
    return OrderingVerdict(relation=relation, holds="yes", note=note)
