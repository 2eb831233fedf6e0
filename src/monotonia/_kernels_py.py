"""Pure-NumPy kernel implementations.

Fallback used when the compiled extension is unavailable.  For positive cell
lengths and finite values, every reduction returns the same bits as a plain
Python loop that starts from 0.0 and adds ``length * H(value)`` cell by cell,
and so the same bits as the compiled kernels in ``_kernels.pyx``:

* Sums are taken with ``cumsum``, which adds strictly left to right; NumPy's
  ``sum`` adds pairwise and rounds differently.
* Rounding is symmetric, so ``length * (-value)`` is ``-(length * value)``
  and a sum of negated terms is the negated sum.  One signed product per
  cell therefore gives the negative part, the positive part, the magnitude
  and the signed total.
* A zero result is returned as +0.0, as the loop's 0.0 start gives it.
  ``0.0 - s`` and ``s + 0.0`` see to that where the sum could end on -0.0:
  a negated sum, a ``cumsum`` over ``-0.0`` terms alone, or whichever zero
  ``np.maximum`` picks on a tie (NumPy leaves it unspecified).
* Powers are taken with ``math.pow``, element by element.  It is libm's
  ``pow``, which the compiled kernel calls too, whereas ``np.power`` uses its
  own SIMD routines on some CPUs (AVX-512 among them) and rounds a few per
  cent of inputs differently.  The cells go through ``math.pow`` in chunks of
  ``CHUNK``, so only one chunk's Python floats are alive at a time.  A power
  that overflows makes the sum ``inf``, as libm's ``pow`` does.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

BACKEND_NAME = "python"

# Transform codes shared with the compiled kernel.
NEG = 0
POS = 1
ABS = 2
NEG_POW = 3
POS_POW = 4
ABS_POW = 5

CHUNK = 1 << 16


def _left_sum(terms: np.ndarray) -> float:
    """Left-to-right sum of ``terms``, which it overwrites."""
    if terms.size == 0:
        return 0.0
    return float(np.cumsum(terms, out=terms)[-1])


def transform_reduce(lengths: np.ndarray, values: np.ndarray, code: int, p: float = 1.0) -> float:
    """Sum of ``length * H(value)`` over cells, accumulated left to right."""
    if code in (NEG_POW, POS_POW, ABS_POW):
        if p == 1.0:
            return transform_reduce(lengths, values, code - 3)
        return _powered_sum(lengths, values, code, p)
    if code not in (NEG, POS, ABS):
        raise ValueError(f"unknown transform code {code}")
    with np.errstate(over="ignore"):
        terms = lengths * values
        if code == NEG:
            np.minimum(terms, 0.0, out=terms)
            return 0.0 - _left_sum(terms)
        if code == POS:
            np.maximum(terms, 0.0, out=terms)
        else:
            np.abs(terms, out=terms)
        return _left_sum(terms) + 0.0


def _powered_sum(lengths: np.ndarray, values: np.ndarray, code: int, p: float) -> float:
    if code == NEG_POW:
        cells = values < 0.0
    elif code == POS_POW:
        cells = values > 0.0
    else:
        cells = values != 0.0
    bases = values[cells]
    np.abs(bases, out=bases)
    weights = lengths[cells]
    acc = 0.0
    with np.errstate(over="ignore"):
        for start in range(0, bases.shape[0], CHUNK):
            chunk = bases[start : start + CHUNK]
            try:
                powers = np.fromiter(map(math.pow, chunk.tolist(), repeat(p)), np.float64, chunk.shape[0])
            except OverflowError:
                return math.inf
            terms = weights[start : start + CHUNK] * powers
            terms[0] += acc
            acc = _left_sum(terms)
    return acc


def sign_split_sums(lengths: np.ndarray, values: np.ndarray) -> tuple[float, float, float, float]:
    """Fused pass returning (negative mass, positive mass, total mass, signed total)."""
    with np.errstate(over="ignore", invalid="ignore"):
        signed = lengths * values
        part = np.minimum(signed, 0.0)
        neg = 0.0 - _left_sum(part)
        np.maximum(signed, 0.0, out=part)
        pos = _left_sum(part) + 0.0
        np.abs(signed, out=part)
        tv = _left_sum(part)
        return neg, pos, tv, _left_sum(signed) + 0.0
