"""Per-cell reduction kernels in plain NumPy.

Every index is a finite sum over cells of ``length * H(value)``, where H is
the negative part, the positive part or the magnitude of a slope or density,
or a p-th power of one of them.  A linear reduction builds one temporary and
sums it against the lengths with ``np.dot``; a powered one first gathers the
cells that contribute.

Accuracy: over n cells the result differs from the exact sum of the rounded
terms ``length * H(value)`` by at most (n + 1)·u·Σ|terms|, u = 2**-53, plus
the error of ``np.power`` in each powered term (within an ulp of libm's
``pow``).  That is the bound of any summation order; ``np.dot`` sums in
blocks, whose error grows far slower than a left-to-right loop's.  Where
every term and partial sum is exact, as on dyadic data, so is the result.

Exact guarantees beyond that:

* a zero result is +0.0, and an empty input gives 0.0;
* a power of 1 gives the linear code's result;
* ``sign_split_sums``' results are the NEG, POS and ABS reductions bit for
  bit, so ``lom``, ``lop`` and the normalised indices
  agree exactly with ``loi``, ``lod`` and ``total_variation``;
* a term that overflows makes a sum of non-negative terms ``inf``.
"""

from __future__ import annotations

import numpy as np

# Transform codes: H is the negative part, the positive part or the magnitude,
# and the *_POW codes raise it to a power p.
NEG = 0
POS = 1
ABS = 2
NEG_POW = 3
POS_POW = 4
ABS_POW = 5


def _dot(lengths: np.ndarray, part: np.ndarray) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        # BLAS leaves the sign of a zero sum unspecified; ``+ 0.0`` makes it +0.0.
        return float(np.dot(lengths, part)) + 0.0


def _neg(lengths, values) -> float:
    return 0.0 - _dot(lengths, np.minimum(values, 0.0))


def _pos(lengths, values) -> float:
    return _dot(lengths, np.maximum(values, 0.0))


def _abs(lengths, values) -> float:
    return _dot(lengths, np.abs(values))


_LINEAR = {NEG: _neg, POS: _pos, ABS: _abs}
_SELECT = {NEG_POW: np.less, POS_POW: np.greater, ABS_POW: np.not_equal}


def transform_reduce(lengths: np.ndarray, values: np.ndarray, code: int, p: float = 1.0) -> float:
    """Sum of ``length * H(value)`` over cells, for the transform ``code``."""
    if code in _LINEAR:
        return _LINEAR[code](lengths, values)
    if code not in _SELECT:
        raise ValueError(f"unknown transform code {code}")
    if p == 1.0:
        return _LINEAR[code - NEG_POW](lengths, values)
    cells = np.flatnonzero(_SELECT[code](values, 0.0))
    bases = values[cells]
    np.abs(bases, out=bases)
    with np.errstate(over="ignore"):
        np.power(bases, p, out=bases)
    return _dot(lengths[cells], bases)


def sign_split_sums(lengths: np.ndarray, values: np.ndarray) -> tuple[float, float, float]:
    """(negative mass, positive mass, total mass), as the single reductions give them."""
    return _neg(lengths, values), _pos(lengths, values), _abs(lengths, values)
