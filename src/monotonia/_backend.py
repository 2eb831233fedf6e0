"""Per-cell reduction kernels in plain NumPy.

Every index is a finite sum over cells.  A linear index sums a part H (the
negative part, the positive part or the magnitude) of signed cell masses:
the increments Δy of a sampled function, the weights of atoms, the masses
of grid cells.  A powered index sums ``length * H(value)**p`` over the cells
of a piecewise-constant density, with its lengths and values.  Both run
over blocks of ``BLOCK`` (64 Ki) cells: a linear reduction takes the part of
a block into one small buffer and sums it with ``np.sum``; a powered one
gathers the cells of a block that contribute, unless all of them do, and
sums their powers against their lengths with ``np.dot``.  The block sums
are added left to right.

Accuracy: over n cells the result differs from the exact sum of the terms
by at most (n + 1)·u·Σ|terms|, u = 2**-53.  A linear term is a cell mass
itself, rounded once where the mass was computed (Δy); a powered term is the
rounded ``length * H(value)**p``, plus the error of ``np.power`` (within an
ulp of libm's ``pow``).  That is the bound of any summation order; ``np.sum``
adds pairwise and ``np.dot`` in blocks, whose errors grow far slower than a
left-to-right loop's, and there are few block sums.  Where every term and
partial sum is exact, as on dyadic data, so is the result.

Exact guarantees beyond that:

* a zero result is +0.0, and an empty input gives 0.0;
* a power of 1 without lengths gives the linear code's result;
* the magnitude reduction is the negative part's plus the positive part's,
  and ``sign_split_sums``' results are the NEG, POS and ABS reductions bit
  for bit, so ``lom``, ``lop``, ``report`` and the normalised indices agree
  exactly with ``loi``, ``lod`` and ``total_variation``;
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


# Every reduction runs over blocks of this many cells of its input, summing
# each block with NumPy and adding the block sums left to right, so that its
# temporaries stay small and in cache whatever the size of the input.  A
# caller that reduces block by block on the same boundaries gets the same bits.
BLOCK = 1 << 16


def _part_sum(masses: np.ndarray, part) -> float:
    """Σ part(mass, 0), pairwise within each block."""
    # Starting from +0.0, a sum of zeros is +0.0 also where a block's sum is -0.0.
    total = 0.0
    buf = np.empty(min(BLOCK, masses.shape[0]))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, masses.shape[0], BLOCK):
            block = masses[start : start + BLOCK]
            out = buf[: block.shape[0]]
            part(block, 0.0, out=out)
            total += float(np.sum(out))
    return total


def _neg(masses) -> float:
    return 0.0 - _part_sum(masses, np.minimum)


def _pos(masses) -> float:
    return _part_sum(masses, np.maximum)


def _abs(masses) -> float:
    return _neg(masses) + _pos(masses)


_LINEAR = {NEG: _neg, POS: _pos, ABS: _abs}
_SELECT = {NEG_POW: np.less, POS_POW: np.greater, ABS_POW: np.not_equal}


def _powered_sum(values: np.ndarray, code: int, p: float, lengths: np.ndarray | None) -> float:
    """Σ length * H(value)**p over one block, gathering the cells that contribute unless all do."""
    selected = _SELECT[code](values, 0.0)
    if selected.all():
        bases = np.abs(values)
    else:
        cells = np.flatnonzero(selected)
        bases = values[cells]
        np.abs(bases, out=bases)
        if lengths is not None:
            lengths = lengths[cells]
    with np.errstate(over="ignore"):
        np.power(bases, p, out=bases)
    with np.errstate(over="ignore", invalid="ignore"):
        # BLAS leaves the sign of a zero sum unspecified; ``+ 0.0`` makes it +0.0.
        if lengths is None:
            return float(np.sum(bases)) + 0.0
        return float(np.dot(lengths, bases)) + 0.0


def transform_reduce(values: np.ndarray, code: int, p: float = 1.0, lengths: np.ndarray | None = None) -> float:
    """Sum over cells of ``H(value)`` for a linear ``code``, or of ``length * H(value)**p`` for a powered one.

    A linear code reduces signed cell masses and takes no lengths.  A
    powered code takes the values of a density and their cell ``lengths``,
    or unit lengths when ``lengths`` is None.
    """
    if code in _LINEAR:
        if lengths is not None:
            raise ValueError("a linear code sums cell masses and takes no lengths")
        return _LINEAR[code](values)
    if code not in _SELECT:
        raise ValueError(f"unknown transform code {code}")
    if p == 1.0 and lengths is None:
        return _LINEAR[code - NEG_POW](values)
    total = 0.0
    for start in range(0, values.shape[0], BLOCK):
        block_lengths = None if lengths is None else lengths[start : start + BLOCK]
        total += _powered_sum(values[start : start + BLOCK], code, p, block_lengths)
    return total


def sign_split_sums(masses: np.ndarray) -> tuple[float, float, float]:
    """(negative mass, positive mass, total mass) of signed cell masses, as the single reductions give them."""
    neg, pos = _neg(masses), _pos(masses)
    return neg, pos, neg + pos
