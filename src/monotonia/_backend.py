"""Per-cell reduction kernels in plain NumPy.

Every index is a finite sum over cells.  A linear index sums a part H (the
negative or the positive part) of signed cell masses: the increments Δy of
a sampled function, the weights of atoms, the masses of grid cells, and in
``risk`` the masses of g·dx (one per cell of g, two where g crosses zero)
and of (quantile - mean)·weight (one per quantile block).
``sign_split_sums`` gives both parts and their total in one call.  The
powered index sums ``length * H(value)**p`` over the cells of a
piecewise-constant density, for the negative part H only, and
``transform_reduce(values, p, lengths)`` computes it.  Both run over blocks
of ``BLOCK`` (64 Ki) cells: a linear reduction takes the part of a block
into one small buffer and sums it with ``np.sum``; a powered one gathers the
negative cells of a block, unless all of them are, and sums their powers
against their lengths with ``np.dot``.  The block sums are added left to
right.

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
* ``sign_split_sums``' total is the sum of its negative and positive
  masses, bit for bit, and its negative mass of ``masses`` is its positive
  mass of ``-masses``;
* a term that overflows makes a sum of non-negative terms ``inf``.
"""

from __future__ import annotations

import numpy as np

# NEG and POS index the negative and positive masses in a sign split.
NEG = 0
POS = 1


# Every reduction runs over blocks of this many cells of its input, summing
# each block with NumPy and adding the block sums left to right, so that its
# temporaries stay small and in cache whatever the size of the input.  No
# other module blocks: each passes the whole array of its cells.
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


def _powered_sum(values: np.ndarray, p: float, lengths: np.ndarray | None) -> float:
    """Σ length * (−value)**p over the negative values of one block, gathering them unless all are."""
    negative = values < 0.0
    if negative.all():
        bases = np.abs(values)
    else:
        cells = np.flatnonzero(negative)
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


def transform_reduce(values: np.ndarray, p: float, lengths: np.ndarray | None = None) -> float:
    """Sum over cells of ``length * H(value)**p``, H the negative part.

    It takes the values of a density and their cell ``lengths``, or unit
    lengths when ``lengths`` is None.  The linear sums come from
    ``sign_split_sums``.
    """
    total = 0.0
    for start in range(0, values.shape[0], BLOCK):
        block_lengths = None if lengths is None else lengths[start : start + BLOCK]
        total += _powered_sum(values[start : start + BLOCK], p, block_lengths)
    return total


def sign_split_sums(masses: np.ndarray) -> tuple[float, float, float]:
    """(negative mass, positive mass, total mass) of signed cell masses, as the single reductions give them."""
    neg, pos = _neg(masses), _pos(masses)
    return neg, pos, neg + pos
