"""Signed measures with finite representations and their positivity indices.

Two concrete representations are supported: a finite list of weighted atoms
and a piecewise-constant density against Lebesgue measure on consecutive
cells.  A mixed measure is the formal sum of one of each; its indices are the
componentwise sums.  The positivity indices mirror the monotonicity indices:
lop measures the total mass that must be added to make the measure positive,
lon the mass to remove to make it negative, and los twice the smaller of the
two.  The grid representation is the bridge to functions: the measure with
density g' recovers the function-level indices exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _backend
from .errors import InvalidInputError, UndefinedIndexError
from .functions import DerivativeProfile, _as_float_array, _freeze
from .indices import _finite_split, _normalize

__all__ = [
    "DiscreteSignedMeasure",
    "GridDensityMeasure",
    "MixedSignedMeasure",
    "JordanPair",
    "jordan",
    "lop",
    "lon",
    "los",
    "lop_norm",
    "lon_norm",
    "los_norm",
]


@dataclass(frozen=True, eq=False)
class DiscreteSignedMeasure:
    """Finitely many atoms with nonzero signed weights at distinct locations.

    Zero-weight atoms are dropped at construction (they belong to neither
    Hahn set, and dropping them fixes a canonical representative); remaining
    atoms are sorted by location.  The empty measure is valid.
    """

    locations: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        locations = _as_float_array(self.locations, "locations")
        weights = _as_float_array(self.weights, "weights")
        if locations.shape != weights.shape:
            raise InvalidInputError(
                f"locations and weights must have equal length, "
                f"got {locations.shape[0]} and {weights.shape[0]}"
            )
        keep = weights != 0.0
        locations = locations[keep]
        weights = weights[keep]
        order = np.argsort(locations, kind="stable")
        locations = locations[order]
        weights = weights[order]
        if locations.shape[0] > 1:
            dup = np.nonzero(np.diff(locations) == 0.0)[0]
            if dup.size:
                raise InvalidInputError(
                    f"duplicate atom location {float(locations[dup[0]])!r}; merge weights first"
                )
        object.__setattr__(self, "locations", _freeze(locations))
        object.__setattr__(self, "weights", _freeze(weights))

    @classmethod
    def from_atoms(cls, atoms) -> "DiscreteSignedMeasure":
        """Build from an iterable of (location, weight) pairs."""
        pairs = list(atoms)
        if pairs:
            locations, weights = zip(*pairs)
        else:
            locations, weights = (), ()
        return cls(np.asarray(locations, dtype=np.float64), np.asarray(weights, dtype=np.float64))

    @property
    def atoms(self) -> list[tuple[float, float]]:
        return [(float(x), float(w)) for x, w in zip(self.locations, self.weights)]

    def total_variation(self) -> float:
        return _split_measure(self)[2]


@dataclass(frozen=True, eq=False)
class GridDensityMeasure:
    """Piecewise-constant density on consecutive cells of positive length.

    The measure of cell i is lengths[i] * densities[i]; zero densities are
    kept (the cell is part of the space, carrying no mass).
    """

    lengths: np.ndarray
    densities: np.ndarray

    def __post_init__(self):
        lengths = _as_float_array(self.lengths, "lengths")
        densities = _as_float_array(self.densities, "densities")
        if lengths.shape != densities.shape:
            raise InvalidInputError(
                f"lengths and densities must have equal length, "
                f"got {lengths.shape[0]} and {densities.shape[0]}"
            )
        if np.any(lengths <= 0.0):
            raise InvalidInputError("cell lengths must be positive")
        object.__setattr__(self, "lengths", _freeze(lengths))
        object.__setattr__(self, "densities", _freeze(densities))

    @classmethod
    def from_derivative_profile(cls, profile: DerivativeProfile) -> "GridDensityMeasure":
        """The measure with density g' against Lebesgue measure on the cells of g."""
        return cls(profile.lengths, profile.slopes)

    def total_variation(self) -> float:
        return _split_measure(self)[2]


@dataclass(frozen=True, eq=False)
class MixedSignedMeasure:
    """Formal sum of a discrete and a grid-density measure.

    Indices act componentwise: every index of the mixed measure is the sum of
    the same index of the two components.  Decompose the components
    individually when the Jordan parts themselves are needed.
    """

    discrete: DiscreteSignedMeasure
    grid: GridDensityMeasure

    def __post_init__(self):
        if not isinstance(self.discrete, DiscreteSignedMeasure):
            raise InvalidInputError("discrete component must be a DiscreteSignedMeasure")
        if not isinstance(self.grid, GridDensityMeasure):
            raise InvalidInputError("grid component must be a GridDensityMeasure")

    def total_variation(self) -> float:
        return _split_measure(self)[2]


@dataclass(frozen=True, eq=False)
class JordanPair:
    """Canonical split of a signed measure into non-negative parts.

    For a discrete measure the parts hold the positive-weight atoms and the
    magnitudes of the negative-weight atoms; for a grid measure they share
    the source cells with densities clamped at zero, so subtracting them
    reconstructs the source cell by cell.  The Hahn index sets record which
    atoms/cells carry non-negative versus negative values.
    """

    positive_part: "DiscreteSignedMeasure | GridDensityMeasure"
    negative_part: "DiscreteSignedMeasure | GridDensityMeasure"
    hahn_positive: np.ndarray = field(repr=False)
    hahn_negative: np.ndarray = field(repr=False)


def _freeze_index(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.intp)
    out.flags.writeable = False
    return out


def _split_measure(nu) -> tuple[float, float, float]:
    """Return (mass below zero, mass above zero, total variation)."""
    if isinstance(nu, DiscreteSignedMeasure):
        split = _backend.sign_split_sums(np.ones_like(nu.weights), nu.weights)
    elif isinstance(nu, GridDensityMeasure):
        split = _backend.sign_split_sums(nu.lengths, nu.densities)
    elif isinstance(nu, MixedSignedMeasure):
        parts = (_split_measure(nu.discrete), _split_measure(nu.grid))
        split = tuple(a + b for a, b in zip(*parts))
    else:
        raise InvalidInputError(f"not a signed measure representation: {type(nu).__name__}")
    return _finite_split(split)


def jordan(nu: DiscreteSignedMeasure | GridDensityMeasure) -> JordanPair:
    """Jordan decomposition with the associated Hahn index sets."""
    if isinstance(nu, DiscreteSignedMeasure):
        pos = nu.weights > 0.0
        neg = nu.weights < 0.0
        positive = DiscreteSignedMeasure(nu.locations[pos], nu.weights[pos])
        negative = DiscreteSignedMeasure(nu.locations[neg], -nu.weights[neg])
        hahn_pos = np.nonzero(pos)[0]
        hahn_neg = np.nonzero(neg)[0]
    elif isinstance(nu, GridDensityMeasure):
        positive = GridDensityMeasure(nu.lengths, np.maximum(nu.densities, 0.0))
        negative = GridDensityMeasure(nu.lengths, np.maximum(-nu.densities, 0.0))
        hahn_pos = np.nonzero(nu.densities >= 0.0)[0]
        hahn_neg = np.nonzero(nu.densities < 0.0)[0]
    else:
        raise InvalidInputError(
            f"jordan expects a discrete or grid measure, got {type(nu).__name__}; "
            "decompose the components of a mixed measure individually"
        )
    return JordanPair(
        positive_part=positive,
        negative_part=negative,
        hahn_positive=_freeze_index(hahn_pos),
        hahn_negative=_freeze_index(hahn_neg),
    )


def lop(nu) -> float:
    """Lack of positivity: total mass of the negative part, the distance to the positive cone."""
    return _split_measure(nu)[0]


def lon(nu) -> float:
    """Lack of negativity: total mass of the positive part."""
    return _split_measure(nu)[1]


def los(nu) -> float:
    """Lack of sign-definiteness: twice the smaller of lop and lon."""
    neg, pos, _ = _split_measure(nu)
    return 2.0 * min(neg, pos)


def _normalized_split(nu) -> tuple[float, float, float]:
    norm = _normalize(*_split_measure(nu))
    if norm is None:
        raise UndefinedIndexError(
            "normalized positivity indices are undefined for the zero measure"
        )
    return norm


def lop_norm(nu) -> float:
    """lop divided by the total variation; in [0, 1]."""
    return _normalized_split(nu)[0]


def lon_norm(nu) -> float:
    """lon divided by the total variation; in [0, 1]."""
    return _normalized_split(nu)[1]


def los_norm(nu) -> float:
    """Twice the smaller normalized index; 1 for perfectly balanced measures."""
    return _normalized_split(nu)[2]
