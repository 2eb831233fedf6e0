"""Signed measures with finite representations and their positivity indices.

Two concrete representations are supported: a finite list of weighted atoms
and a piecewise-constant density against Lebesgue measure on consecutive
cells.  A mixed measure is the formal sum of one of each; its indices are the
componentwise sums.  The positivity indices mirror the monotonicity indices:
lop measures the total mass that must be added to make the measure positive,
lon the mass to remove to make it negative, and los twice the smaller of the
two.  The grid representation is the bridge to functions: ``derivative(g)``,
the measure dg with density g', recovers the function-level indices exactly.

A measure is frozen like a function and keeps its sign split (the mass
below zero, the mass above it and their total) by the same rule,
``functions._kept``, stored by ``object.__setattr__`` on its first read;
every positivity index and ``total_variation`` read it, and a mixed measure
sums the splits of its parts and keeps nothing.  ``derivative(g)`` returns
dg as a view of g: it holds g alone and forms its lengths, densities and
masses on first read.  dg's masses are g's increments, so g and dg share
one split, kept on g and reduced by whichever of them is asked first, and
lop(dg) = loi(g) holds bit for bit.  A query that reads only the split,
such as ``lop(derivative(g))``, forms no array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _backend
from .errors import InvalidInputError, UndefinedIndexError
from .functions import SampledFunction, _as_float_array, _as_sampled, _cell, _derived_arrays, _freeze, _kept
from .indices import _indices

__all__ = [
    "DiscreteSignedMeasure",
    "GridDensityMeasure",
    "MixedSignedMeasure",
    "JordanPair",
    "PositivityReport",
    "derivative",
    "jordan",
    "positivity_report",
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
            # Compared, not differenced: a difference of finite locations can overflow.
            dup = np.flatnonzero(locations[1:] == locations[:-1])
            if dup.size:
                raise InvalidInputError(
                    f"duplicate atom location {float(locations[dup[0]])!r}; merge weights first"
                )
        object.__setattr__(self, "locations", _freeze(locations))
        object.__setattr__(self, "weights", _freeze(weights))

    def __reduce__(self):
        # Built again, like a copied function, so that no split is kept on writeable arrays.
        return type(self), (self.locations, self.weights)

    @_kept
    def _split(self) -> tuple[float, float, float]:
        """The sign split of the weights."""
        return _backend.sign_split_sums(self.weights)

    @classmethod
    def from_atoms(cls, atoms) -> "DiscreteSignedMeasure":
        """Build from an iterable of (location, weight) pairs."""
        pairs = list(atoms)
        if pairs:
            locations, weights = zip(*pairs)
        else:
            locations, weights = (), ()
        return cls(locations, weights)

    @property
    def atoms(self) -> list[tuple[float, float]]:
        return list(zip(self.locations.tolist(), self.weights.tolist()))

    def total_variation(self) -> float:
        return positivity_report(self).tv


@dataclass(frozen=True, eq=False)
class GridDensityMeasure:
    """Piecewise-constant density on consecutive cells of positive length.

    The measure of cell i, ``masses[i]``, is lengths[i] * densities[i]; zero
    densities are kept (the cell is part of the space, carrying no mass).
    ``derivative(g)`` carries the increments of g's samples as its masses
    instead, so its indices are g's bit for bit.
    """

    lengths: np.ndarray
    densities: np.ndarray
    masses: np.ndarray = field(init=False, repr=False)

    _function = None  # g of dg, set by ``_view``: dg's arrays are formed from g on first read

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
        with np.errstate(over="ignore"):
            # A mass that overflows makes the total variation overflow, which the indices report.
            object.__setattr__(self, "masses", _freeze(lengths * densities))

    @classmethod
    def from_derivative_profile(cls, nu: "GridDensityMeasure") -> "GridDensityMeasure":
        """``nu`` itself: ``derivative(g)`` is already the measure dg.

        Kept only for the benchmark workload that still calls
        ``from_derivative_profile(derivative(f))``; it goes when that
        workload calls ``derivative(f)`` alone (ROADMAP item 1).
        """
        return nu

    @classmethod
    def _of(cls, lengths: np.ndarray, densities: np.ndarray, masses: np.ndarray) -> "GridDensityMeasure":
        """A measure from valid arrays, each frozen already or made by the library, frozen by ``_freeze``."""
        nu = object.__new__(cls)
        for name, value in (("lengths", lengths), ("densities", densities), ("masses", masses)):
            object.__setattr__(nu, name, _freeze(value))
        return nu

    @classmethod
    def _view(cls, f: SampledFunction) -> "GridDensityMeasure":
        """df as a view of ``f``, which holds ``f`` alone."""
        nu = object.__new__(cls)
        object.__setattr__(nu, "_function", f)
        return nu

    @classmethod
    def _rebuilt(cls, lengths: np.ndarray, densities: np.ndarray, masses: np.ndarray) -> "GridDensityMeasure":
        """A copied or unpickled measure, over its own copies of the arrays.

        An unpickled array may lie over its caller's buffer, so it is copied.
        Not validated: a constructed measure may hold a mass that overflowed.
        """
        return cls._of(*(np.array(arr, dtype=np.float64) for arr in (lengths, densities, masses)))

    def __getattr__(self, name):
        # Called only for a missing attribute: the arrays of dg before their first read.
        if self._function is None or name not in _ARRAYS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        arrays = dict(zip(_ARRAYS, map(_freeze, _derived_arrays(self._function))))
        for key, value in arrays.items():
            # Racing threads may each set their own arrays, with the same bits.
            object.__setattr__(self, key, value)
        return arrays[name]

    def __reduce__(self):
        # Built again from its arrays, masses included: those of dg are Δy, not lengths · densities.
        return type(self)._rebuilt, (self.lengths, self.densities, self.masses)

    @_kept
    def _split(self) -> tuple[float, float, float]:
        """The sign split of the masses: for dg, g's, read before any array of dg is formed."""
        if self._function is not None:
            return self._function._split
        return _backend.sign_split_sums(self.masses)

    def total_variation(self) -> float:
        return positivity_report(self).tv


_ARRAYS = ("lengths", "densities", "masses")


def derivative(g: SampledFunction) -> GridDensityMeasure:
    """The derivative measure dg: density g' = Δy/Δx on the cells of g, mass Δy = g(b) − g(a) on [a, b].

    dg is a view of g that forms its arrays on first read.  Raises
    ``InvalidInputError`` naming the first cell whose difference quotient
    overflows, checked on the first call and kept on g.
    """
    f = _as_sampled(g)
    if f._overflow_cell >= 0:
        raise InvalidInputError(f"the difference quotient of {_cell(f, f._overflow_cell)} overflows float64")
    return GridDensityMeasure._view(f)


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
        return positivity_report(self).tv


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


@dataclass(frozen=True)
class PositivityReport:
    """All raw and normalized positivity indices of one signed measure.

    Normalized fields are ``None`` for the zero measure (zero total variation).
    """

    lop: float
    lon: float
    los: float
    tv: float
    lop_norm: float | None
    lon_norm: float | None
    los_norm: float | None


def _split_measure(nu) -> tuple[float, float, float]:
    """Return (mass below zero, mass above zero, total variation): a mixed measure's sums those of its parts."""
    if isinstance(nu, MixedSignedMeasure):
        parts = (_split_measure(nu.discrete), _split_measure(nu.grid))
        return tuple(a + b for a, b in zip(*parts))
    if not isinstance(nu, (DiscreteSignedMeasure, GridDensityMeasure)):
        raise InvalidInputError(f"not a signed measure representation: {type(nu).__name__}")
    return nu._split


def positivity_report(nu) -> PositivityReport:
    """Every positivity index of a discrete, grid or mixed measure in one report.

    Raises where the total variation overflows float64.
    """
    return PositivityReport(*_indices(_split_measure(nu)))


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
        positive = GridDensityMeasure._of(nu.lengths, np.maximum(nu.densities, 0.0), np.maximum(nu.masses, 0.0))
        negative = GridDensityMeasure._of(nu.lengths, np.maximum(-nu.densities, 0.0), np.maximum(-nu.masses, 0.0))
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
        hahn_positive=_freeze(hahn_pos),
        hahn_negative=_freeze(hahn_neg),
    )


def lop(nu) -> float:
    """Lack of positivity: total mass of the negative part, the distance to the positive cone."""
    return positivity_report(nu).lop


def lon(nu) -> float:
    """Lack of negativity: total mass of the positive part."""
    return positivity_report(nu).lon


def los(nu) -> float:
    """Lack of sign-definiteness: twice the smaller of lop and lon."""
    return positivity_report(nu).los


def _normalized(nu) -> PositivityReport:
    rep = positivity_report(nu)
    if rep.tv == 0.0:
        raise UndefinedIndexError(
            "normalized positivity indices are undefined for the zero measure"
        )
    return rep


def lop_norm(nu) -> float:
    """lop divided by the total variation; in [0, 1]."""
    return _normalized(nu).lop_norm


def lon_norm(nu) -> float:
    """lon divided by the total variation; in [0, 1]."""
    return _normalized(nu).lon_norm


def los_norm(nu) -> float:
    """Twice the smaller normalized index; 1 for perfectly balanced measures."""
    return _normalized(nu).los_norm
