"""Semantic exception hierarchy.

Every error raised by the library derives from :class:`MonotoniaError`, so
callers can catch one base class.  Validation errors additionally derive from
``ValueError`` to cooperate with generic error handling.
"""

__all__ = [
    "MonotoniaError",
    "InvalidInputError",
    "InvalidParameterError",
    "UndefinedIndexError",
    "UndefinedComparisonError",
    "DegenerateWeightError",
    "UndefinedRatioError",
    "NumericalInvariantError",
]


class MonotoniaError(Exception):
    """Base class for all errors raised by monotonia."""


class InvalidInputError(MonotoniaError, ValueError):
    """Input data violates a structural contract (too few samples, NaN, duplicate abscissas, ...)."""


class InvalidParameterError(MonotoniaError, ValueError):
    """A parameter is outside its admissible range (p < 1, weight parameter <= 0, ...)."""


class UndefinedIndexError(MonotoniaError):
    """A normalized index is undefined because the normalizer (total variation) is zero."""


class UndefinedComparisonError(MonotoniaError):
    """An ordering cannot be evaluated because one side has zero total variation."""


class DegenerateWeightError(MonotoniaError):
    """A weight function integrates to zero over [0, 1]."""


class UndefinedRatioError(MonotoniaError):
    """Gain/loss style ratios are undefined because the function vanishes identically."""


class NumericalInvariantError(MonotoniaError):
    """An internal numerical invariant failed; indicates a bug or pathological input."""
