"""Indices of non-monotonicity for functions and non-positivity for measures.

The library models sampled functions as piecewise-linear interpolants, which
makes every index an exact finite sum rather than a quadrature estimate.  On
top of the core indices sit orderings between functions (index-based and
survival-curve based), Jordan decomposition of finitely represented signed
measures, and the weighted-premium machinery that motivated the indices.

The per-cell reductions are plain NumPy, so the package needs no compiler.
Each sum is within (n + 1)·u·Σ|terms| of the exact sum of its n rounded
terms, and exact where every term and partial sum is.
"""

from . import errors, functions, indices, measures, orderings, risk
from .errors import *
from .functions import *
from .indices import *
from .measures import *
from .orderings import *
from .risk import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *functions.__all__,
    *indices.__all__,
    *measures.__all__,
    *orderings.__all__,
    *risk.__all__,
]
