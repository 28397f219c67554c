"""Finite-dimensional biorthogonal ladder systems and hidden-hermiticity pairs.

The package builds, verifies, and interconverts two equivalent pictures of
a diagonalizable operator with real, simple, nonnegative spectrum:

* a *biorthogonal ladder system*: two bases ``phi`` and ``eta`` that pair
  to the identity, together with lowering/raising operators whose action
  shifts levels and whose commutator encodes the spectral gaps;
* a *hidden-hermiticity pair* ``(h_matrix, theta)``: a non-symmetric
  matrix that becomes symmetric under the similarity induced by the
  square root of a positive-definite metric ``theta``.

Two exactly solvable families are included (a Chebyshev-node family of
arbitrary size and a two-parameter 2x2 family), along with a
deterministic symmetric eigensolver contract over LAPACK, JSON
serialization for every artifact, and a CLI (``nlrpb``) that reports
residual checks.
"""

# Each module's __all__ is its public API; the package republishes them all.
from . import cryptoherm, errors, linalg, models, pseudoboson, report
from .cryptoherm import *
from .errors import *
from .linalg import *
from .models import *
from .pseudoboson import *
from .report import *

__version__ = "0.1.0"

__all__ = [name for module in (cryptoherm, errors, linalg, models, pseudoboson, report) for name in module.__all__]
__all__.append("__version__")
