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

from .cryptoherm import (
    CryptoPair,
    HermitizedSystem,
    from_crypto,
    from_nlrpb,
    hermitize,
    verify_chwrt,
)
from .errors import ConvergenceError, SchemaError, ValidationError
from .linalg import (
    SPD_GATE,
    SymEig,
    default_tolerance,
    jacobi_eigh,
    residual_norm,
    spd_deficit,
    spd_inv_sqrt,
    spd_sqrt,
)
from .models import (
    ChebyshevSpec,
    TwoParamSpec,
    chebyshev_model,
    chebyshev_paper_normalization,
    two_param_model,
)
from .pseudoboson import (
    MIN_EPS_GAP,
    BiorthogonalSystem,
    LadderPair,
    MetricPair,
    build_ladders,
    build_metrics,
    build_system,
    commutator_defect,
    rescale,
    verify_axioms,
)
from .report import Check, VerificationReport

__version__ = "0.1.0"

__all__ = [
    "BiorthogonalSystem",
    "Check",
    "ChebyshevSpec",
    "ConvergenceError",
    "CryptoPair",
    "HermitizedSystem",
    "LadderPair",
    "MIN_EPS_GAP",
    "MetricPair",
    "SchemaError",
    "SPD_GATE",
    "SymEig",
    "TwoParamSpec",
    "ValidationError",
    "VerificationReport",
    "build_ladders",
    "build_metrics",
    "build_system",
    "chebyshev_model",
    "chebyshev_paper_normalization",
    "commutator_defect",
    "default_tolerance",
    "from_crypto",
    "from_nlrpb",
    "hermitize",
    "jacobi_eigh",
    "rescale",
    "residual_norm",
    "spd_deficit",
    "spd_inv_sqrt",
    "spd_sqrt",
    "two_param_model",
    "verify_axioms",
    "verify_chwrt",
    "__version__",
]
