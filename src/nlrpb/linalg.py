"""Dense real linear algebra kernels.

All routines operate on plain ``numpy`` float64 arrays: matrices are
2-d, vectors 1-d, and every entry point rejects NaN/Inf input.  The
symmetric eigensolver is LAPACK, called through ``numpy.linalg.eigh``
behind the ``SymEig`` contract (symmetry check, ascending eigenvalues,
sign-fixed eigenvectors), with one code path for every size and output
that is bitwise deterministic at a fixed BLAS thread count.  It keeps the
name ``jacobi_eigh`` of the Jacobi solver it replaced, because the
benchmark traces the eigensolver by that name.  The SPD roots ``spd_sqrt``
and ``spd_inv_sqrt`` share its input rule, its errors and its one LAPACK
call, but skip the sign fix: V f(lambda) V^T comes out bit for bit the
same for either sign of each column of V, since the signs cancel.  Each of
the three is the input rule ``_symmetrized`` plus a private core (``_eigh``,
``_spd_root``), which ``cryptoherm.hermitized_checks`` calls directly.

Checks that read only eigenvalues (``pseudoboson.verify_axioms``'
``p5_frame_bounds``, the ``model`` report's S_eta scalars and
``cryptoherm.verify_chwrt``'s ``metric_spd``, which keeps the split S that
the solve returns for the SPD roots) call ``symmetric_part_eigenvalues``:
``numpy.linalg.eigvalsh`` on finite square input.  The symmetry rule
first compares the bits of a and a^T and solves an exactly symmetric matrix
as it is; any other is solved as ``symmetric_part(a)``, which halves before it
adds so that entries near the float64 range do not overflow (it changes an
exactly symmetric matrix only where halving rounds, below 2^-1021), and is
measured by ``symmetry_excess``, ||a - a^T||_F within 1e-12 max(||a||_F, 1).
The eigensolvers raise on a positive excess; the values solve returns it,
and ``verify_chwrt`` reports it in ``metric_spd``."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError

__all__ = [
    "SPD_GATE",
    "SymEig",
    "default_tolerance",
    "jacobi_eigh",
    "residual_norm",
    "spd_deficit",
    "spd_inv_sqrt",
    "spd_sqrt",
]

#: Relative eigenvalue floor under which a symmetric matrix is treated
#: as not positive definite.
SPD_GATE = 1e-12

_SYM_RTOL = 1e-12
_SIGN_CUTOFF = 1e-12
_TINY = 1e-300  # floor for norms used as divisors


def default_tolerance(n: int) -> float:
    """Default absolute residual tolerance for size-``n`` problems.

    1e-10 up to n = 16, then ``n * 1e-12``: 1.7e-11 at 17, 6.4e-11 at 64, 1e-10 again at 100.
    """
    if n <= 16:
        return 1e-10
    return n * 1e-12


def effective_tolerance(n: int, tolerance=None) -> float:
    """``tolerance`` when given, else ``default_tolerance(n)``."""
    return default_tolerance(n) if tolerance is None else float(tolerance)


def freeze(obj, **fields) -> None:
    """Set ``fields`` on a frozen dataclass instance; array values become read-only."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)


def _checked(arr: np.ndarray, name: str, ndim: int) -> np.ndarray:
    """``arr``, which must be a finite nonempty ``ndim``-d array."""
    if arr.ndim != ndim or min(arr.shape) < 1:
        raise ValidationError(f"{name}: expected a {ndim}-d array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name}: entries must be finite")
    return arr


def _as_array(value, name: str, ndim: int) -> np.ndarray:
    """Coerce ``value`` to a finite real nonempty ``ndim``-d float64 array (a copy)."""
    return _checked(np.array(value, dtype=float, order="C"), name, ndim)


def as_matrix(value, name: str = "matrix") -> np.ndarray:
    """Coerce ``value`` to a finite real 2-d float64 array (a copy)."""
    return _as_array(value, name, 2)


def as_vector(value, name: str = "vector") -> np.ndarray:
    """Coerce ``value`` to a finite real 1-d float64 array (a copy)."""
    return _as_array(value, name, 1)


def as_square_pair(what: str, x, y, names: tuple) -> tuple:
    """Coerce two matrices (named ``names``) that must be square and of equal size."""
    x = as_matrix(x, names[0])
    y = as_matrix(y, names[1])
    if x.shape[0] != x.shape[1] or x.shape != y.shape:
        raise ValidationError(f"{what}: need square matrices of equal size, got {x.shape}/{y.shape}")
    return x, y


def _sum_of_squares(x: np.ndarray, axis):
    if axis is None:
        flat = x.ravel(order="K")  # np.linalg.norm's summation order
        return flat.dot(flat)
    return np.add.reduce(x * x, axis=axis)


def frobenius_norm(x, axis=None):
    """Frobenius norm of ``x`` (the 2-norm for a vector); with ``axis``, the
    2-norms along that axis (``axis=1``: one per row).

    Bit for bit ``np.linalg.norm(x, axis=axis)`` whenever the sum of squares
    is finite.  Where it overflows, the norm is max|x| ||x / max|x|||, which
    stays finite for entries near the float64 range when the norm itself is
    representable.  The overflow is seen as an infinite sum, or as the
    FloatingPointError that ``np.errstate(over="raise")`` makes of it (the
    CLI's setting); numpy's default setting also warns of it.  An infinite
    entry gives an infinite norm, as it does in numpy.
    """
    x = np.asarray(x, dtype=float)
    try:
        squares = _sum_of_squares(x, axis)
        if (squares if axis is None else squares.max(initial=0.0)) < math.inf:
            return np.sqrt(squares)
    except FloatingPointError:
        pass
    with np.errstate(over="ignore"):
        squares = _sum_of_squares(x, axis)
    scale = np.maximum(np.abs(x).max(axis=axis, keepdims=True), _TINY)
    with np.errstate(invalid="ignore"):  # inf / inf where an entry is infinite
        scaled = scale * np.sqrt(np.add.reduce((x / scale) ** 2, axis=axis, keepdims=True))
    scaled = np.where(np.isinf(scale), np.inf, scaled)
    return np.where(np.isinf(squares), scaled.reshape(np.shape(squares)), np.sqrt(squares))


def residual_norm(a, b) -> float:
    """Frobenius norm of ``a - b`` (the 2-norm for vectors)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValidationError(f"residual_norm: shapes differ ({a.shape} vs {b.shape})")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValidationError("residual_norm: entries must be finite")
    return float(frobenius_norm(a - b))


def symmetry_excess(a: np.ndarray) -> float:
    """||a - a^T||_F minus 1e-12 max(||a||_F, 1): positive when the finite
    square float64 matrix ``a`` is not symmetric within that tolerance."""
    return float(frobenius_norm(a - a.T)) - _SYM_RTOL * max(float(frobenius_norm(a)), 1.0)


@dataclass(frozen=True)
class SymEig:
    """Eigendecomposition of a symmetric matrix.

    ``eigenvalues`` are ascending; ``eigenvectors`` holds the orthonormal
    eigenvectors as columns, sign-fixed so that the first component with
    magnitude above 1e-12 is positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        freeze(self, eigenvalues=self.eigenvalues, eigenvectors=self.eigenvectors)


def symmetric_part(a: np.ndarray) -> np.ndarray:
    """(a + a^T) / 2, computed as a/2 + a^T/2: finite for every finite
    ``a``, where the sum overflows for entries above about 9e307.  Bit for
    bit the same whenever no entry of a/2 is subnormal."""
    half = a * 0.5
    return half + half.T


def _symmetric_split(a: np.ndarray) -> tuple:
    """(``a``, 0.0) when ``a`` is exactly symmetric, bit for bit (``symmetric_part``
    makes 0.0 of -0.0), else (``symmetric_part(a)``, ``symmetry_excess(a)``)."""
    bits = a.view(np.int64)
    if (bits == bits.T).all():
        return a, 0.0
    return symmetric_part(a), symmetry_excess(a)


def _symmetrized(a) -> np.ndarray:
    """The S of ``_symmetric_split(a)`` after the eigensolvers' one input rule:
    ``a`` is a finite square float64 matrix that passes ``symmetry_excess``."""
    a = _checked(np.asarray(a, dtype=float), "jacobi_eigh", 2)  # no copy: the solve does not write to it
    if a.shape[0] != a.shape[1]:
        raise ValidationError(f"jacobi_eigh: matrix must be square, got {a.shape}")
    sym, excess = _symmetric_split(a)
    if excess > 0.0:
        raise ValidationError("jacobi_eigh: matrix is not symmetric within tolerance")
    return sym


def _lapack(sym: np.ndarray, vectors: bool):
    """``numpy.linalg.eigh(sym)``, or ``eigvalsh(sym)`` without ``vectors``, looked
    up per call so that a wrapper on numpy.linalg sees the solve; LinAlgError becomes
    ConvergenceError."""
    name, solve = ("jacobi_eigh", np.linalg.eigh) if vectors else ("symmetric_part_eigenvalues", np.linalg.eigvalsh)
    try:
        return solve(sym)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"{name}: {exc}") from exc


def jacobi_eigh(a) -> SymEig:
    """Eigendecomposition of a real symmetric matrix by LAPACK (``numpy.linalg.eigh``).

    The input must pass ``symmetry_excess``; it is exactly symmetrized
    before the solve unless it is exactly symmetric.  The result is
    bitwise deterministic at a fixed BLAS thread count.  Raises
    ConvergenceError if LAPACK reports that the solve did not converge.
    The name is kept from the Jacobi iteration this replaced, because
    the benchmark traces the eigensolver by that name.
    """
    return _eigh(_symmetrized(a))


def _eigh(sym: np.ndarray) -> SymEig:
    """``jacobi_eigh`` of a ``sym`` that passed its input rule: each column whose first
    component above the cutoff is negative is flipped (a unit column has such a component)."""
    lam, vecs = _lapack(sym, vectors=True)
    first = np.argmax(np.abs(vecs) > _SIGN_CUTOFF, axis=0)
    vecs *= np.copysign(1.0, vecs[first, np.arange(vecs.shape[1])])
    return SymEig(lam, vecs)


def symmetric_part_eigenvalues(a: np.ndarray) -> tuple:
    """(ascending eigenvalues, excess, S) of the split (S, excess) = ``_symmetric_split(a)``
    of a finite square float64 ``a``, for callers that never read the eigenvectors: the
    excess is returned, not raised, and the solve is ``numpy.linalg.eigvalsh``."""
    sym, excess = _symmetric_split(a)
    return _lapack(sym, vectors=False), excess, sym


def spd_deficit(eigenvalues) -> float:
    """0.0 when the ascending eigenvalues certify positive definiteness
    (lambda_min > 1e-12 * lambda_max > 0); otherwise a positive deficit.
    """
    lam_min = float(eigenvalues[0])
    lam_max = float(eigenvalues[-1])
    if lam_max <= 0.0:
        return 1.0 - lam_max
    return max(0.0, SPD_GATE * lam_max - lam_min)


def _spd_root(sym: np.ndarray, name: str, scale) -> np.ndarray:
    """V scale(V, sqrt(lambda)) V^T, symmetrized, after the SPD gate on the
    eigenpairs of ``sym``, which already passed the eigensolvers' input rule.
    V is not sign-fixed: a flipped column flips both factors of its products."""
    lam, v = _lapack(sym, vectors=True)
    if spd_deficit(lam) > 0.0:
        raise ValidationError(
            f"{name}: matrix is not positive definite "
            f"(smallest eigenvalue {float(lam[0]):.6e}, largest {float(lam[-1]):.6e})"
        )
    return symmetric_part(scale(v, np.sqrt(lam)) @ v.T)


def spd_sqrt(a) -> np.ndarray:
    """Symmetric square root V diag(sqrt(lambda)) V^T of an SPD matrix."""
    return _spd_root(_symmetrized(a), "spd_sqrt", np.multiply)


def spd_inv_sqrt(a) -> np.ndarray:
    """Symmetric inverse square root V diag(1/sqrt(lambda)) V^T."""
    return _spd_root(_symmetrized(a), "spd_inv_sqrt", np.divide)
