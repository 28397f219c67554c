"""Exactly solvable model families.

Two-parameter family (beta != delta, beta*delta < 0): the nilpotent
matrices

    A = [[-1, beta],  [-1/beta, 1]]      (lowering)
    B = [[-1, delta], [-1/delta, 1]]     (raising)

annihilate phi_0 = y (beta, 1) and, transposed, eta_0 = w (1, -delta);
the spectrum is eps = (0, -(beta - delta)^2 / (beta delta)) and
M = B A is cryptohermitian with respect to S_eta.  The constraint
y w (beta - delta) = 1 fixes the level-0 pairing; only the product is
physical, so (y, w) -> (t y, w/t) is a gauge move.

Chebyshev family: M is the N x N matrix with constant diagonal Z,
superdiagonal (2, 1, ..., 1) and unit subdiagonal, where
Z = -2 cos((N - 1/2) pi / N) > 0.  Its eigendata are values of
first-kind Chebyshev polynomials at the roots
x_n = -cos((n + 1/2) pi / N) of T_N:

    M   phi_n = eps_n phi_n,   phi_n ~ (T_0(x_n), ..., T_{N-1}(x_n))
    M^T eta_n = eps_n eta_n,   eta_n ~ (1/2, T_1(x_n), ..., T_{N-1}(x_n))
    eps_n = 2 x_n + Z

The raw diagonal pairings are <phi_n, eta_n> = N/2, so the default
normalization keeps eta raw and rescales phi by 2/N.  For sizes 2 and 3
``chebyshev_paper_normalization`` returns variants with specific
hand-picked constants whose frame operator S_eta matches the reference
matrices used in the golden tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .linalg import _TINY, as_matrix, default_tolerance, freeze
from .pseudoboson import BiorthogonalSystem, build_system

__all__ = [
    "ChebyshevSpec",
    "TwoParamSpec",
    "biorthonormalize",
    "chebyshev_model",
    "chebyshev_nodes",
    "chebyshev_paper_normalization",
    "two_param_model",
]

def chebyshev_nodes(n: int) -> np.ndarray:
    """Roots of T_n in ascending order: x_j = -cos((j + 1/2) pi / n)."""
    if n < 1:
        raise ValidationError(f"chebyshev_nodes: n must be >= 1, got {n}")
    return -np.cos((np.arange(n) + 0.5) * np.pi / n)


@dataclass(frozen=True)
class ChebyshevSpec:
    """Size of the Chebyshev family and its shift Z = -2 cos((N - 1/2) pi / N) > 0."""

    n: int
    z: float = field(init=False)

    def __post_init__(self):
        try:
            n = int(self.n)
        except (TypeError, ValueError):
            raise ValidationError(f"chebyshev family: size must be an integer, got {self.n!r}") from None
        if n != self.n or n < 2:
            raise ValidationError(f"chebyshev family: size must be an integer >= 2, got {self.n!r}")
        freeze(self, n=n, z=float(-2.0 * np.cos((n - 0.5) * np.pi / n)))


@dataclass(frozen=True)
class TwoParamSpec:
    """Parameters of the 2x2 family with the pairing gauge resolved."""

    beta: float
    delta: float
    y: float = None
    w: float = None

    def __post_init__(self):
        beta = float(self.beta)
        delta = float(self.delta)
        if not (math.isfinite(beta) and math.isfinite(delta)):
            raise ValidationError("two-param family: beta and delta must be finite")
        if beta == delta:
            raise ValidationError("two-param family: beta equals delta")
        if beta == 0.0 or delta == 0.0:
            raise ValidationError("two-param family: beta and delta must be nonzero")
        if beta * delta >= 0.0:
            raise ValidationError(
                "two-param family: beta*delta must be negative so that "
                "eps[1] = -(beta-delta)^2/(beta*delta) is positive"
            )
        y, w = self.y, self.w
        if y is None and w is None:
            if beta > delta:
                y = w = 1.0 / math.sqrt(beta - delta)
            else:
                y = 1.0 / math.sqrt(delta - beta)
                w = -y
        elif y is None:
            w = float(w)
            if w == 0.0:
                raise ValidationError("two-param family: y and w must be finite and nonzero")
            y = 1.0 / (w * (beta - delta))
        elif w is None:
            y = float(y)
            if y == 0.0:
                raise ValidationError("two-param family: y and w must be finite and nonzero")
            w = 1.0 / (y * (beta - delta))
        y = float(y)
        w = float(w)
        if not (math.isfinite(y) and math.isfinite(w)):
            raise ValidationError("two-param family: y and w must be finite and nonzero")
        if not abs(y * w * (beta - delta) - 1.0) <= 1e-12:
            raise ValidationError(
                f"two-param family: y*w*(beta-delta) must equal 1, got {y * w * (beta - delta)!r}"
            )
        freeze(self, beta=beta, delta=delta, y=y, w=w)

    @property
    def eps1(self) -> float:
        return -((self.beta - self.delta) ** 2) / (self.beta * self.delta)


def two_param_model(beta, delta, y=None, w=None):
    """(A, B, system) for the two-parameter family.

    A and B double as the system's ladder pair: applying
    ``build_ladders`` to the returned system reproduces them.
    """
    spec = TwoParamSpec(beta, delta, y, w)
    beta, delta, y, w = spec.beta, spec.delta, spec.y, spec.w
    a_mat = np.array([[-1.0, beta], [-1.0 / beta, 1.0]])
    b_mat = np.array([[-1.0, delta], [-1.0 / delta, 1.0]])
    eps1 = spec.eps1
    root = math.sqrt(eps1)
    phi0 = y * np.array([beta, 1.0])
    eta0 = w * np.array([1.0, -delta])
    phi1 = (b_mat @ phi0) / root
    eta1 = (a_mat.T @ eta0) / root
    sys = build_system(
        np.array([phi0, phi1]), np.array([eta0, eta1]), np.array([0.0, eps1])
    )
    return a_mat, b_mat, sys


def biorthonormalize(phi_raw, eta_raw):
    """Scale phi rows by 1 / <eta_n, phi_raw_n>; eta rows pass through.

    Off-diagonal pairings must already vanish (within default_tolerance(N),
    relative to the largest pairing); a vanishing diagonal pairing means
    the input cannot be biorthonormalized.
    """
    phi_raw = as_matrix(phi_raw, "phi_raw")
    eta_raw = as_matrix(eta_raw, "eta_raw")
    if phi_raw.shape != eta_raw.shape or phi_raw.shape[0] != phi_raw.shape[1]:
        raise ValidationError(
            f"biorthonormalize: need matching square row stacks, got {phi_raw.shape} and {eta_raw.shape}"
        )
    n = phi_raw.shape[0]
    gram = phi_raw @ eta_raw.T
    diag = np.diag(gram).copy()
    scale = np.maximum(np.linalg.norm(phi_raw, axis=1) * np.linalg.norm(eta_raw, axis=1), _TINY)
    vanishing = np.abs(diag) <= 1e-12 * scale
    if np.any(vanishing):
        raise ValidationError(
            f"biorthonormalize: vanishing diagonal pairing at level {int(np.argmax(vanishing))}"
        )
    off = float(np.abs(gram - np.diag(diag)).max()) if n > 1 else 0.0
    if off > default_tolerance(n) * max(1.0, float(np.abs(diag).max())):
        raise ValidationError(f"biorthonormalize: off-diagonal pairing {off:.3e} is not negligible")
    return phi_raw / diag[:, None], eta_raw.copy()


def _chebyshev_rows(count: int, x: np.ndarray) -> np.ndarray:
    """Rows (T_0(x_i), ..., T_{count-1}(x_i)) by the recurrence."""
    rows = np.empty((x.shape[0], count))
    rows[:, 0] = 1.0
    if count > 1:
        rows[:, 1] = x
        for k in range(2, count):
            rows[:, k] = 2.0 * x * rows[:, k - 1] - rows[:, k - 2]
    return rows


def chebyshev_model(n: int):
    """(M, system) for the Chebyshev family of size n >= 2.

    eps is computed as (2 x + Z) minus its first entry, which pins
    eps[0] to exactly 0 in floating point.
    """
    spec = ChebyshevSpec(n)
    n = spec.n
    z = spec.z
    x = chebyshev_nodes(n)
    m = np.diag(np.full(n, z))
    m += np.diag(np.r_[2.0, np.ones(n - 2)], 1)
    m += np.diag(np.ones(n - 1), -1)
    phi_raw = _chebyshev_rows(n, x)
    eta_raw = phi_raw.copy()
    eta_raw[:, 0] = 0.5
    phi, eta = biorthonormalize(phi_raw, eta_raw)
    eps = 2.0 * x + z
    eps = eps - eps[0]
    sys = build_system(phi, eta, eps)
    return m, sys


def chebyshev_paper_normalization(n: int) -> BiorthogonalSystem:
    """Size-2 and size-3 systems with the hand-picked normalization
    constants behind the reference frame operators."""
    s2 = math.sqrt(2.0)
    s3 = math.sqrt(3.0)
    if n == 2:
        phi = np.array([[1.0 / s2, -0.5], [1.0, 1.0 / s2]])
        eta = np.array([[1.0 / s2, -1.0], [0.5, 1.0 / s2]])
        eps = np.array([0.0, 2.0 * s2])
    elif n == 3:
        phi = np.array(
            [
                [1.0 / 3.0, -s3 / 6.0, 1.0 / 6.0],
                [1.0 / 3.0, 0.0, -1.0 / 3.0],
                [1.0 / 3.0, s3 / 6.0, 1.0 / 6.0],
            ]
        )
        eta = np.array([[1.0, -s3, 1.0], [1.0, 0.0, -2.0], [1.0, s3, 1.0]])
        eps = np.array([0.0, s3, 2.0 * s3])
    else:
        raise ValidationError("explicit normalization constants are built in only for sizes 2 and 3")
    return build_system(phi, eta, eps)
