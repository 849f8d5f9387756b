"""Sine-basis representation of paths vanishing at both endpoints.

Basis functions are phi_k(t) = sqrt(2/T) sin(k pi t / T), orthonormal in
L^2([0, T]).  A path c(t) = sum_k c^(k) phi_k(t) then satisfies

    ||c||_{L2}^2  = sum_k |c^(k)|^2
    ||c||_{H10}^2 = int |c'|^2 = sum_k (pi k / T)^2 |c^(k)|^2

Grid transforms use the type-I discrete sine transform on the interior
nodes t_j = j T / (P+1), j = 1..P, which is exactly orthogonal for modes
k <= P; the default anti-aliasing rule P >= 2M+1 keeps products of two
band-limited factors alias-free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dst

from .potentials import Potential

__all__ = [
    "SinePath",
    "BoundaryProblem",
    "zero_path",
    "path_from_coeffs",
    "grid_points",
    "mode_eigenvalues",
    "affine_embed",
    "sample_on_grid",
    "analyze_on_grid",
    "project_head",
    "project_tail",
    "affine_coeffs",
    "h1_inner",
    "l2_inner",
]


@dataclass(frozen=True)
class SinePath:
    """Immutable path in the sine basis: ``coeffs[k-1]`` is c^(k) in R^n."""

    T: float
    coeffs: np.ndarray  # shape (M, n)

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError(f"time horizon must be positive, got {self.T}")
        coeffs = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def M(self) -> int:
        return self.coeffs.shape[0]

    @property
    def n(self) -> int:
        return self.coeffs.shape[1]

    def evaluate(self, ts) -> np.ndarray:
        """Values c(t) by direct sine synthesis; ts scalar or array."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        k = np.arange(1, self.M + 1)
        basis = np.sqrt(2.0 / self.T) * np.sin(np.outer(ts, k) * np.pi / self.T)
        return basis @ self.coeffs

    def h1_norm(self) -> float:
        return float(np.sqrt(np.sum(mode_eigenvalues(self.T, self.M)[:, None] * self.coeffs ** 2)))

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


def zero_path(T: float, M: int, n: int) -> SinePath:
    return SinePath(T, np.zeros((M, n)))


def path_from_coeffs(T: float, coeffs: np.ndarray) -> SinePath:
    return SinePath(T, np.array(coeffs, dtype=float))


@dataclass(frozen=True)
class BoundaryProblem:
    """Fixed-endpoint problem data: travel from q0 to qT in time T."""

    potential: Potential
    T: float
    q0: np.ndarray
    qT: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.T):
            raise ValueError(f"time horizon T must be finite, got {self.T}")
        if self.T <= 0:
            raise ValueError(f"time horizon must be positive, got {self.T}")
        q0 = np.atleast_1d(np.asarray(self.q0, dtype=float))
        qT = np.atleast_1d(np.asarray(self.qT, dtype=float))
        n = self.potential.dim
        if q0.shape != (n,) or qT.shape != (n,):
            raise ValueError(
                f"endpoints must have shape ({n},), got {q0.shape} and {qT.shape}")
        for name, value in (("q0", q0), ("qT", qT)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"endpoint {name} must be finite, got {value.tolist()}")
        q0.flags.writeable = False
        qT.flags.writeable = False
        object.__setattr__(self, "q0", q0)
        object.__setattr__(self, "qT", qT)

    @property
    def n(self) -> int:
        return self.potential.dim

    def drift(self, ts) -> np.ndarray:
        """Straight-line part q0 + (qT - q0) t / T, shape (len(ts), n)."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        return self.q0[None, :] + np.outer(ts / self.T, self.qT - self.q0)


def grid_points(T: float, P: int) -> np.ndarray:
    """Interior collocation nodes t_j = j T/(P+1), j = 1..P."""
    return np.arange(1, P + 1) * (T / (P + 1))


def mode_eigenvalues(T: float, M: int) -> np.ndarray:
    """Stiffness (pi k / T)^2 of modes k = 1..M."""
    k = np.arange(1, M + 1)
    return (np.pi * k / T) ** 2


def affine_embed(bp: BoundaryProblem, c: SinePath, t) -> np.ndarray:
    """Path value q0 + (qT - q0) t/T + c(t); t must lie in [0, T]."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts < 0) or np.any(ts > bp.T):
        raise ValueError(f"time must lie in [0, {bp.T}]")
    out = bp.drift(ts) + c.evaluate(ts)
    return out[0] if np.isscalar(t) or np.ndim(t) == 0 else out


def sample_on_grid(c: SinePath, P: int) -> np.ndarray:
    """Values of c at the P interior nodes; requires P >= 2M+1."""
    if P < 2 * c.M + 1:
        raise ValueError(f"anti-aliasing rule requires P >= 2M+1 = {2 * c.M + 1}, got {P}")
    return synthesize_coeffs(c.coeffs, P, c.T)


def analyze_on_grid(values: np.ndarray, T: float, M: int) -> SinePath:
    """First M sine coefficients of grid values (inverse of sample_on_grid)."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.ndim != 2:
        raise ValueError(f"values must be a (P, n) array, got shape {values.shape}")
    P = values.shape[0]
    if P < 2 * M + 1:
        raise ValueError(f"anti-aliasing rule requires P >= 2M+1 = {2 * M + 1}, got {P}")
    return SinePath(T, analyze_values(values, T, M))


def synthesize_coeffs(coeffs: np.ndarray, P: int, T: float) -> np.ndarray:
    """Raw synthesis: (M, n) coefficients -> values on the P interior nodes."""
    # DST-I of zero-padded coefficients; see module docstring for scaling
    M, n = coeffs.shape
    pad = np.zeros((P, n))
    pad[:M] = coeffs
    return 0.5 * np.sqrt(2.0 / T) * dst(pad, type=1, axis=0)


def analyze_values(values: np.ndarray, T: float, M: int) -> np.ndarray:
    """Raw analysis: values on P interior nodes -> first M coefficients."""
    P = values.shape[0]
    full = dst(values, type=1, axis=0) * (np.sqrt(2.0 * T) / (2.0 * (P + 1)))
    return full[:M]


def project_head(c: SinePath, N: int) -> SinePath:
    """Keep modes 1..N, zero the rest."""
    if not 0 <= N <= c.M:
        raise ValueError(f"cutoff must satisfy 0 <= N <= M = {c.M}, got {N}")
    out = np.array(c.coeffs)
    out[N:] = 0.0
    return SinePath(c.T, out)


def project_tail(c: SinePath, N: int) -> SinePath:
    """Keep modes N+1..M, zero the rest; complements project_head."""
    if not 0 <= N <= c.M:
        raise ValueError(f"cutoff must satisfy 0 <= N <= M = {c.M}, got {N}")
    out = np.array(c.coeffs)
    out[:N] = 0.0
    return SinePath(c.T, out)


def affine_coeffs(T: float, M: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact sine coefficients of the affine path t -> a + b t, shape (M, n).

    Used to keep slowly decaying boundary contributions out of the grid
    transforms (the affine part of any sampled nonlinearity is subtracted
    before the DST and re-added here in closed form).
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    k = np.arange(1, M + 1, dtype=float)
    sign = np.where(k.astype(int) % 2 == 0, 1.0, -1.0)  # (-1)^k
    base = np.sqrt(2.0 * T) / (k * np.pi)
    return base[:, None] * (a[None, :] * (1.0 - sign[:, None]) - b[None, :] * T * sign[:, None])


def h1_inner(c1: SinePath, c2: SinePath) -> float:
    _check_compatible(c1, c2)
    eig = mode_eigenvalues(c1.T, c1.M)
    return float(np.sum(eig[:, None] * c1.coeffs * c2.coeffs))


def l2_inner(c1: SinePath, c2: SinePath) -> float:
    _check_compatible(c1, c2)
    return float(np.sum(c1.coeffs * c2.coeffs))


def _check_compatible(c1: SinePath, c2: SinePath) -> None:
    if c1.coeffs.shape != c2.coeffs.shape or c1.T != c2.T:
        raise ValueError("paths must share the same horizon, truncation and dimension")
