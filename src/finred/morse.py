"""Morse index and nullity of stationary paths, three independent ways.

* ``index_schur``  -- signature of the reduced Hessian A - B D^{-1} B^T;
  valid whenever the tail block D is positive definite, in which case it
  equals the index of the full operator.
* ``index_full``   -- signature of the whole truncated matrix
  [[A, B], [B^T, D]]; the linear-algebra cross-check.
* ``index_jacobi`` -- conjugate points of the second-variation ODE
  J'' = -V''(path(t)) J, J(0) = 0, J'(0) = I, counted with multiplicity;
  the differential-equations cross-check for mechanical problems.

Eigenvalues within theta = 1e-8 (1 + ||matrix||) of zero count as null;
degenerate cases are flagged through a positive nullity rather than
silently classified.

The Jacobi oracle integrates Y = [J; J'] with fixed-step classical RK4.
Because Y' = A(t) Y is linear, each step is one 2n x 2n transfer matrix
built from V'' at the step's start, midpoint and end; all of them are
built in one batched pass and applied in sequence.  The RK4 half-grid
t_j = j T / (2 steps) is the DST-I grid with P + 1 = 2 steps, so the path
is sampled there by one transform (on a grid r times finer when the path
has M >= steps modes).  Conjugate times are then refined by a fixed
40-step bisection and counted by the rank drop of J (singular values below
JACOBI_RANK_TOL max ||J||).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import schur_matrix
from .fourier import BoundaryProblem, SineGrid, SinePath
from .functional import HessianBlocks

__all__ = ["IndexReport", "reduced_hessian", "index_schur", "index_full", "index_jacobi"]

NULL_THRESHOLD_SCALE = 1e-8
JACOBI_RANK_TOL = 1e-7
JACOBI_DEFAULT_STEPS = 2048


@dataclass(frozen=True)
class IndexReport:
    index: int
    nullity: int
    method: str  # 'schur' | 'full_matrix' | 'jacobi_oracle'
    min_abs_eigenvalue: float  # degeneracy margin


def reduced_hessian(blocks: HessianBlocks) -> np.ndarray:
    """Schur complement A - B D^{-1} B^T via Cholesky of the tail block."""
    return schur_matrix(blocks.A, blocks.B, blocks.D)


def _signature(matrix: np.ndarray, method: str) -> IndexReport:
    if matrix.shape[0] == 0:
        return IndexReport(0, 0, method, np.inf)
    eigs = np.linalg.eigvalsh(0.5 * (matrix + matrix.T))
    theta = NULL_THRESHOLD_SCALE * (1.0 + float(np.max(np.abs(eigs), initial=0.0)))
    index = int(np.sum(eigs < -theta))
    nullity = int(np.sum(np.abs(eigs) <= theta))
    return IndexReport(index, nullity, method, float(np.min(np.abs(eigs))))


def index_schur(blocks: HessianBlocks) -> IndexReport:
    """Index/nullity from the reduced Hessian; equals the full count when D > 0."""
    return _signature(reduced_hessian(blocks), "schur")


def index_full(blocks: HessianBlocks) -> IndexReport:
    """Index/nullity of the full truncated matrix [[A, B], [B^T, D]]."""
    return _signature(blocks.full(), "full_matrix")


def index_jacobi(bp: BoundaryProblem, c: SinePath,
                 steps: int = JACOBI_DEFAULT_STEPS) -> IndexReport:
    """Count conjugate points along the path by integrating the variation ODE.

    The state Y = [J; J'] obeys the linear ODE Y' = A(t) Y with
    A = [[0, I], [-V''(t), 0]], so one classical RK4 step of size
    h = T / steps is multiplication by a fixed 2n x 2n matrix (see
    ``_step_matrices``).  All ``steps`` matrices are built at once from V''
    on the RK4 half-grid t_j = j T / (2 steps); that grid is the DST-I grid
    with P + 1 = 2 steps, so the path is sampled by one transform (see
    ``_half_grid_path``).  The matrices are applied in sequence from
    Y(0) = [0; I], and det J is taken at every node at once.

    Zeros of det J in (0, T) are located from sign changes plus near-zero
    dips of |det J| (parabola vertex below 1e-6 max |det J|), refined by
    40 bisection steps, merged when closer than 1.5 h, and weighted by the
    rank drop of J there (singular values below 1e-7 max ||J||).  Zeros
    within 0.75 h of T are left to the endpoint check: a singular J(T) is
    reported as nullity.
    """
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 2:
        raise ValueError(f"steps must be an integer >= 2, got {steps!r}")
    steps = int(steps)
    n, T = bp.n, bp.T
    h = T / steps
    hess_half = bp.potential.hess(_half_grid_path(bp, c, steps))  # (2 steps + 1, n, n)
    Y0 = np.vstack([np.zeros((n, n)), np.eye(n)])  # [J(0); J'(0)]
    Y = _propagate(_step_matrices(hess_half, h), Y0)
    Js = Y[:, :n]

    dets = np.linalg.det(Js)
    det_scale = float(np.max(np.abs(dets)))
    # size scale of J along the whole trajectory; rank drops are relative to it
    J_scale = float(np.max(np.linalg.norm(Js, axis=(1, 2))))

    crossings: list[float] = []
    i = np.arange(1, steps)
    sign_change = (dets[i] == 0.0) | (dets[i] * dets[i + 1] < 0.0)
    for k in i[sign_change].tolist():
        crossings.append(_bisect_zero(bp, c, Y[k], k * h, (k + 1) * h, dets[k]))
    # even-order touches: interior dips of |det| without sign change.  The
    # grid may straddle the touch, so candidacy is judged on the vertex of
    # the parabola through the three samples; the rank test downstream is
    # what actually confirms a conjugate point.
    if det_scale > 0.0:
        i = np.arange(2, steps - 1)
        prev, cur, nxt = dets[i - 1], dets[i], dets[i + 1]
        dip = ((np.abs(cur) <= np.abs(prev)) & (np.abs(cur) < np.abs(nxt))
               & (prev * cur > 0.0) & (cur * nxt > 0.0))
        denom = nxt - 2.0 * cur + prev
        flat = denom == 0.0
        safe = np.where(flat, 1.0, denom)
        shift = np.where(flat, 0.0, -0.5 * h * (nxt - prev) / safe)
        vertex = np.where(flat, cur, cur - (nxt - prev) ** 2 / (8.0 * safe))
        dip &= np.abs(vertex) < 1e-6 * det_scale
        crossings.extend((i[dip] * h + np.clip(shift[dip], -h, h)).tolist())

    total = 0
    counted: list[float] = []
    for t_star in sorted(crossings):
        if counted and t_star - counted[-1] < 1.5 * h:
            continue
        if t_star > T - 0.75 * h:  # belongs to the endpoint check below
            continue
        i0 = min(max(int(np.floor(t_star / h + 1e-12)), 0), steps - 1)
        mult = _rank_drop(_integrate_to(bp, c, Y[i0], i0 * h, t_star), J_scale)
        if mult > 0:
            total += mult
            counted.append(t_star)

    end_nullity = _rank_drop(Js[steps], J_scale)
    end_sv = np.linalg.svd(Js[steps], compute_uv=False)
    margin = float(end_sv[-1] / J_scale) if J_scale > 0.0 else np.inf
    return IndexReport(total, end_nullity, "jacobi_oracle", margin)


def _half_grid_path(bp: BoundaryProblem, c: SinePath, steps: int) -> np.ndarray:
    """Path at t_j = j T / (2 steps), j = 0..2 steps, shape (2 steps + 1, n).

    The interior nodes are every r-th node of the DST-I grid with
    P + 1 = 2 r steps, where r is the least factor whose grid holds the M
    modes (P >= 2M + 1); r = 1, the half-grid itself, unless M >= steps.
    """
    r = -(-(c.M + 1) // steps)
    P = 2 * r * steps - 1
    path = bp.drift(np.linspace(0.0, bp.T, 2 * steps + 1))
    path[1:-1] += SineGrid((c.T,), (c.M,), (P,), c.n).synthesize(c.coeffs)[r - 1::r]
    return path


def _step_matrices(hess: np.ndarray, h: float) -> np.ndarray:
    """RK4 transfer matrices of Y' = A(t) Y from V'' on a half-grid.

    ``hess`` holds V'' at the step ends and midpoints, shape
    (2 steps + 1, n, n); the result has shape (steps, 2n, 2n).  With A0,
    Am, A1 the values of A at a step's start, midpoint and end, one RK4
    step is Y -> Phi Y with

        Phi = I + h/6 (A0 + 4 Am + A1) + h^2/6 (Am A0 + Am^2 + A1 Am)
                + h^3/12 (Am^2 A0 + A1 Am^2) + h^4/24 A1 Am^2 A0.

    Written out in n x n blocks (A = [[0, I], [-H, 0]]), only the products
    Hm H0 and H1 Hm remain.
    """
    H0, Hm, H1 = hess[0:-1:2], hess[1::2], hess[2::2]
    n = hess.shape[-1]
    eye = np.eye(n)
    HmH0 = Hm @ H0
    H1Hm = H1 @ Hm
    Phi = np.empty((Hm.shape[0], 2 * n, 2 * n))
    Phi[:, :n, :n] = eye - (h * h / 6.0) * (H0 + 2.0 * Hm) + (h ** 4 / 24.0) * HmH0
    Phi[:, :n, n:] = h * eye - (h ** 3 / 6.0) * Hm
    Phi[:, n:, :n] = -(h / 6.0) * (H0 + 4.0 * Hm + H1) + (h ** 3 / 12.0) * (HmH0 + H1Hm)
    Phi[:, n:, n:] = eye - (h * h / 6.0) * (2.0 * Hm + H1) + (h ** 4 / 24.0) * H1Hm
    return Phi


def _propagate(Phi: np.ndarray, Y0: np.ndarray) -> np.ndarray:
    """States Y_0 = Y0, Y_{i+1} = Phi_i Y_i, shape (len(Phi) + 1, 2n, n)."""
    Y = np.empty((Phi.shape[0] + 1,) + Y0.shape)
    Y[0] = Y0
    for i in range(Phi.shape[0]):
        np.matmul(Phi[i], Y[i], out=Y[i + 1])
    return Y


def _integrate_to(bp: BoundaryProblem, c: SinePath, Y0: np.ndarray, t0: float, t1: float,
                  substeps: int = 8) -> np.ndarray:
    """J at an interior time t1, re-integrated from the stored state Y0 at t0."""
    n = bp.n
    if t1 <= t0:
        return Y0[:n]
    h = (t1 - t0) / substeps
    ts = t0 + h * np.arange(2 * substeps + 1) / 2.0
    hess = bp.potential.hess(bp.drift(ts) + c.evaluate(ts))
    return _propagate(_step_matrices(hess, h), Y0)[-1, :n]


def _bisect_zero(bp, c, Y0, t_lo, t_hi, det_lo, iterations: int = 40) -> float:
    lo, hi = t_lo, t_hi
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        det_mid = float(np.linalg.det(_integrate_to(bp, c, Y0, t_lo, mid)))
        if det_mid == 0.0:
            return mid
        if det_lo * det_mid < 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _rank_drop(J: np.ndarray, scale: float) -> int:
    sv = np.linalg.svd(J, compute_uv=False)
    if sv.size == 0 or scale <= 0.0:
        return 0
    return int(np.sum(sv < JACOBI_RANK_TOL * scale))
