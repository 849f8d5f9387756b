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

The Jacobi oracle (``index_jacobi``) integrates Y = [J; J'] by fixed-step
classical RK4 as one batched product of 2n x 2n transfer matrices, from
V'' sampled once by one transform, and reads every zero of det J and its
rank drop off a cubic Hermite model of J between nodes, so nothing is
integrated twice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import HessianBlocks, schur_matrix, single_blas_thread
from .fourier import BoundaryProblem, SineGrid, SinePath

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


@single_blas_thread
def index_schur(blocks: HessianBlocks) -> IndexReport:
    """Index/nullity from the reduced Hessian; equals the full count when D > 0."""
    return _signature(reduced_hessian(blocks), "schur")


@single_blas_thread
def index_full(blocks: HessianBlocks) -> IndexReport:
    """Index/nullity of the full truncated matrix [[A, B], [B^T, D]]."""
    return _signature(blocks.full(), "full_matrix")


@single_blas_thread
def index_jacobi(bp: BoundaryProblem, c: SinePath,
                 steps: int = JACOBI_DEFAULT_STEPS) -> IndexReport:
    """Count conjugate points along the path by integrating the variation ODE.

    The state Y = [J; J'] obeys Y' = A(t) Y with A = [[0, I], [-V''(t), 0]],
    so one classical RK4 step of size h = T / steps is multiplication by a
    fixed 2n x 2n matrix (``_step_matrices``), built from V'' sampled once on
    the RK4 half-grid (``_half_grid_path``) and applied in blocks from
    Y(0) = [0; I] (``_propagate``).  Between nodes J is the cubic Hermite
    interpolant of the node states (``_hermite_cubic``), as accurate as the
    RK4 nodes themselves.  Zeros of det J in (0, T) are located on it: each
    sign change between nodes by 40 bisection steps on the cubic's
    coefficients, and each near-zero dip of |det J| at the vertex of the
    parabola through three nodes (vertex below 1e-6 max |det J|).  Sign
    changes lie in distinct steps, so each counts as its own zero however
    close to the next; a dip closer than 1.5 h to a counted zero merges
    into it.  Each zero is weighted by the rank drop of the interpolated J
    there (singular values below 1e-7 max ||J||).  Zeros within 0.75 h of
    T are left to the endpoint check: a singular J(T) is reported as
    nullity.  A path whose components or horizon differ from the
    problem's is a ValueError.
    """
    points, end_sv, J_scale = _conjugate_points(bp, c, steps)
    margin = float(end_sv[-1] / J_scale) if J_scale > 0.0 else np.inf
    return IndexReport(sum(mult for _, mult in points), int(_rank_drop(end_sv, J_scale)),
                       "jacobi_oracle", margin)


def _conjugate_points(bp: BoundaryProblem, c: SinePath, steps: int):
    """Interior conjugate points as (time, multiplicity) pairs in time order,
    the singular values of J(T) and the size scale max ||J|| of J."""
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 2:
        raise ValueError(f"steps must be an integer >= 2, got {steps!r}")
    bp.check_path(c)
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

    i = np.arange(1, steps)
    k = i[(dets[i] == 0.0) | (dets[i] * dets[i + 1] < 0.0)]
    # bisection on s in [0, 1] for det J(t_k + s h) = 0, all sign changes at once;
    # a zero at a node (dets[k] == 0) is kept at s = 0
    cubic, left_det = _hermite_cubic(Y, k, h), dets[k]
    lo, hi = np.zeros(k.size), np.ones(k.size)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        left = left_det * np.linalg.det(_horner(cubic, mid)) <= 0.0
        lo, hi = np.where(left, lo, mid), np.where(left, mid, hi)
    candidates = [(k + 0.5 * (lo + hi)) * h]
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
        candidates.append(i[dip] * h + np.clip(shift[dip], -h, h))

    times = np.concatenate(candidates)
    crossing = np.arange(times.size) < len(candidates[0])
    keep = times <= T - 0.75 * h  # later zeros belong to the endpoint check
    times, crossing = times[keep], crossing[keep]
    k = np.minimum(np.floor(times / h).astype(int), steps - 1)
    # one SVD call for J at every candidate and at T
    J_times = _horner(_hermite_cubic(Y, k, h), times / h - k)
    sv = np.linalg.svd(np.concatenate([J_times, Js[-1:]]), compute_uv=False)
    mult = _rank_drop(sv[:-1], J_scale)
    zero, touch = crossing & (mult > 0), ~crossing & (mult > 0)
    # each sign change lies in its own step, so it is its own zero; a touch
    # closer than 1.5 h to a counted zero is that zero seen again
    points = list(zip(times[zero].tolist(), mult[zero].tolist()))
    for t_star, m in zip(times[touch].tolist(), mult[touch].tolist()):
        if all(abs(t_star - t) >= 1.5 * h for t, _ in points):
            points.append((t_star, m))
    return sorted(points), sv[-1], J_scale


def _hermite_cubic(Y: np.ndarray, k: np.ndarray, h: float) -> np.ndarray:
    """Coefficients (c0, c1, c2, c3), shape (4, len(k), n, n), of the cubic
    Hermite model J(t_k + s h) = ((c3 s + c2) s + c1) s + c0 that matches the
    node states Y[k] = [J_k; J'_k] and Y[k + 1] at s = 0 and s = 1."""
    n = Y.shape[-1]
    a, b = Y[k], Y[k + 1]
    J0, dJ0, J1, dJ1 = a[:, :n], h * a[:, n:], b[:, :n], h * b[:, n:]
    jump = J1 - J0
    return np.stack([J0, dJ0, 3.0 * jump - 2.0 * dJ0 - dJ1, dJ0 + dJ1 - 2.0 * jump])


def _horner(cubic: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The cubic model at s (one value per model), shape (len(s), n, n)."""
    s = s[:, None, None]
    return ((cubic[3] * s + cubic[2]) * s + cubic[1]) * s + cubic[0]


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
    """States Y_0 = Y0, Y_{i+1} = Phi_i Y_i, shape (len(Phi) + 1, 2n, n).

    The steps are cut into blocks of L = ceil(sqrt(steps)).  The transfer
    product of every full block is built by L - 1 matmuls batched over the
    blocks, the block-start states Y_{bL} by one small product per block,
    and the states inside the blocks by L - 1 matmuls batched over the
    blocks, each stepping from its block-start state; a last, partial block
    is only stepped through.  So it takes about 3 sqrt(steps) numpy calls,
    and each state is computed once.  The states inside a block are rounded
    as in stepping one by one from Y_{bL}; a block-start state is the block
    product applied to the previous block start, which rounds differently
    from stepping, so the states agree with stepping in sequence only up to
    rounding that accumulates over the blocks.
    """
    steps = Phi.shape[0]
    L = max(1, int(np.ceil(np.sqrt(steps))))
    full = steps // L
    Y = np.empty((steps + 1,) + Y0.shape)
    Y[0] = Y0
    blocks = Phi[:full * L].reshape((full, L) + Phi.shape[1:])
    product = blocks[:, 0]
    for j in range(1, L):
        product = blocks[:, j] @ product
    for b in range(full):
        np.matmul(product[b], Y[b * L], out=Y[(b + 1) * L])
    for j in range(L - 1):
        count = len(range(j, steps, L))
        Y[j + 1::L][:count] = Phi[j::L] @ Y[j::L][:count]
    return Y


def _rank_drop(sv: np.ndarray, scale: float) -> np.ndarray:
    """Singular values below JACOBI_RANK_TOL scale, counted along the last axis."""
    return np.sum(sv < JACOBI_RANK_TOL * scale, axis=-1)
