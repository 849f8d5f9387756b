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
V'' sampled once by one transform, and counts conjugate points as the
winding of det(k J + iJ') over the nodes (k^2 bounds V''), the Maslov
index against the vertical Lagrangian: no zero of det J is searched for,
and a conjugate endpoint (an angle within JACOBI_ANGLE_TOL) is nullity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import HessianBlocks, schur_matrix, single_blas_thread
from .fourier import BoundaryProblem, SineGrid, SinePath

__all__ = ["IndexReport", "reduced_hessian", "index_schur", "index_full", "index_jacobi"]

NULL_THRESHOLD_SCALE = 1e-8
JACOBI_ANGLE_TOL = 1e-7
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
    """The signature of the symmetric part of matrix; a bitwise symmetric matrix
    is its own symmetric part, bit for bit, so it goes to eigvalsh as it is."""
    if matrix.shape[0] == 0:
        return IndexReport(0, 0, method, np.inf)
    if not _bitwise_symmetric(matrix):
        matrix = 0.5 * (matrix + matrix.T)
    eigs = np.linalg.eigvalsh(matrix)
    theta = NULL_THRESHOLD_SCALE * (1.0 + float(np.max(np.abs(eigs), initial=0.0)))
    index = int(np.sum(eigs < -theta))
    nullity = int(np.sum(np.abs(eigs) <= theta))
    return IndexReport(index, nullity, method, float(np.min(np.abs(eigs))))


def _bitwise_symmetric(matrix: np.ndarray) -> bool:
    """Whether matrix equals its transpose bit for bit (signed zeros and NaNs included)."""
    bits = matrix.view(np.uint64) if matrix.dtype == np.float64 else matrix
    return bool(np.array_equal(bits, bits.T))


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
    """Count conjugate points along the path by the winding of det(k J + iJ').

    The state Y = [J; J'] obeys Y' = A(t) Y with A = [[0, I], [-V''(t), 0]],
    so one classical RK4 step of size h = T / steps is multiplication by a
    fixed 2n x 2n matrix (``_step_matrices``), built from V'' sampled once on
    the RK4 half-grid (``_half_grid_path``) and applied in blocks from
    Y(0) = [0; I] (``_propagate``).

    The columns of Y, and so those of [X; J'] with X = k J, where
    k^2 = max(1, greatest row sum of |V''|), span Lagrangian planes that
    meet the vertical one at the same times.  U = (X + iJ')(X - iJ')^{-1}
    is unitary, and J v = 0 exactly when -1 is an eigenvalue of U.  Write
    its eigenvalues as -exp(-i phi_k).  At t = 0 every phi_k is 0, and a
    conjugate time is a phi_k passing a multiple of 2 pi.  The sum
    Psi = sum phi_k = n pi - 2 arg det(X + iJ') is read at every node,
    unwrapped from the first step, where it takes its small positive
    branch.  The Legendre condition (the kinetic term is the identity)
    makes every passage upward (Duistermaat 1976; Robbin and Salamon
    1993), so each conjugate point counts once with its multiplicity,
    however close to the next and whether or not det J changes sign.  At T the phases mod 2 pi are
    r_k = 2 atan(w_k), w_k the eigenvalues of the symmetric X(T) J'(T)^{-1},
    and the index is (Psi(T) - sum r_k) / 2 pi, rounded.  A phase within
    JACOBI_ANGLE_TOL of 0 mod 2 pi is a conjugate endpoint: it counts as
    nullity, and as not yet passed (r_k + 2 pi when r_k is just above 0).
    The margin ``min_abs_eigenvalue`` is the least angle between an
    eigenvalue of U(T) and -1.  The unwrap needs Psi to turn by less than
    pi per step: as k^2 bounds V'', each phi_k turns by at most 2 k h, so
    n k h < pi / 2 (4n steps per period 2 pi / k) suffices.  A path whose
    components or horizon differ from the problem's is a ValueError.
    """
    return _winding_count(_jacobi_states(bp, c, steps))


def _jacobi_states(bp: BoundaryProblem, c: SinePath, steps: int) -> np.ndarray:
    """States Y_i = [k J; J'](i T / steps), shape (steps + 1, 2n, n)."""
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 2:
        raise ValueError(f"steps must be an integer >= 2, got {steps!r}")
    bp.check_path(c)
    steps, n = int(steps), bp.n
    hess_half = bp.potential.hess(_half_grid_path(bp, c, steps))  # (2 steps + 1, n, n)
    Y = _propagate(_step_matrices(hess_half, bp.T / steps),
                   np.vstack([np.zeros((n, n)), np.eye(n)]))  # from [J(0); J'(0)]
    Y[:, :n] *= np.sqrt(max(1.0, float(np.max(np.abs(hess_half).sum(axis=-1)))))
    return Y


def _winding_count(Y: np.ndarray) -> IndexReport:
    """Conjugate points in (0, T) and at T from the node states Y = [k J; J']."""
    n = Y.shape[-1]
    J, dJ = Y[1:, :n], Y[1:, n:]
    psi = np.unwrap(n * np.pi - 2.0 * np.angle(np.linalg.det(J + 1j * dJ)))
    psi_T = psi[-1] - 2.0 * np.pi * np.round(psi[0] / (2.0 * np.pi))
    # eigvalsh reads the lower triangle of (k J J'^{-1})^T, symmetric on a Lagrangian frame
    r = np.mod(2.0 * np.arctan(np.linalg.eigvalsh(np.linalg.solve(dJ[-1].T, J[-1].T))),
               2.0 * np.pi)
    gap = np.minimum(r, 2.0 * np.pi - r)
    null = gap <= JACOBI_ANGLE_TOL
    r = np.where(null & (r < np.pi), r + 2.0 * np.pi, r)
    index = int(np.round((psi_T - np.sum(r)) / (2.0 * np.pi)))
    return IndexReport(index, int(np.sum(null)), "jacobi_oracle", float(np.min(gap)))


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

