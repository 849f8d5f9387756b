"""Internal Galerkin engine shared by the mechanical and Dirichlet pipelines.

A "system" exposes the diagonal stiffness of its stored modes plus the
sampled nonlinearity; everything downstream (tail contraction/Newton,
reduced Newton with the Schur-complement Jacobian, multistart) is written
against that surface.  Coefficient vectors are flat, head block first.
The surface is

    eigenvalues          flat diagonal stiffness, head block first
    n                    components per mode (1 for Dirichlet fields)
    vprime(c)            nonlinear_coeffs(c), the coefficients of V'
    residual(c)          eigenvalues * c - vprime(c)
    hessian_matrix(c)    diag(eigenvalues) - curvature_matrix(c)
    action(c)            value of the functional
    refined()            the same problem at a finer truncation
    embed(c)             the path or field that c stands for

GalerkinSystem defines all of it but ``refined`` and ``embed``, which each
subclass (MechanicalSystem, dirichlet.DirichletSystem) provides, with the
data it passes to ``GalerkinSystem.__init__``: the SineGrid (modes in flat
order), the potential, the eigenvalues, and V' of the boundary part on the
grid with its exact flat coefficients (taken out of the grid transform of
V' and added back exactly; ValueError unless both are finite); a path
adds its straight-line drift and the drift's kinetic energy
|qT - q0|^2 / 2T.  A field is the m-axis grid with one component and no
drift, and V'(0) is its boundary part of V'.  Grid values have shape
grid.P + (n,), so V' and V'' take them as they are, and one solve loop
(reduction.solve_system) serves both problem kinds.

Tables that depend on the geometry alone, a grid's per-axis cosine rows
(fourier.SineGrid, keyed by (K, P)) and the Gauss rules of ``action``
(``gauss_sine_rule``, keyed by (L, K)), are built once per process and
shared read-only by every system, in caches of TABLE_CACHE_SIZE entries.

The reduced function f(u) = L(u + v(u)) at one head u is one object,
``ReducedPoint``; every consumer of u + v(u), the gradient of f and its
Hessian (the Schur complement of the tail block) reads them from it.

Each system keeps a one-entry memo of the last state it evaluated: a
private read-only copy of c, its grid values, the coefficients of V'
(``vprime``) and the residual.  A call at a c with the same bit pattern
(so -0.0 is not 0.0, and a NaN matches itself) reuses them, so a repeated
``residual(c)`` does no work and ``hessian_matrix(c)`` after
``residual(c)`` synthesizes no grid values.  The arrays the memo hands out
are read-only and stay valid after the memo moves on; ``nonlinear_coeffs``
and ``curvature_matrix`` are the real work, done once per state.  One
state per system, so a system is not for concurrent use.

Certified early rejection.  The line search of ``reduced_newton`` solves
the tail at every trial head, only to compare the head residual with the
current one, hnorm.  Let C bound the spectral norm of V'' and lam_t be the
lowest tail eigenvalue, mu = 1 - C/lam_t > 0.  With P >= K grid points
per axis synthesis is an isometry and analysis a contraction of the
coefficient L2 norm, so |vprime(c) - vprime(c')|_2 <= C |c - c'|_2.  Hence
(1) the tail operator F(v) = eig_t v - vprime_t(u, v) is strongly monotone
in H1: <F(v) - F(w), v - w> >= |v - w|_H1^2 - C |v - w|_2^2
>= mu |v - w|_H1^2, so |v - v*|_H1 <= res(v) / mu with res the dual norm
``tail_residual_norm`` and v* the exact tail; and (2) the head residual
moves by |r_h(v) - r_h(v*)| <= C |v - v*|_2 <= C |v - v*|_H1 / sqrt(lam_t).
Together, | |r_h(v)| - |r_h(v*)| | <= kappa res(v), kappa = C/(mu sqrt(lam_t))
(``rejection_slope``).  A converged full tail solve stops at some v_f with
res(v_f) <= tol, so |r_h(v_f)| >= |r_h(v)| - kappa (res(v) + tol): once
that reaches hnorm at any iterate v, the trial would be rejected after the
full solve too, and ``solve_tail(reject=(hnorm, kappa))`` stops there.
So the screen changes no iterate, only the tail work, unless a full solve
would have run out of iterations short of tol.  It needs a certified C
(``reduction.solve_system`` passes one only for certified plans).

One BLAS thread.  The reduction leaves small dense kernels (the tail-block
Cholesky, the Schur complement, the signatures; D <= 380 on the
benchmark), which OpenBLAS's default of one thread per core makes slower
and leaves with last bits that depend on the thread count (measured in the
README, "Determinism").  So every numerical entry point
(``reduction.solve_system``, the three ``morse`` indices and the CLI's
solve and index commands) runs under ``single_blas_thread``.  On entry it
calls ``openblas_set_num_threads_local(1)`` (OpenBLAS >= 0.3.27) in the
OpenBLAS of numpy (matmul, eigvalsh) and of scipy (dpotrf, dpotrs); on
exit, normal or by an exception, it hands each the count its call
returned, in reverse order, so a library that both load ends at the
caller's count.  The setters are found once per process, on first entry,
by dlsym on the handles of the two extension modules (numpy's core and
``scipy.linalg._flapack``, which ``fourier.scipy_extension`` has
registered, so finding it runs no ``scipy.linalg`` package code); without
them (another BLAS, an older OpenBLAS) the pin does nothing.  The count is
thread-local only in OpenMP builds of OpenBLAS; the pthreads builds that
numpy and scipy wheels ship hold one count for the process, so scopes nest
by a process-wide depth: the first to enter sets the count and the last to
leave restores it, and other threads' BLAS calls run on one thread
meanwhile.
"""

from __future__ import annotations

import ctypes
import importlib
import logging
import math
import threading
from contextlib import ContextDecorator
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache

import numpy as np

from .fourier import (TABLE_CACHE_SIZE, BoundaryProblem, SineGrid, SinePath, affine_coeffs,
                      grid_points, mode_eigenvalues, scipy_extension, sine_table, tensor_values)

# the functions scipy.linalg.lapack exports, without scipy.linalg's __init__
_flapack = scipy_extension("scipy.linalg._flapack")
dpotrf, dpotrs = _flapack.dpotrf, _flapack.dpotrs

GAUSS_NODES_PER_PANEL = 8
GAUSS_MIN_PANELS = 16
# caps: the Newton or Picard steps of one tail solve, the step halvings of one line search
TAIL_NEWTON_STEPS = 50
TAIL_PICARD_STEPS = 5000
LINE_SEARCH_HALVINGS = 30
# the most Dirichlet modes, or mechanical coefficients M n and grid points, of one system
MODE_CAP = 100_000


def check_truncation(M: int, n: int, quad_points: int) -> None:
    """Reject a mechanical truncation with M n or quad_points above MODE_CAP."""
    if M * n > MODE_CAP or quad_points > MODE_CAP:
        raise ValueError(f"truncation M n = {M * n} with quad_points = {quad_points} "
                         f"is above the cap {MODE_CAP}")


class TruncationError(RuntimeError):
    """Tail curvature block failed to be positive definite: ``smallest`` is
    its smallest eigenvalue, and ``tail`` the TailStats of the tail solve it
    stopped (None when the block was not a tail solve's)."""

    tail = None

    def __init__(self, smallest: float):
        super().__init__(f"tail curvature block is not positive definite (smallest "
                         f"eigenvalue {smallest:.3e}); increase the cutoff or truncation")
        self.smallest = smallest


# ---------------------------------------------------------------------------
# one BLAS thread

log = logging.getLogger(__name__)

# extension modules linked to the OpenBLAS that numpy and scipy use
BLAS_HOSTS = ("numpy._core._multiarray_umath", "scipy.linalg._flapack")


@cache
def openblas_setters() -> tuple:
    """``openblas_set_num_threads_local`` of each host's OpenBLAS, found once.

    dlsym on a host's handle searches its dependencies, so the library's
    path is never needed; a host whose symbol is missing is left out."""
    setters, missing = [], []
    for name in BLAS_HOSTS:
        try:
            setter = ctypes.CDLL(importlib.import_module(name).__file__)[
                "openblas_set_num_threads_local"]
        except (ImportError, OSError, AttributeError) as exc:
            missing.append(f"{name}: {exc}")
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        setters.append(setter)
    if setters:
        log.debug("single BLAS thread pin holds %d OpenBLAS libraries", len(setters))
    else:
        log.debug("single BLAS thread pin found no OpenBLAS thread setter, so it does "
                  "nothing: %s", "; ".join(missing))
    return tuple(setters)


class BlasThreadPin(ContextDecorator):
    """Context manager and decorator: BLAS on one thread inside the scope.

    The first scope to enter sets every setter of ``find_setters()`` to 1
    and keeps the counts they return; the last to leave hands them back in
    reverse order, after a normal exit or an exception alike.
    """

    def __init__(self, find_setters):
        self._find_setters = find_setters
        self._lock = threading.Lock()
        self._depth = 0
        self._saved: list = []

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._saved = [(setter, setter(1)) for setter in self._find_setters()]
            self._depth += 1
        return self

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for setter, count in reversed(self._saved):
                    setter(count)
                self._saved = []
        return False


single_blas_thread = BlasThreadPin(openblas_setters)


@dataclass
class TailStats:
    method: str
    iterations: int = 0
    fallbacks: int = 0
    converged: bool = False
    rejected: bool = False  # stopped by the certified rejection test
    residuals: list = field(default_factory=list)
    increments: list = field(default_factory=list)  # H1 sizes of Picard steps


@dataclass(frozen=True)
class HessianBlocks:
    """Second-variation matrix partitioned at mode N into head/tail blocks.

    ``A`` is the head block (nN x nN), ``D`` the tail block, ``B`` couples
    head rows to tail columns; the full matrix is [[A, B], [B^T, D]].
    """

    N: int
    M: int
    n: int
    A: np.ndarray
    B: np.ndarray
    D: np.ndarray
    metric: str = "l2_coeff"  # 'l2_coeff' | 'h1_coeff'

    def full(self) -> np.ndarray:
        return np.block([[self.A, self.B], [self.B.T, self.D]])

    def to_h1(self, T: float) -> "HessianBlocks":
        """Congruence by the positive diagonal mapping to H1-orthonormal modes."""
        if self.metric == "h1_coeff":
            return self
        eig = np.repeat(mode_eigenvalues(T, self.M), self.n)
        scale = 1.0 / np.sqrt(eig)
        hd = self.N * self.n
        K = self.full() * scale[:, None] * scale[None, :]
        return HessianBlocks(self.N, self.M, self.n,
                             A=K[:hd, :hd], B=K[:hd, hd:], D=K[hd:, hd:],
                             metric="h1_coeff")


@dataclass
class ReducedResult:
    u: np.ndarray
    v: np.ndarray  # tail coefficients (flat, length D - head)
    converged: bool
    iterations: int
    head_residual: float
    tail_residual: float
    head_history: list
    tail_iterations: int
    seed_index: int = -1  # position in the multistart list; set by solve_system
    rejected_trials: int = 0  # line-search trials stopped by the tail certificate
    tail_fallbacks: int = 0  # Picard fallbacks of the tail Newton solves
    # why the solve stopped unconverged, empty when it converged: line_search_exhausted,
    # iteration_cap, tail_not_converged (an empty head whose tail stopped at its cap)
    # or tail_not_positive_definite
    reason: str = ""
    # the smallest eigenvalue of the tail block that stopped a tail_not_positive_definite solve
    tail_min_eigenvalue: float | None = None


class _State:
    """The memo entry: a read-only copy of one c, keyed by its bit pattern,
    and what has been derived from it so far."""

    __slots__ = ("key", "c", "values", "vprime", "residual")

    def __init__(self, c: np.ndarray):
        self.key = c.tobytes()
        self.c = np.frombuffer(self.key).reshape(c.shape)  # read-only, as bytes are
        self.values = self.vprime = self.residual = None


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class GalerkinSystem:
    """The system surface from a subclass's data (see the module docstring),
    through the one-entry state memo."""

    _memo: _State | None = None

    def __init__(self, grid: SineGrid, potential, eigenvalues: np.ndarray, boundary_grad,
                 boundary_coeffs: np.ndarray, drift=None, kinetic: float = 0.0):
        if not (np.isfinite(boundary_grad).all() and np.isfinite(boundary_coeffs).all()):
            raise ValueError("V' of the boundary part is not finite "
                             "(V' at the endpoints of a path, V'(0) for a field)")
        self.grid = grid
        self.potential = potential
        self.n = grid.n
        self.eigenvalues = eigenvalues
        self._drift = drift
        self._drift_values = None if drift is None else drift(grid_points(grid.lengths[0],
                                                                          grid.P[0]))
        self._boundary_grad = boundary_grad
        self._boundary_coeffs = boundary_coeffs
        self._kinetic = kinetic
        # flat index (mode, component) -> position in the coefficient box K + (n,)
        k = np.repeat(grid.modes - 1, grid.n, axis=0)
        i = np.tile(np.arange(grid.n), len(grid.modes))
        self._box_index = np.ravel_multi_index(tuple(k.T) + (i,), grid.K + (grid.n,))

    def _state(self, c) -> _State:
        c = np.asarray(c, dtype=float)
        memo = self._memo
        if memo is None or memo.c.shape != c.shape or memo.key != c.tobytes():
            memo = self._memo = _State(c)
        return memo

    def grid_values(self, c: np.ndarray) -> np.ndarray:
        """Grid values at c, read-only, synthesized once per state."""
        state = self._state(c)
        if state.values is None:
            values = self.grid.synthesize(self._box(state.c))
            if self._drift_values is not None:
                values = self._drift_values + values
            state.values = _read_only(values)
        return state.values

    def vprime(self, c: np.ndarray) -> np.ndarray:
        """``nonlinear_coeffs(c)``, read-only, evaluated once per state."""
        state = self._state(c)
        if state.vprime is None:
            state.vprime = _read_only(self.nonlinear_coeffs(state.c))
        return state.vprime

    def residual(self, c: np.ndarray) -> np.ndarray:
        """eigenvalues * c - vprime(c), read-only, evaluated once per state."""
        state = self._state(c)
        if state.residual is None:
            state.residual = _read_only(self.eigenvalues * state.c - self.vprime(state.c))
        return state.residual

    def hessian_matrix(self, c: np.ndarray) -> np.ndarray:
        K = self.curvature_matrix(c)  # a fresh array, so negated in place
        np.negative(K, out=K)
        K.flat[::K.shape[0] + 1] += self.eigenvalues  # the diagonal, strided
        return K

    def _box(self, c: np.ndarray) -> np.ndarray:
        """The coefficient box, shape K + (n,), of flat coefficients c."""
        box = np.zeros(math.prod(self.grid.K) * self.n)
        box[self._box_index] = c
        return box.reshape(self.grid.K + (self.n,))

    def nonlinear_coeffs(self, c: np.ndarray) -> np.ndarray:
        """Coefficients of V'(solution), the boundary part's share added exactly."""
        F = self.potential.grad(self.grid_values(c))
        return (self.grid.analyze(F - self._boundary_grad).reshape(-1)[self._box_index]
                + self._boundary_coeffs)

    def curvature_matrix(self, c: np.ndarray) -> np.ndarray:
        """W[a, b] = grid quadrature of V''(solution) phi_a phi_b, flat indexing;
        Toeplitz-minus-Hankel on each axis, see fourier.SineGrid."""
        return self.grid.curvature(self.potential.hess(self.grid_values(c)))

    @cached_property
    def _gauss(self):
        """Per axis the Gauss nodes, weights and sine modes; the drift at the nodes."""
        rules = [gauss_sine_rule(L, K) for L, K in zip(self.grid.lengths, self.grid.K)]
        return rules, None if self._drift is None else self._drift(rules[0][0])

    def action(self, c: np.ndarray) -> float:
        """Kinetic part exact in coefficients; potential part by composite Gauss."""
        kinetic = self._kinetic + 0.5 * float(np.sum(self.eigenvalues * c * c))
        rules, drift = self._gauss
        values = tensor_values([B for _, _, B in rules], self._box(c))
        if drift is not None:
            values = drift + values
        (_, weights, _), *rest = rules
        potential = weights @ self.potential.eval(values)
        for _, w, _ in rest:
            potential = potential @ w
        return kinetic - float(potential)


class MechanicalSystem(GalerkinSystem):
    """Sine-Galerkin discretization of the fixed-endpoint action problem: the
    path is the drift q0 + (qT - q0) t/T plus a sine series with n components."""

    def __init__(self, bp: BoundaryProblem, M: int, quad_points: int | None = None):
        if M < 1:
            raise ValueError(f"truncation must be positive, got {M}")
        P = 2 * M + 1 if quad_points is None else int(quad_points)
        check_truncation(M, bp.n, P)
        self.bp = bp
        self.M = M
        self.P = P
        self.T = bp.T
        self.t = grid_points(bp.T, P)
        # V' at the endpoints fixes the affine part of every V'(path) sample;
        # GalerkinSystem rejects it when it is not finite
        with np.errstate(all="ignore"):
            a0 = bp.potential.grad(bp.q0)
            a1 = bp.potential.grad(bp.qT)
            boundary_grad = a0[None, :] + np.outer(self.t / self.T, a1 - a0)
            boundary_coeffs = affine_coeffs(self.T, M, a0, (a1 - a0) / self.T).reshape(-1)
        d = bp.qT - bp.q0
        super().__init__(SineGrid((bp.T,), (M,), (P,), bp.n), bp.potential,
                         np.repeat(mode_eigenvalues(bp.T, M), bp.n),  # flat, mode-major
                         boundary_grad, boundary_coeffs,
                         drift=bp.drift, kinetic=float(d @ d) / (2.0 * self.T))

    # the benchmark's tracer wraps these per class (bench/spans.py)
    nonlinear_coeffs = GalerkinSystem.nonlinear_coeffs
    curvature_matrix = GalerkinSystem.curvature_matrix
    action = GalerkinSystem.action

    # -- flat <-> (M, n) ---------------------------------------------------
    def unflatten(self, c: np.ndarray) -> np.ndarray:
        return np.asarray(c, dtype=float).reshape(self.M, self.n)

    def flatten(self, coeffs: np.ndarray) -> np.ndarray:
        return np.asarray(coeffs, dtype=float).reshape(self.M * self.n)

    def embed(self, c: np.ndarray) -> SinePath:
        return SinePath(self.T, self.unflatten(c))

    def refined(self) -> "MechanicalSystem":
        """The same problem at doubled truncation on 2P - 1 nodes, which is
        2(2M)+1 when P = 2M+1, so a quadrature raised above the default
        stays raised; above MODE_CAP a ValueError, as at plan time."""
        return MechanicalSystem(self.bp, 2 * self.M, 2 * self.P - 1)


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def gauss_sine_rule(L: float, K: int):
    """Composite Gauss nodes and weights on [0, L], and the first K
    orthonormal sine modes at the nodes (one panel per three modes, at
    least GAUSS_MIN_PANELS); the action rule of both problem kinds.
    Read-only arrays, built once per (L, K) and shared by every system
    (the TABLE_CACHE_SIZE most recent rules are kept)."""
    panels = max(GAUSS_MIN_PANELS, int(np.ceil(K / 3)))
    x, w = np.polynomial.legendre.leggauss(GAUSS_NODES_PER_PANEL)
    edges = np.linspace(0.0, L, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return _read_only(nodes), _read_only(weights), _read_only(sine_table(L, K, nodes))


# ---------------------------------------------------------------------------
# residual norms

def tail_residual_norm(system, r: np.ndarray, head_dim: int) -> float:
    """Dual (Riesz) H1 norm of the tail residual: sqrt(sum r^2 / eig)."""
    tail = r[head_dim:]
    return float(np.sqrt((tail * tail / system.eigenvalues[head_dim:]).sum()))


def head_residual_norm(r: np.ndarray, head_dim: int) -> float:
    return float(np.linalg.norm(r[:head_dim]))


def tail_h1_norm(system, v: np.ndarray, head_dim: int) -> float:
    return float(np.sqrt(np.sum(system.eigenvalues[head_dim:] * v * v)))


# ---------------------------------------------------------------------------
# tail solvers

def solve_tail(system, head_dim: int, u: np.ndarray, v0: np.ndarray | None = None,
               tol: float = 1e-10, method: str = "newton",
               reject: tuple[float, float] | None = None) -> tuple[np.ndarray, TailStats]:
    """Solve the tail stationarity equations at frozen head u.

    ``picard`` iterates the contraction v <- g_tail / eig_tail (guaranteed
    rate 1 - mu); ``newton`` uses the tail curvature block as Jacobian and
    falls back to a Picard step whenever a Newton step fails to decrease
    the residual.  Starts from v0 = 0 unless a warm start is given; stops,
    unconverged, after TAIL_NEWTON_STEPS or TAIL_PICARD_STEPS iterations.
    An empty tail converges at the first check (its dual norm is 0).

    ``reject=(hnorm, kappa)`` screens a line-search trial: the solve stops
    early, with ``stats.rejected``, at the first unconverged iterate where
    |r_head| - kappa (res + tol) >= hnorm, which certifies that the head
    residual after a full solve would not fall below hnorm (see
    ``rejection_slope``).
    """
    if method not in ("newton", "picard"):
        raise ValueError(f"unknown tail method {method!r}")
    eig_tail = system.eigenvalues[head_dim:]
    u = np.asarray(u, dtype=float)
    v = np.zeros(len(eig_tail)) if v0 is None else np.array(v0, dtype=float)
    stats = TailStats(method=method)
    for _ in range(TAIL_NEWTON_STEPS if method == "newton" else TAIL_PICARD_STEPS):
        c = np.concatenate([u, v])
        r = system.residual(c)
        res = tail_residual_norm(system, r, head_dim)
        stats.residuals.append(res)
        if res <= tol:
            stats.converged = True
            return v, stats
        if reject is not None:
            hnorm, kappa = reject
            if head_residual_norm(r, head_dim) - kappa * (res + tol) >= hnorm:
                stats.rejected = True
                return v, stats
        stats.iterations += 1
        g = system.vprime(c)  # held here: the trial step below moves the memo on
        if method == "picard":
            v_new = g[head_dim:] / eig_tail
            stats.increments.append(tail_h1_norm(system, v_new - v, head_dim))
            v = v_new
            continue
        # Newton step on the tail block
        K = system.hessian_matrix(c)
        try:
            step = _cholesky_solve(_tail_cholesky(K[head_dim:, head_dim:]), r[head_dim:])
        except TruncationError as exc:
            exc.tail = stats  # the step that failed counts
            raise
        v_try = v - step
        r_try = system.residual(np.concatenate([u, v_try]))
        res_try = tail_residual_norm(system, r_try, head_dim)
        if res_try < res:
            v = v_try
            continue
        # contraction step is always safe
        stats.fallbacks += 1
        v = g[head_dim:] / eig_tail
    # cap exceeded: report best effort
    c = np.concatenate([u, v])
    stats.residuals.append(tail_residual_norm(system, system.residual(c), head_dim))
    return v, stats


# ---------------------------------------------------------------------------
# reduced system

def _tail_cholesky(D: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of the tail block (LAPACK dpotrf called as
    scipy's cho_factor calls it, so bitwise the same, without its checks);
    TruncationError if the block is not positive definite."""
    L, info = dpotrf(D, lower=1, clean=0)
    if info > 0:
        raise TruncationError(float(np.min(np.linalg.eigvalsh(D))))
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return L


def _cholesky_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """D^{-1} b from the factor of ``_tail_cholesky`` (LAPACK dpotrs, as cho_solve)."""
    x, info = dpotrs(L, b, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    return x


def schur_matrix(A: np.ndarray, B: np.ndarray, D: np.ndarray) -> np.ndarray:
    """A - B D^{-1} B^T through a Cholesky factorization of D."""
    if A.shape[0] == 0:
        return A.copy()
    if D.shape[0] == 0:
        return 0.5 * (A + A.T)
    S = A - B @ _cholesky_solve(_tail_cholesky(D), B.T)
    return 0.5 * (S + S.T)


class ReducedPoint:
    """The reduced function f(u) = L(u + v(u)) at one head u: ``c`` = (u, v),
    flat, ``u`` and ``v`` views of it, and ``tail`` the TailStats of the solve
    that gave v (None for a given c).  The system's ``residual`` at c, its
    head block ``gradient`` (the gradient of f), their norms ``head_residual``
    and ``tail_residual`` (``tail_residual_norm``), the Hessian ``blocks``,
    their Schur complement ``schur`` (the Hessian of f) and ``value`` (f) are
    each computed once, on first read, through the system's memo: read while
    the memo still holds c, right after the tail solve, they evaluate no new
    state."""

    def __init__(self, system, head_dim: int, c: np.ndarray, tail: TailStats | None = None):
        self.system, self.head_dim, self.tail = system, head_dim, tail
        self.c = np.asarray(c, dtype=float)
        self.u, self.v = self.c[:head_dim], self.c[head_dim:]

    @classmethod
    def solve(cls, system, head_dim: int, u: np.ndarray, v0: np.ndarray | None = None,
              **options) -> "ReducedPoint":
        """The point at the flat head u, its tail by ``solve_tail(..., v0=v0, **options)``."""
        v, tail = solve_tail(system, head_dim, u, v0=v0, **options)
        return cls(system, head_dim, np.concatenate([u, v]), tail)

    @cached_property
    def residual(self) -> np.ndarray:
        return self.system.residual(self.c)

    @property
    def gradient(self) -> np.ndarray:
        return self.residual[:self.head_dim]

    @cached_property
    def head_residual(self) -> float:
        return head_residual_norm(self.residual, self.head_dim)

    @cached_property
    def tail_residual(self) -> float:
        return tail_residual_norm(self.system, self.residual, self.head_dim)

    @cached_property
    def blocks(self) -> HessianBlocks:
        K, h, n = self.system.hessian_matrix(self.c), self.head_dim, self.system.n
        return HessianBlocks(N=h // n, M=len(self.system.eigenvalues) // n, n=n,
                             A=K[:h, :h], B=K[:h, h:], D=K[h:, h:])

    @cached_property
    def schur(self) -> np.ndarray:
        return schur_matrix(self.blocks.A, self.blocks.B, self.blocks.D)

    @cached_property
    def value(self) -> float:
        return self.system.action(self.c)


def rejection_slope(system, head_dim: int, c_bound: float) -> float | None:
    """kappa = C / (mu sqrt(lam_t)), the certified rate at which |r_head| can
    move per unit of tail residual: | |r_head(v)| - |r_head(v*)| | <= kappa res(v).
    None when there is no tail or C does not make the tail monotone."""
    eig_tail = system.eigenvalues[head_dim:]
    if eig_tail.size == 0:
        return None
    lam_t = float(np.min(eig_tail))
    mu = 1.0 - c_bound / lam_t
    if not mu > 0.0:
        return None
    return c_bound / (mu * np.sqrt(lam_t))


def reduced_newton(system, head_dim: int, u0: np.ndarray,
                   head_tol: float = 1e-9, tail_tol: float = 1e-10,
                   tail_method: str = "newton", max_iter: int = 60,
                   c_bound: float | None = None,
                   v0: np.ndarray | None = None) -> ReducedResult:
    """Damped Newton on the gradient of f, Jacobian = its Schur complement.

    Every iterate and every line-search trial is a ReducedPoint, one tail
    solve each, the first from the tail ``v0`` (zero when None; a refined
    level passes the coarse root's tail padded with zeros) and every later
    one from the tail of the current iterate.  A line search that halves its
    step LINE_SEARCH_HALVINGS times ends the solve, and so does a tail block
    that is not positive definite (a TruncationError of a tail Newton step or
    of the Schur complement), with the block's smallest eigenvalue as
    ``tail_min_eigenvalue`` and the steps of the tail solve it stopped
    counted.  Every way out builds the one result from the last iterate,
    with the ``reason`` it stopped unconverged.  With a certified
    ``c_bound`` the line search screens trials by the rejection test of
    ``solve_tail``: the iterates are the same, only tail iterations are saved.
    """
    kappa = None if c_bound is None else rejection_slope(system, head_dim, c_bound)
    options = dict(tol=tail_tol, method=tail_method)
    u = np.array(u0, dtype=float)
    v = np.zeros(len(system.eigenvalues) - head_dim) if v0 is None else v0
    history, tails = [], []  # tails: the TailStats of every tail solve
    converged, reason, margin = False, "", None
    try:
        for it in range(max_iter + 1):
            point = ReducedPoint.solve(system, head_dim, u, v, **options)
            v = point.v
            tails.append(point.tail)
            history.append(point.head_residual)
            converged = point.head_residual <= head_tol and point.tail.converged
            if converged or head_dim == 0 or it == max_iter:
                reason = ("" if converged else "tail_not_converged" if head_dim == 0
                          else "iteration_cap")
                break
            step = np.linalg.solve(point.schur, point.gradient)
            reject = None if kappa is None else (point.head_residual, kappa)
            lam = 1.0
            for _ in range(LINE_SEARCH_HALVINGS + 1):
                trial = ReducedPoint.solve(system, head_dim, u - lam * step, v, reject=reject,
                                           **options)
                tails.append(trial.tail)
                if not trial.tail.rejected and trial.head_residual < point.head_residual:
                    u, v = trial.u, trial.v
                    break
                lam *= 0.5
            else:
                reason = "line_search_exhausted"
                break
    except TruncationError as exc:
        reason, margin = "tail_not_positive_definite", exc.smallest
        if exc.tail is not None:
            tails.append(exc.tail)
    # (u, v) is the last iterate, or the accepted trial whose re-solve raised
    end = ReducedPoint(system, head_dim, np.concatenate([u, v]))
    return ReducedResult(u, v, converged, it, end.head_residual, end.tail_residual, history,
                         sum(t.iterations for t in tails),
                         rejected_trials=sum(t.rejected for t in tails),
                         tail_fallbacks=sum(t.fallbacks for t in tails),
                         reason=reason, tail_min_eigenvalue=margin)


# ---------------------------------------------------------------------------
# multistart

def draw_seeds(head_dim: int, count: int, radius: float, seed: int) -> list[np.ndarray]:
    """Origin plus count-1 points uniform in the radius-ball of R^head_dim."""
    if head_dim == 0:
        return [np.zeros(0)]
    rng = np.random.default_rng(seed)
    seeds = [np.zeros(head_dim)]
    for _ in range(max(0, count - 1)):
        x = rng.standard_normal(head_dim)
        norm = np.linalg.norm(x)
        if norm == 0.0:
            seeds.append(np.zeros(head_dim))
            continue
        r = radius * rng.uniform() ** (1.0 / head_dim)
        seeds.append(r * x / norm)
    return seeds


def dedup_roots(results: list[ReducedResult], tol: float = 1e-6) -> list[ReducedResult]:
    """Drop duplicate converged roots (head distance <= tol), keep best residual."""
    kept: list[ReducedResult] = []
    for res in results:
        if not res.converged:
            continue
        match = next((i for i, other in enumerate(kept)
                      if np.linalg.norm(res.u - other.u) <= tol), None)
        if match is None:
            kept.append(res)
        elif res.head_residual < kept[match].head_residual:
            kept[match] = res
    return kept
