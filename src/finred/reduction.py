"""Certified reduction of the variational problem to finitely many equations.

For a potential with sup |V''| <= C, every mode above the cutoff

    N = floor(T sqrt(C) / pi)

enters a strongly monotone tail problem with constant

    mu = 1 - C / lambda_{N+1}  in (0, 1],   lambda_k = (pi k / T)^2,

so the tail coefficients are a function v(u) of the head u alone, the
fixed-point iteration contracts at rate 1 - mu, and solving the original
problem is exactly equivalent to finding the roots of the reduced head
gradient.  The reduced Hessian is the Schur complement of the tail block
and carries the full Morse data.  Newton's matrix is the Schur complement
at the last factored tail iterate, within res/mu of v(u) (see ``core``),
while the Morse data read the exact one.

The cutoff rule is ``head_cutoff``, shared with ``dirichlet.dirichlet_plan``
(only the spectrum differs): the head takes the next mode while the tail
margin is inside ``null_margin``, and a head above ``core.MODE_CAP`` or
mode eigenvalues that are not finite floats up to the finest refinement
level end planning with a ValueError.

The multistart -> dedup -> refine -> report pipeline (``solve_system``) is
shared by the mechanical and the Dirichlet problem.  It works against
``core.ReducedPoint``, f at a head with its gradient and Schur complement,
and the system's ``n``, ``refined`` and ``embed``.  ``solve_reduced`` and
``dirichlet.solve_dirichlet`` build their system, pick their default radius
and call it; ``solve_tail``, ``reduced_gradient`` and
``reduced_hessian_matrix`` read one point on the plan's system.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import core
from .core import MechanicalSystem, TailStats
from .fourier import BoundaryProblem, SinePath, sine_eigenvalue
from .morse import NULL_THRESHOLD_SCALE, index_full, index_schur

__all__ = [
    "ReductionPlan",
    "SolutionReport",
    "UncertifiedPotentialError",
    "make_plan",
    "head_cutoff",
    "fixed_point_cutoff",
    "solve_tail",
    "reduced_gradient",
    "reduced_hessian_matrix",
    "solve_reduced",
    "solve_system",
    "DEFAULT_MULTISTART_SEED",
]

# Documented default seed for multistart draws (hex AC21).
DEFAULT_MULTISTART_SEED = 0xAC21
DEFAULT_MULTISTART_COUNT = 64
DEDUP_TOL = 1e-6
REFINE_DRIFT_TOL = 1e-7
MAX_REFINEMENTS = 2  # the most refinement levels a root is re-solved on
ACTION_TIE_RTOL = 1e-10  # actions this close (relative) are ordered by head
SAMPLE_RTOL = 1e-12  # slack of the check of a user bound against the sampled V''

log = logging.getLogger(__name__)


class UncertifiedPotentialError(ValueError):
    """Raised when planning with an uncertified curvature bound without opt-in."""


@dataclass(frozen=True)
class ReductionPlan:
    """Certified reduction parameters for one boundary problem."""

    N: int
    mu: float
    M: int
    tail_tol: float
    certified: bool
    c_bound: float
    quad_points: int  # grid nodes of the system, at least 2M+1
    head_tol: float = 1e-9

    def __post_init__(self):
        if self.N < 0:
            raise ValueError(f"cutoff must be nonnegative, got {self.N}")
        if self.M < self.N + 1:
            raise ValueError(f"truncation must exceed the cutoff, got M={self.M}, N={self.N}")
        if not 0.0 < self.mu <= 1.0:
            raise ValueError(f"monotonicity constant must be in (0, 1], got {self.mu}")
        if self.quad_points < 2 * self.M + 1:
            raise ValueError(
                f"quadrature needs at least 2M+1 = {2 * self.M + 1} points, got {self.quad_points}")

    @property
    def contraction(self) -> float:
        """1 - mu, the guaranteed rate of the tail's contraction step."""
        return 1.0 - self.mu


@dataclass
class SolutionReport:
    """One stationary path or field with residuals, Morse data and provenance.

    ``path`` is whatever the system's ``embed`` returns: a SinePath for
    mechanical problems, a DirichletField for Dirichlet ones, which is
    also read as ``field``.
    """

    head: np.ndarray
    path: SinePath
    action: float
    head_residual: float
    tail_residual: float
    index: int
    nullity: int
    certified: bool
    converged: bool
    newton_iterations: int
    tail_iterations: int
    oracle_index: Optional[int] = None
    seed_index: int = -1
    truncation_drift: Optional[float] = None
    residual_history: list = field(default_factory=list)

    @property
    def field(self):
        return self.path


def curvature_bound(pot, allow_uncertified: bool) -> float:
    """The potential's bound C; it must be finite, and certified unless opted out.

    A certified bound that the potential's own sample contradicts, a norm of
    V'' above C by more than a relative 1e-12 (``Potential.c_sampled``), is a
    ValueError: a plan on it would promise a monotone tail that is not.
    """
    C = pot.c_bound
    if not math.isfinite(C):
        raise ValueError("potential curvature bound must be finite")
    sampled = pot.c_sampled
    if pot.certified and sampled is not None and sampled > C * (1.0 + SAMPLE_RTOL):
        raise ValueError(f"c_bound = {C:.10g} is below max |V''| = {sampled:.10g} "
                         f"found by sampling the potential")
    if not pot.certified and not allow_uncertified:
        raise UncertifiedPotentialError(
            "potential curvature bound is not certified "
            f"(source={pot.c_source!r}, unbounded_warning={pot.unbounded_warning}); "
            "pass allow_uncertified=True to proceed at your own risk")
    return C


def null_margin(C: float, top: float) -> float:
    """The least tail margin mu lambda_{N+1} = lambda_{N+1} - C a plan keeps.

    It is the null threshold of ``morse`` for a full matrix whose
    eigenvalues reach top + C, with top the plan's largest mode eigenvalue
    raised by MAX_REFINEMENTS levels (each multiplies it by 4).  The tail
    block is at least mu lambda_{N+1} (its guaranteed margin); at or below
    the threshold ``index_full`` may read a tail eigenvalue as null, which
    ``index_schur`` never sees, so such a plan takes the next cutoff.
    """
    return NULL_THRESHOLD_SCALE * (1.0 + 4.0 ** MAX_REFINEMENTS * top + C)


def head_cutoff(C: float, n_min: int, lam, top, N: int | None = None) -> tuple[int, float]:
    """The cutoff rule of both planners: the head N and mu = 1 - C / lambda_{N+1}.

    ``n_min`` counts the eigenvalues at or below C, ``lam(k)`` is the k-th
    mode eigenvalue and ``top(n)`` the largest eigenvalue a plan with head n
    keeps.  The head is n_min, one more while the tail margin
    lambda_{n+1} - C is inside ``null_margin``; an override N may only
    raise it.  Before each margin test, a head above ``core.MODE_CAP`` and
    mode eigenvalues that are not finite floats up to the finest refinement
    level (4^MAX_REFINEMENTS top) are a ValueError, so the bump is bounded.
    """
    def margin(n: int) -> float:
        if n > core.MODE_CAP:
            raise ValueError(f"head N >= {n} is above the cap {core.MODE_CAP}")
        threshold = null_margin(C, top(n))
        if not math.isfinite(threshold):
            raise ValueError(f"mode eigenvalues up to {4 ** MAX_REFINEMENTS} x {top(n):.6g} "
                             f"(the finest refinement level) are not finite floats")
        return threshold

    n = n_min
    while margin(n) >= lam(n + 1) - C:
        n += 1
    if N is None:
        N = n
    elif N < n:
        raise ValueError(f"head override {N} is below the certified minimum {n}")
    else:
        margin(N)  # the override's own cap and finest level
    return N, 1.0 - C / lam(N + 1)


def make_plan(bp: BoundaryProblem, *, N: int | None = None, M: int | None = None,
              quad_points: int | None = None, tail_tol: float = 1e-10,
              head_tol: float = 1e-9, allow_uncertified: bool = False) -> ReductionPlan:
    """Compute the certified cutoff and tail constants for a problem.

    N and mu follow ``head_cutoff`` from the paper's floor(T sqrt(C)/pi)
    and the mode eigenvalues (pi k/T)^2, with top the eigenvalue of mode M.
    M defaults to max(2N+8, 32).
    Planning with an uncertified bound (sampled estimate or unbounded
    curvature) requires ``allow_uncertified=True``.  M n and quad_points
    (default 2M+1) may not exceed ``core.MODE_CAP`` = 100000, the cap on
    Dirichlet mode lists, else ValueError; each refinement level
    (``MechanicalSystem.refined``, doubled M) is held to the same cap.
    """
    pot = bp.potential
    C = curvature_bound(pot, allow_uncertified)

    def lam(k: int) -> float:  # the k-th mode eigenvalue
        return sine_eigenvalue(k, bp.T)

    def truncation(n: int) -> int:  # M of a plan with head n
        return max(2 * n + 8, 32) if M is None else M

    # held at MODE_CAP + 1, so that a floor past any integer is refused by the cap
    n_min = math.floor(min(bp.T * math.sqrt(C) / math.pi, core.MODE_CAP + 1))
    N, mu = head_cutoff(C, n_min, lam, lambda n: lam(truncation(n)), N)
    M = truncation(N)
    if quad_points is None:
        quad_points = 2 * M + 1
    core.check_truncation(M, bp.n, quad_points)
    return ReductionPlan(N=int(N), mu=mu, M=int(M), tail_tol=tail_tol, head_tol=head_tol,
                         certified=pot.certified, c_bound=C, quad_points=int(quad_points))


def fixed_point_cutoff(c_tilde: float, T: float) -> int:
    """Smallest integer m >= 1 with (c_tilde T / (2 pi m)) (1 + sqrt(2m)) < 1.

    This is the cutoff demanded by the older fixed-point contraction
    criterion; it always exceeds floor(T sqrt(C)/pi), so the monotonicity
    cutoff is the sharper one.
    """
    if c_tilde <= 0 or T <= 0:
        raise ValueError("c_tilde and T must be positive")

    def crit(m: int) -> float:
        return c_tilde * T / (2.0 * math.pi * m) * (1.0 + math.sqrt(2.0 * m))

    if crit(1) < 1.0:
        return 1
    lo, hi = 1, 2
    while crit(hi) >= 1.0:  # crit is strictly decreasing
        lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if crit(mid) < 1.0:
            hi = mid
        else:
            lo = mid
    return hi


def _plan_point(bp: BoundaryProblem, plan: ReductionPlan, u: np.ndarray,
                v0: SinePath | None = None) -> core.ReducedPoint:
    """The reduced function at head u on the plan's system, its tail solved
    to plan.tail_tol from the tail of v0 when given."""
    system = MechanicalSystem(bp, plan.M, plan.quad_points)
    head_dim = plan.N * system.n
    u = np.asarray(u, dtype=float).reshape(head_dim)
    v_start = None if v0 is None else system.flatten(v0.coeffs)[head_dim:]
    return core.ReducedPoint.solve(system, head_dim, u, v_start, tol=plan.tail_tol)


def solve_tail(bp: BoundaryProblem, plan: ReductionPlan, u: np.ndarray,
               v0: SinePath | None = None) -> tuple[SinePath, TailStats]:
    """Tail coefficients v(u) with residual below plan.tail_tol (H10 dual norm).

    Newton on the tail block, with the contraction step as its fallback
    when a step does not decrease the residual (``core.solve_tail``).
    """
    point = _plan_point(bp, plan, u, v0)
    return point.system.embed(np.concatenate([np.zeros(point.head_dim), point.v])), point.tail


def reduced_gradient(bp: BoundaryProblem, plan: ReductionPlan, u: np.ndarray) -> np.ndarray:
    """Head block of the stationarity residual at u + v(u), L2 convention."""
    point = _plan_point(bp, plan, u)
    if not point.tail.converged:
        raise RuntimeError(
            f"tail solve did not reach tolerance {plan.tail_tol} "
            f"(best residual {point.tail.residuals[-1]:.3e})")
    return point.gradient.copy()  # the point's residual is read-only


def reduced_hessian_matrix(bp: BoundaryProblem, plan: ReductionPlan,
                           u: np.ndarray) -> np.ndarray:
    """Schur complement of the tail block at u + v(u) (the reduced Hessian)."""
    return _plan_point(bp, plan, u).schur.copy()  # the point's Schur complement is read-only


def default_radius(bp: BoundaryProblem) -> float:
    return 2.0 * (1.0 + float(np.linalg.norm(bp.qT - bp.q0)))


def solve_reduced(bp: BoundaryProblem, plan: ReductionPlan,
                  seeds: list[np.ndarray] | None = None, *,
                  count: int = DEFAULT_MULTISTART_COUNT,
                  radius: float | None = None,
                  seed: int = DEFAULT_MULTISTART_SEED,
                  refine: bool = True,
                  with_oracles: bool = False,
                  seed_records: list | None = None) -> list[SolutionReport]:
    """Find stationary paths by damped Newton on the reduced system.

    Seeds default to a multistart draw: the origin plus ``count - 1``
    points uniform in the radius ball (radius 2 (1 + |qT - q0|) unless
    given), from a fixed-seed generator.  With ``refine=True`` every root
    is re-solved at doubled truncation.  See ``solve_system`` for the rest.
    """
    return solve_system(MechanicalSystem(bp, plan.M, plan.quad_points), plan, seeds, count=count,
                        radius=default_radius(bp) if radius is None else float(radius),
                        seed=seed, refine=refine, with_oracles=with_oracles,
                        seed_records=seed_records)


@core.single_blas_thread
def solve_system(system, plan, seeds: list[np.ndarray] | None = None, *,
                 count: int, radius: float, seed: int, refine: bool, with_oracles: bool,
                 seed_records: list | None) -> list[SolutionReport]:
    """Multistart reduced Newton on one system, shared by both problem kinds.

    ``plan`` supplies the head size ``N`` (in modes), the tolerances and
    the certification flag.  Without explicit ``seeds`` the origin plus
    ``count - 1`` points uniform in the ``radius`` ball are drawn from
    ``seed``; the radius must be finite and positive.  Seeds are solved in
    order; converged roots are deduplicated on head distance, with
    ``refine=True`` re-solved on refined systems (``_refine_root``), and
    sorted (``order_reports``).  With a certified plan the line search
    screens trials with the tail certificate (``core.solve_tail``); the
    roots are the same either way.  A seed that fails (a tail block that is
    not positive definite included) stops with its ``reason`` and leaves the
    other seeds as they were.  When a list is passed as ``seed_records`` it
    receives the raw per-seed solve results in seed order (for convergence
    logging).
    """
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError(f"multistart radius must be a positive real, got {radius}")
    head_dim = plan.N * system.n
    if seeds is None:
        seeds = core.draw_seeds(head_dim, count, radius, seed)
    else:
        seeds = [np.asarray(s, dtype=float).reshape(head_dim) for s in seeds]
    newton = dict(head_tol=plan.head_tol, tail_tol=plan.tail_tol,
                  c_bound=plan.c_bound if plan.certified else None)
    results = []
    for i, u0 in enumerate(seeds):
        res = core.reduced_newton(system, head_dim, u0, **newton)
        res.seed_index = i
        results.append(res)
        if not res.converged:
            log.debug("seed %d stopped unconverged (%s) after %d Newton iterations at head "
                      "residual %.3e: %d line-search trials rejected by the tail "
                      "certificate, %d tail steps fallen back to the contraction", i, res.reason,
                      res.iterations, res.head_residual, res.rejected_trials, res.tail_fallbacks)
    if seed_records is not None:
        seed_records.extend(results)

    levels = [system]  # levels[j] is the system refined j times, shared by all roots
    reports = [_root_report(levels, plan, root, newton, refine, with_oracles)
               for root in core.dedup_roots(results, tol=DEDUP_TOL)]
    return order_reports(reports)


def order_reports(reports: list) -> list:
    """Sort by action, then lexicographic head among actions that tie.

    Actions tie when each lies within ACTION_TIE_RTOL (relative to
    max(|action|, 1)) of the smallest one of its run; heads compare
    rounded to multiples of DEDUP_TOL, since a mirror root's zero
    components are solver noise of either sign.  So roots whose actions
    and heads differ only by noise keep one order, whatever their last
    digits.
    """
    def by_head(run):
        return sorted(run, key=lambda rep: tuple(np.round(rep.head / DEDUP_TOL)))

    ranked = sorted(reports, key=lambda rep: rep.action)
    ordered, run = [], []
    for rep in ranked:
        if run and rep.action - run[0].action > ACTION_TIE_RTOL * max(abs(run[0].action), 1.0):
            ordered += by_head(run)
            run = []
        run.append(rep)
    return ordered + by_head(run)


def _root_report(levels: list, plan, root: core.ReducedResult, newton: dict, refine: bool,
                 with_oracles: bool) -> SolutionReport:
    """Refine one deduplicated root if asked, then expand it to a full report."""
    system = levels[0]
    head_dim = plan.N * system.n
    res, drift = root, None
    if refine:
        system, res, drift = _refine_root(levels, head_dim, root, newton)
    point = res.point
    idx = index_schur(point.blocks)
    return SolutionReport(
        head=res.u.copy(),
        path=system.embed(point.c),
        action=point.value,
        head_residual=res.head_residual,
        tail_residual=res.tail_residual,
        index=idx.index,
        nullity=idx.nullity,
        certified=plan.certified,
        converged=res.converged,
        newton_iterations=res.iterations,
        tail_iterations=res.tail_iterations,
        oracle_index=index_full(point.blocks).index if with_oracles else None,
        seed_index=root.seed_index,  # the refined result carries no seed
        truncation_drift=drift,
        residual_history=list(res.head_history),
    )


def _refine_root(levels: list, head_dim: int, res: core.ReducedResult, newton: dict):
    """Refine the system until the re-solved head moves less than the drift
    tolerance, at most MAX_REFINEMENTS times; a level whose solve does not
    converge leaves the root at the level below.

    ``levels[j]`` is the system refined j times; a level is built (and
    appended) when a root first needs it, so each is built once per solve.
    Each level starts from the root one level down: its head, and its tail
    padded with zeros for the new modes.  The coarse coefficients are the
    leading entries of the fine ones, in the same order (mechanical
    systems are mode-major, Dirichlet mode lists ascend by eigenvalue and
    a finer list only appends modes above the coarse cut).
    """
    system, drift = levels[0], None
    for j in range(1, MAX_REFINEMENTS + 1):
        if len(levels) == j:
            levels.append(levels[-1].refined())
        fine = levels[j]
        v0 = np.zeros(len(fine.eigenvalues) - head_dim)
        v0[:len(res.v)] = res.v
        fine_res = core.reduced_newton(fine, head_dim, res.u, v0=v0, **newton)
        drift = float(np.linalg.norm(fine_res.u - res.u))
        if not fine_res.converged:
            break
        system, res = fine, fine_res
        if drift <= REFINE_DRIFT_TOL:
            break
    return system, res, drift
