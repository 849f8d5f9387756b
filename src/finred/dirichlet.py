"""The same reduction for scalar semilinear Dirichlet problems on rectangles.

Weak solutions of  Delta phi = -V'(phi),  phi = 0 on the boundary, are the
stationary points of  int ( 1/2 |grad phi|^2 - V(phi) ).  On a rectangle
the Laplacian eigenbasis is the explicit tensor sine basis, so the whole
head/tail machinery carries over with the mode eigenvalues

    lambda_k = sum_i (pi k_i / L_i)^2

replacing (pi k / T)^2: the head collects the modes with lambda <= C, the
tail constant is mu = 1 - C / lambda_{N+1}, and the reduced Hessian is the
Schur complement of the tail block.  Dimensions m in {1, 2} are supported.

DirichletSystem only builds the data of a ``core.GalerkinSystem``: the
m-axis SineGrid of its mode list with one component (P_i >= 2 kbox_i + 1),
the eigenvalues, and V'(0) as the boundary part of V', with no drift.  So
solves run through ``reduction.solve_system`` as mechanical ones do, and in
1-D the system is the n = 1 mechanical system with zero endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MODE_CAP, GalerkinSystem
from .fourier import SineGrid, affine_coeffs, frozen_copy, sine_table, tensor_values
from .potentials import Potential
from .reduction import (DEFAULT_MULTISTART_COUNT, DEFAULT_MULTISTART_SEED, SolutionReport,
                        curvature_bound, solve_system)

__all__ = [
    "RectangleDomain",
    "EigenMode",
    "DirichletPlan",
    "DirichletField",
    "DirichletSolution",
    "enumerate_modes",
    "dirichlet_plan",
    "weyl_estimate",
    "solve_dirichlet",
]

DEFAULT_MULTISTART_RADIUS = 2.0


@dataclass(frozen=True)
class RectangleDomain:
    """Axis-aligned box (0, L1) x ... x (0, Lm), m in {1, 2}."""

    lengths: tuple

    def __post_init__(self):
        lengths = tuple(float(L) for L in np.atleast_1d(self.lengths))
        if len(lengths) not in (1, 2):
            raise ValueError(f"only 1- and 2-dimensional rectangles are supported, got m={len(lengths)}")
        if not all(math.isfinite(L) and L > 0 for L in lengths):
            raise ValueError(f"side lengths must be finite and positive, got {lengths}")
        object.__setattr__(self, "lengths", lengths)

    @property
    def m(self) -> int:
        return len(self.lengths)

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))


@dataclass(frozen=True, order=True)
class EigenMode:
    """Laplacian eigenmode: sort key is (eigenvalue, multi-index)."""

    lam: float
    indices: tuple


def mode_eigenvalue(dom: RectangleDomain, indices) -> float:
    return float(sum((math.pi * k / L) ** 2 for k, L in zip(indices, dom.lengths)))


def enumerate_modes(dom: RectangleDomain, lambda_max: float,
                    cap: int = MODE_CAP) -> list[EigenMode]:
    """All modes with eigenvalue <= lambda_max, ascending, ties lexicographic.

    The modes are counted row by row (one row per k1) before the mode list
    is built, and no per-axis list holds more than ``cap + 1`` terms: a
    longer axis would put more than ``cap`` modes in the first row or
    column.  So a ``cap`` violation is raised without allocating the lattice.
    """
    if not (math.isfinite(lambda_max) and lambda_max > 0):
        raise ValueError(f"lambda_max must be finite and positive, got {lambda_max}")
    # one past the floor-sqrt bound, which can round below a boundary-exact k;
    # the float test below trims the extra term
    kmax = [min(int(math.floor(L * math.sqrt(lambda_max) / math.pi)) + 1, cap + 1)
            for L in dom.lengths]
    # per-axis terms (pi k / L)^2, computed exactly as mode_eigenvalue does
    squares = [np.array([(math.pi * k / L) ** 2 for k in range(1, km + 1)])
               for km, L in zip(kmax, dom.lengths)]
    if dom.m == 1:
        counts = np.array([np.count_nonzero(squares[0] <= lambda_max)])
    else:
        counts = _row_counts(*squares, lambda_max, dom.lengths[1])
    total = int(np.sum(counts))
    if total > cap:
        # modes past a cut axis are not counted: then the count is a lower bound
        past = any(mode_eigenvalue(dom, tuple(cap + 2 if i == j else 1 for i in range(dom.m)))
                   <= lambda_max for j in range(dom.m))
        raise ValueError(f"mode list would hold {'more than ' if past else ''}{total} entries, "
                         f"above the cap {cap}")
    if dom.m == 1:
        return [EigenMode(lam, (k,)) for k, lam in enumerate(squares[0][:total].tolist(), start=1)]
    first, second = squares
    k1 = np.repeat(np.arange(1, len(first) + 1), counts)
    k2 = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts) + 1
    lams = first[k1 - 1] + second[k2 - 1]
    order = np.lexsort((k2, k1, lams))
    return [EigenMode(lam, (a, b)) for lam, a, b in
            zip(lams[order].tolist(), k1[order].tolist(), k2[order].tolist())]


def _row_counts(first: np.ndarray, second: np.ndarray, lambda_max: float,
                L2: float) -> np.ndarray:
    """Per k1, the number of k2 with first[k1] + second[k2] <= lambda_max.

    The floor-sqrt estimate is corrected against the exact float test; the
    sum is monotone in k2, so the admissible k2 form a prefix of the row.
    """
    budget = np.maximum(lambda_max - first, 0.0)
    counts = np.floor(np.minimum(L2 * np.sqrt(budget) / math.pi, len(second))).astype(int)
    while True:
        up = counts < len(second)
        up[up] = first[up] + second[counts[up]] <= lambda_max
        down = counts > 0
        down[down] = first[down] + second[counts[down] - 1] > lambda_max
        if not (up.any() or down.any()):
            return counts
        counts += up.astype(int) - down.astype(int)


def weyl_estimate(dom: RectangleDomain, C: float) -> tuple[int, float, float]:
    """Exact eigenvalue count below C vs the volume-term asymptotic.

    Returns (exact_count, weyl_count, relative_error) with
    weyl_count = vol(B_m) (2 pi)^{-m} vol(domain) C^{m/2}.
    """
    if not (math.isfinite(C) and C > 0):
        raise ValueError(f"threshold must be finite and positive, got {C}")
    exact = len(enumerate_modes(dom, C))
    ball = 2.0 if dom.m == 1 else math.pi
    weyl = ball * (2.0 * math.pi) ** (-dom.m) * dom.volume * C ** (dom.m / 2.0)
    rel = abs(exact - weyl) / exact if exact > 0 else math.inf
    return exact, weyl, rel


@dataclass(frozen=True)
class DirichletPlan:
    """Reduction parameters plus the explicit truncated mode list."""

    domain: RectangleDomain
    modes: tuple  # EigenMode, ascending; head = first N entries
    N: int
    mu: float
    lambda_cut: float
    tail_tol: float
    certified: bool
    c_bound: float
    head_tol: float = 1e-9
    grid_shape: tuple = ()

    def __post_init__(self):
        if not 0.0 < self.mu <= 1.0:
            raise ValueError(f"monotonicity constant must be in (0, 1], got {self.mu}")
        if self.N < 0 or self.N >= len(self.modes):
            raise ValueError(f"head size {self.N} incompatible with {len(self.modes)} modes")

    @property
    def contraction(self) -> float:
        """1 - mu, the guaranteed Picard rate on the tail."""
        return 1.0 - self.mu


def dirichlet_plan(dom: RectangleDomain, pot: Potential, *,
                   N: int | None = None, lambda_cut: float | None = None,
                   tail_tol: float = 1e-10, head_tol: float = 1e-9,
                   grid_shape: tuple | None = None,
                   allow_uncertified: bool = False) -> DirichletPlan:
    """Eigenvalue-threshold cutoff: head = modes with lambda <= C.

    mu = 1 - C / lambda_{N+1} > 0.  The stored mode set keeps every mode
    with lambda <= lambda_cut (default 4 max(C, lambda_{N+1})); N may be
    overridden upward only.
    """
    if pot.dim != 1:
        raise ValueError(f"Dirichlet problems take scalar potentials, got dimension {pot.dim}")
    C = curvature_bound(pot, allow_uncertified)

    lam1 = mode_eigenvalue(dom, (1,) * dom.m)
    probe = max(C, lam1) * 4.0 + 1.0
    modes_probe = enumerate_modes(dom, probe)
    n_min = sum(1 for em in modes_probe if em.lam <= C)
    if N is None:
        N = n_min
    elif N < n_min:
        raise ValueError(f"head override {N} is below the certified minimum {n_min}")
    while N >= len(modes_probe):
        probe *= 4.0
        modes_probe = enumerate_modes(dom, probe)
    lam_next = modes_probe[N].lam
    mu = 1.0 - C / lam_next
    if lambda_cut is None:
        lambda_cut = 4.0 * max(C, lam_next)
    if lambda_cut <= lam_next:
        raise ValueError(f"lambda_cut {lambda_cut} leaves no tail modes (lambda_N+1 = {lam_next})")
    modes = tuple(enumerate_modes(dom, lambda_cut))
    if grid_shape is None:
        kmax = _box_extents(modes, dom.m)
        grid_shape = tuple(2 * k + 1 for k in kmax)
    return DirichletPlan(domain=dom, modes=modes, N=int(N), mu=mu,
                         lambda_cut=float(lambda_cut), tail_tol=tail_tol, head_tol=head_tol,
                         certified=pot.certified, c_bound=C, grid_shape=tuple(grid_shape))


def _box_extents(modes, m: int) -> list[int]:
    return [max(em.indices[axis] for em in modes) for axis in range(m)]


@dataclass(frozen=True)
class DirichletField:
    """Scalar field on the rectangle, stored as coefficients on a mode list."""

    domain: RectangleDomain
    modes: tuple
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", frozen_copy(self.coeffs))

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Field values at points of shape (S, m)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(points.shape[0])
        rows = {}  # (axis, k) -> sqrt(2/L) sin(k pi x/L) at the points, shared by modes
        for em, cm in zip(self.modes, self.coeffs):
            basis = None
            for axis, (k, L) in enumerate(zip(em.indices, self.domain.lengths)):
                row = rows.get((axis, k))
                if row is None:
                    row = math.sqrt(2.0 / L) * np.sin(k * math.pi * points[:, axis] / L)
                    rows[axis, k] = row
                basis = row if basis is None else basis * row
            out += cm * basis
        return out

    def on_grid(self, axes) -> np.ndarray:
        """Field values on the tensor grid of ``axes``, one coordinate array per
        axis, shape (len(x1), ..., len(xm)), by ``fourier.tensor_values`` as
        ``GalerkinSystem.action`` does: ``evaluate``'s values up to rounding."""
        k = np.array([em.indices for em in self.modes]).reshape(-1, self.domain.m)
        box = np.zeros(tuple(k.max(axis=0, initial=0)))
        box[tuple(k.T - 1)] = self.coeffs
        return tensor_values([sine_table(L, K, x) for x, K, L in
                              zip(axes, box.shape, self.domain.lengths)], box)

    def h1_norm(self) -> float:
        lams = np.array([em.lam for em in self.modes])
        return float(np.sqrt(np.sum(lams * self.coeffs ** 2)))


class DirichletSystem(GalerkinSystem):
    """Tensor sine-Galerkin discretization of the semilinear Dirichlet problem:
    the field is its sine series on the plan's mode list, with no boundary
    part; V'(0), its boundary value, is projected exactly."""

    def __init__(self, dom: RectangleDomain, pot: Potential, plan: DirichletPlan):
        self.dom = dom
        self.pot = pot
        self.plan = plan
        self.modes = plan.modes
        self.m = dom.m
        self.kbox = _box_extents(self.modes, self.m)
        self.P = tuple(plan.grid_shape)
        k = np.array([em.indices for em in self.modes])
        # exact coefficients of the constant 1: a product of 1-D ones per axis
        rows = [affine_coeffs(L, K, 1.0, 0.0)[:, 0] for L, K in zip(dom.lengths, self.kbox)]
        constant = math.prod(row[k[:, axis] - 1] for axis, row in enumerate(rows))
        with np.errstate(all="ignore"):  # GalerkinSystem rejects a V'(0) that is not finite
            v0 = pot.grad(np.zeros(1))  # V'(0), shape (1,)
            v0_coeffs = v0 * constant
        super().__init__(SineGrid(dom.lengths, self.kbox, self.P, 1, k), pot,
                         np.array([em.lam for em in self.modes]), v0, v0_coeffs)

    # the benchmark's tracer wraps these per class (bench/spans.py)
    nonlinear_coeffs = GalerkinSystem.nonlinear_coeffs
    curvature_matrix = GalerkinSystem.curvature_matrix
    action = GalerkinSystem.action

    def embed(self, c: np.ndarray) -> DirichletField:
        return DirichletField(self.dom, self.modes, c)

    def refined(self) -> "DirichletSystem":
        """The same problem re-planned with four times the eigenvalue cut."""
        plan = self.plan
        fine = dirichlet_plan(self.dom, self.pot, N=plan.N, lambda_cut=4.0 * plan.lambda_cut,
                              tail_tol=plan.tail_tol, head_tol=plan.head_tol,
                              allow_uncertified=True)
        return DirichletSystem(self.dom, self.pot, fine)


DirichletSolution = SolutionReport  # a field's report: its ``field`` is its ``path``


def solve_dirichlet(dom: RectangleDomain, pot: Potential, plan: DirichletPlan,
                    seeds: list[np.ndarray] | None = None, *,
                    count: int = DEFAULT_MULTISTART_COUNT, radius: float | None = None,
                    seed: int = DEFAULT_MULTISTART_SEED, method: str = "newton",
                    refine: bool = True, with_oracles: bool = False,
                    seed_records: list | None = None) -> list[SolutionReport]:
    """Multistart reduced Newton for the Dirichlet problem; see solve_reduced.

    The radius defaults to DEFAULT_MULTISTART_RADIUS; refinement re-plans
    with four times the eigenvalue cut.
    """
    return solve_system(DirichletSystem(dom, pot, plan), plan, seeds, count=count,
                        radius=DEFAULT_MULTISTART_RADIUS if radius is None else float(radius),
                        seed=seed, method=method, refine=refine,
                        with_oracles=with_oracles, seed_records=seed_records)
