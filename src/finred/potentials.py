"""Potential energies with exact derivatives and a certified curvature bound.

A :class:`Potential` bundles V, V', V'' together with ``c_bound``, a global
bound on the operator norm of V''.  The reduction machinery consumes only
this interface; how the bound was obtained is recorded in ``c_source``:

* ``exact``           -- derived analytically (built-in families),
* ``user_supplied``   -- asserted by the caller; a plan rejects it when
  the sampler below finds a larger Hessian norm,
* ``sampled_estimate``-- 1.25 x the largest Hessian norm seen on a
  deterministic sample grid (a practical fallback, never a proof).

All callables are batched: for points of shape ``(..., n)`` they return
values of shape ``(...)``, gradients ``(..., n)`` and Hessians
``(..., n, n)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from . import exprparse
from .exprparse import ExpressionError

__all__ = [
    "Potential",
    "builtin_potential",
    "parse_potential",
    "BUILTIN_FAMILIES",
    "ExpressionError",
]

BUILTIN_FAMILIES = ("zero", "harmonic", "pendulum", "coupled_pendula")

# Deterministic sampling used for estimated curvature bounds: a tensor grid
# with 41 points per axis on [-10, 10] (for n <= 3, else per-axis lines
# through the origin) plus 200 uniform pseudorandom points, seed 20240.
_SAMPLE_SEED = 20240
_SAMPLE_HALF_WIDTH = 10.0
_SAMPLE_AXIS_POINTS = 41
_SAMPLE_RANDOM_POINTS = 200
_SAMPLE_SAFETY = 1.25
# the most variables of an expression: its V'' has dim^2 derivatives, and the
# sample's V'' table of (41 dim + 200) x dim^2 floats grows as dim^3 (12 MB at 32)
EXPR_DIM_CAP = 32
# parsed expression potentials kept per process, keyed by the call's arguments
PARSE_CACHE_SIZE = 32


@dataclass(frozen=True)
class Potential:
    """Energy V: R^n -> R with exact first/second derivatives.

    ``c_bound`` bounds sup over q of the spectral norm of V''(q) whenever
    ``certified`` is true; otherwise it is a best-effort estimate and every
    downstream report must be flagged accordingly.  ``c_sampled`` is the
    largest norm of V'' on the sample points, where it was taken: for an
    expression without ``c_bound`` (the estimate is 1.25 times it) and for
    one whose user bound would be certified (a plan checks the bound
    against it, see ``reduction.curvature_bound``); None otherwise.
    """

    dim: int
    eval: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    c_bound: float
    c_source: str  # 'exact' | 'user_supplied' | 'sampled_estimate'
    unbounded_warning: bool = False
    label: str = ""
    expression: str = field(default="", compare=False)
    c_sampled: float | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        if not math.isfinite(self.c_bound) or self.c_bound < 0:
            raise ValueError(f"c_bound must be finite and nonnegative, got {self.c_bound}")
        if self.c_source not in ("exact", "user_supplied", "sampled_estimate"):
            raise ValueError(f"unknown c_source {self.c_source!r}")

    @property
    def certified(self) -> bool:
        return self.c_source in ("exact", "user_supplied") and not self.unbounded_warning


def _as_points(q: np.ndarray, dim: int) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape[-1:] != (dim,):
        raise ValueError(f"points must have trailing dimension {dim}, got shape {q.shape}")
    return q


def _diagonal_hessian(q: np.ndarray, diagonal) -> np.ndarray:
    """Hessians, shape q.shape + (n,), with ``diagonal`` on their diagonals,
    written through the flat (..., n*n) view, where a step of n + 1 walks it."""
    n = q.shape[-1]
    out = np.zeros(q.shape + (n,))
    out.reshape(q.shape[:-1] + (n * n,))[..., ::n + 1] = diagonal
    return out


def builtin_potential(family: str, params=(), dim: int | None = None) -> Potential:
    """Construct a built-in potential with an exact curvature bound.

    Families (q in R^n):

    * ``zero``                    V = 0
    * ``harmonic``                V = 1/2 sum_i w_i^2 q_i^2, params = per-axis
                                  frequencies (single value broadcasts)
    * ``pendulum``                V = -g sum_i cos(q_i), params = (g,)
    * ``coupled_pendula``         V = -g sum_i cos(q_i)
                                  - (kappa/2) sum_i cos(q_i - q_{i+1}),
                                  params = (g, kappa); bound g + 2 kappa
                                  covers the worst chain configuration

    The pendulum is the chain without its coupling terms (not the chain at
    kappa = 0, whose zero coupling would still turn a -0.0 of V' into 0.0).
    """
    params = tuple(float(p) for p in params)
    if any(not math.isfinite(p) for p in params):
        raise ValueError("potential parameters must be finite")
    if family not in BUILTIN_FAMILIES:
        raise ValueError(f"unknown potential family {family!r}; choose from {BUILTIN_FAMILIES}")
    if family == "harmonic" and not params:
        raise ValueError("harmonic potential needs at least one frequency")
    if family == "pendulum":
        if len(params) != 1:
            raise ValueError("pendulum expects a single parameter g")
        g, kappa = params[0], 0.0
        if g < 0:
            raise ValueError(f"pendulum strength g must be nonnegative, got {g}")
    if family == "coupled_pendula":
        if len(params) != 2:
            raise ValueError("coupled_pendula expects parameters (g, kappa)")
        g, kappa = params
        if g < 0 or kappa < 0:
            raise ValueError(f"coupled_pendula needs g, kappa >= 0, got ({g}, {kappa})")
    default_dim = {"harmonic": len(params), "coupled_pendula": 2}.get(family, 1)
    n = int(dim) if dim is not None else default_dim
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    # the exact bound of |V''|; pair terms contribute at most
    # (kappa/2) * lambda_max(path Laplacian) < 2 kappa
    bound = (0.0 if family == "zero" else max(w * w for w in params) if family == "harmonic"
             else g + 2.0 * kappa if family == "coupled_pendula" else g)
    if not math.isfinite(bound):
        raise ValueError(f"params = {', '.join(map(str, params))} give {family} a curvature "
                         f"bound that is not a finite float")

    if family == "zero":
        return Potential(n, lambda q: np.zeros(np.asarray(q, dtype=float).shape[:-1]),
                         lambda q: np.zeros_like(np.asarray(q, dtype=float)),
                         lambda q: np.zeros(np.asarray(q, dtype=float).shape + (n,)),
                         c_bound=bound, c_source="exact", label=family)

    if family == "harmonic":
        if len(params) not in (1, n):
            raise ValueError(f"harmonic expects 1 or {n} frequencies, got {len(params)}")
        w2 = np.resize(np.array(params) ** 2, n)  # one frequency broadcasts

        def h_eval(q):
            q = _as_points(q, n)
            return 0.5 * np.sum(w2 * q * q, axis=-1)

        def h_grad(q):
            q = _as_points(q, n)
            return w2 * q

        def h_hess(q):
            return _diagonal_hessian(_as_points(q, n), w2)

        return Potential(n, h_eval, h_grad, h_hess, c_bound=bound, c_source="exact", label=family)

    coupled = family == "coupled_pendula" and n > 1

    def c_eval(q):
        q = _as_points(q, n)
        on_site = -g * np.sum(np.cos(q), axis=-1)
        if not coupled:
            return on_site
        return on_site - 0.5 * kappa * np.sum(np.cos(q[..., :-1] - q[..., 1:]), axis=-1)

    def c_grad(q):
        q = _as_points(q, n)
        out = g * np.sin(q)
        if coupled:
            s = 0.5 * kappa * np.sin(q[..., :-1] - q[..., 1:])
            out[..., :-1] += s
            out[..., 1:] -= s
        return out

    def c_hess(q):
        q = _as_points(q, n)
        out = _diagonal_hessian(q, g * np.cos(q))
        if coupled:
            cdiff = 0.5 * kappa * np.cos(q[..., :-1] - q[..., 1:])
            flat = out.reshape(q.shape[:-1] + (n * n,))  # entry (i, j) sits at i n + j
            flat[..., :-1:n + 1] += cdiff
            flat[..., n + 1::n + 1] += cdiff
            flat[..., 1::n + 1] -= cdiff
            flat[..., n::n + 1] -= cdiff
        return out

    return Potential(n, c_eval, c_grad, c_hess, c_bound=bound, c_source="exact", label=family)


def _sample_points(dim: int) -> np.ndarray:
    axis = np.linspace(-_SAMPLE_HALF_WIDTH, _SAMPLE_HALF_WIDTH, _SAMPLE_AXIS_POINTS)
    if _SAMPLE_AXIS_POINTS ** dim <= 80_000:
        grids = np.meshgrid(*([axis] * dim), indexing="ij")
        grid_pts = np.stack([g.ravel() for g in grids], axis=-1)
    else:
        # high dimension: axis-aligned lines through the origin
        blocks = []
        for i in range(dim):
            pts = np.zeros((_SAMPLE_AXIS_POINTS, dim))
            pts[:, i] = axis
            blocks.append(pts)
        grid_pts = np.concatenate(blocks, axis=0)
    rng = np.random.default_rng(_SAMPLE_SEED)
    rand_pts = rng.uniform(-_SAMPLE_HALF_WIDTH, _SAMPLE_HALF_WIDTH, (_SAMPLE_RANDOM_POINTS, dim))
    return np.concatenate([grid_pts, rand_pts], axis=0)


def hessian_norms(pot_hess: Callable, points: np.ndarray) -> np.ndarray:
    """Spectral norm of the (symmetrized) Hessian at each sample point."""
    H = pot_hess(points)
    H = 0.5 * (H + np.swapaxes(H, -1, -2))
    return np.max(np.abs(np.linalg.eigvalsh(H)), axis=-1)


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse_potential(expr: str, dim: int, c_bound: float | None = None) -> Potential:
    """Build a Potential from an expression in q1..q{dim}.

    Derivatives are exact: ``exprparse.derivative`` differentiates the
    parsed expression, and ``exprparse.compile`` turns it and each
    derivative into a numpy function once; V, V' and V'' fill a fresh
    ``(..., k)`` array from those functions, one component at a time.
    Without ``c_bound`` the curvature bound is a sampled estimate;
    expressions whose curvature cannot be certified as globally bounded
    (polynomial degree > 2, transcendentals of nonlinear arguments)
    additionally carry ``unbounded_warning``.  A ``c_bound`` that would be
    certified is sampled once here, into ``c_sampled``, so that every plan
    of the potential can check it without sampling again.  The potential
    is immutable, so the PARSE_CACHE_SIZE most recent ones are kept: a
    command that reads its config twice, or a process that runs ``solve``
    and then ``index`` on it, parses and samples it once.  An expression
    with a constant part that is not finite, in it or in a derivative
    (``q1/0``, ``0^q1``, ``(-2)^q1``), is a ValueError, and so is a
    dimension above EXPR_DIM_CAP.
    """
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    if dim > EXPR_DIM_CAP:
        raise ValueError(f"an expression takes at most {EXPR_DIM_CAP} variables, "
                         f"got dimension {dim}")
    ast = exprparse.parse(expr, dim)
    with np.errstate(all="ignore"):  # a literal may fold to inf or nan: rejected below
        grads = [exprparse.derivative(ast, i) for i in range(dim)]
        hessians = [exprparse.derivative(g, j) for g in grads for j in range(dim)]
        bad = next(filter(None, map(exprparse.nonfinite_constant, [ast, *grads, *hessians])),
                   None)
    if bad is not None:
        raise ValueError(f"expression {expr!r} or a derivative of it has a constant part "
                         f"that is not finite: {exprparse.pretty(bad)}")

    f_eval, f_grad, f_hess = ([exprparse.compile(node) for node in nodes]
                              for nodes in ([ast], grads, hessians))

    def values(fs, q):
        """The functions at the points q, on a new last axis."""
        out = np.empty(q.shape[:-1] + (len(fs),))
        for j, f in enumerate(fs):
            out[..., j] = f(q)
        return out

    def p_eval(q):
        return values(f_eval, _as_points(q, dim))[..., 0]

    def p_grad(q):
        return values(f_grad, _as_points(q, dim))

    def p_hess(q):
        q = _as_points(q, dim)
        return values(f_hess, q).reshape(q.shape + (dim,))

    if c_bound is not None and not (math.isfinite(c_bound) and c_bound >= 0):
        raise ValueError(f"c_bound must be finite and nonnegative, got {c_bound}")
    unbounded = exprparse.growth_degree(ast) > 2.0
    sampled = None  # sampled where it decides something: an estimate, or a bound's check
    if c_bound is None or not unbounded:
        with np.errstate(all="ignore"):  # an overflow samples inf, which no bound passes
            sampled = float(np.max(hessian_norms(p_hess, _sample_points(dim))))
    if c_bound is not None:
        bound, source = float(c_bound), "user_supplied"
    else:
        bound, source = _SAMPLE_SAFETY * sampled, "sampled_estimate"

    return Potential(dim, p_eval, p_grad, p_hess,
                     c_bound=bound, c_source=source,
                     unbounded_warning=unbounded, c_sampled=sampled,
                     label="expression", expression=exprparse.pretty(ast))
