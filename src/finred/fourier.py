"""Sine-basis representation of paths vanishing at both endpoints.

Basis functions are phi_k(t) = sqrt(2/T) sin(k pi t / T), orthonormal in
L^2([0, T]).  A path c(t) = sum_k c^(k) phi_k(t) then satisfies

    ||c||_{L2}^2  = sum_k |c^(k)|^2
    ||c||_{H10}^2 = int |c'|^2 = sum_k (pi k / T)^2 |c^(k)|^2

Grid transforms and the curvature matrix of a sampled V'' go through
one engine, ``SineGrid``, for paths (one axis, n components) and for
fields on rectangles (m axes, one component); its docstring states the
DST-I scaling, the grid rule and the Toeplitz-minus-Hankel identity.

The transform is finred's own ``dst``: scipy's pocketfft DST-I kernel,
called as ``scipy.fftpack.dst`` calls it and giving the same bits, without
the argument handling and dispatch of scipy's wrappers (half or more of a
call on small grids).  Synthesis zero-pads through the transform's ``n=P``.
The kernel, and core's LAPACK ``dpotrf``/``dpotrs``, are compiled scipy
modules loaded from their own files by ``scipy_extension``, so that
``import finred`` does not run the ``__init__`` of ``scipy.fft`` and
``scipy.linalg`` (about 0.45 s, see the README's "Dependencies"); a later
import of either package reuses the modules and binds them as its
attributes (``_BindOnImport``).
"""

from __future__ import annotations

import importlib
import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import machinery, util

import numpy as np

from .potentials import Potential

__all__ = [
    "SinePath",
    "SineGrid",
    "BoundaryProblem",
    "grid_points",
    "mode_eigenvalues",
    "affine_embed",
    "sine_table",
    "tensor_values",
    "sample_on_grid",
    "analyze_on_grid",
    "project_head",
    "project_tail",
    "affine_coeffs",
    "h1_inner",
    "l2_inner",
]


def scipy_extension(name: str):
    """The compiled scipy module ``name``, e.g. "scipy.linalg._flapack",
    without the ``__init__`` of the subpackages above it.

    A module already in ``sys.modules`` is reused.  Otherwise the file is
    found under ``scipy.__path__`` (after ``import scipy``, which sets up
    scipy's shared libraries) and loaded and registered under ``name``, so
    that a later import of its package reuses it.  Without such a file the
    module comes from a plain import of ``name``, the slow way."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    import scipy

    package, _, attr = name.rpartition(".")
    finder = machinery.FileFinder(os.path.join(scipy.__path__[0], *package.split(".")[1:]),
                                  (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(name)
    if spec is None:
        return importlib.import_module(name)
    module = sys.modules[name] = util.module_from_spec(spec)
    spec.loader.exec_module(module)
    _BindOnImport.children[package] = attr, module
    return module


class _BindOnImport:
    """``sys.meta_path`` finder: a package imported after ``scipy_extension``
    registered a child of it gets the child as its attribute once its
    ``__init__`` has run, as an import that loads the child would bind it."""

    children: dict = {}  # package name -> (attribute, module)

    @classmethod
    def find_spec(cls, name, path=None, target=None):
        child = cls.children.pop(name, None)
        spec = None if child is None else machinery.PathFinder.find_spec(name, path, target)
        if spec is not None:
            def exec_module(module, run=spec.loader.exec_module):
                run(module)
                setattr(module, *child)
            spec.loader.exec_module = exec_module
        return spec


sys.meta_path.insert(0, _BindOnImport)
_pocketfft = scipy_extension("scipy.fft._pocketfft.pypocketfft")


def dst(x, type: int = 1, n: int | None = None, axis: int = -1) -> np.ndarray:
    """``scipy.fftpack.dst(x, type, n, axis)`` of a float array, bit for bit:
    the unnormalised DST of that type along ``axis``, of x zero-padded to n
    points there, by pocketfft on one thread."""
    x = np.asarray(x, dtype=float)
    out = None
    if n is not None and n != x.shape[axis]:
        shape = list(x.shape)
        shape[axis] = n
        out = np.zeros(shape)
        index = [slice(None)] * x.ndim
        index[axis] = slice(0, x.shape[axis])
        out[tuple(index)] = x
        x = out  # transformed in place, as scipy.fftpack does with its padded copy
    return _pocketfft.dst(x, type, (axis,), 0, out, 1)


# geometry-only tables (cosine rows here, Gauss rules in core) kept per process
TABLE_CACHE_SIZE = 8


def frozen_copy(a, ndmin: int = 0) -> np.ndarray:
    """A read-only float copy of ``a``, with at least ``ndmin`` axes; ``a`` stays writeable."""
    a = np.array(a, dtype=float, ndmin=ndmin)
    a.flags.writeable = False
    return a


def sine_table(L: float, K: int, x) -> np.ndarray:
    """Modes sqrt(2/L) sin(k pi x/L), k = 1..K, at the points x, shape (len(x), K):
    the basis off the grid, for paths, fields and the Gauss rules of the action."""
    return np.sqrt(2.0 / L) * np.sin(np.outer(x, np.arange(1, K + 1)) * np.pi / L)


def tensor_values(tables, box: np.ndarray) -> np.ndarray:
    """Values on a tensor grid of a coefficient box of shape K + rest, from the
    per-axis tables (S_i, K_i) of ``sine_table``: one matrix product per
    axis (a second axis needs rest = () or (1,)); shape S + rest."""
    first, *others = tables
    values = first @ box.reshape(first.shape[1], -1)
    for table in others:
        values = values @ table.T
    return values.reshape(tuple(len(t) for t in tables) + box.shape[len(tables):])


@dataclass(frozen=True)
class SinePath:
    """Immutable path in the sine basis: ``coeffs[k-1]`` is c^(k) in R^n."""

    T: float
    coeffs: np.ndarray  # shape (M, n)

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError(f"time horizon must be positive, got {self.T}")
        object.__setattr__(self, "coeffs", frozen_copy(self.coeffs, ndmin=2))

    @property
    def M(self) -> int:
        return self.coeffs.shape[0]

    @property
    def n(self) -> int:
        return self.coeffs.shape[1]

    def evaluate(self, ts) -> np.ndarray:
        """Values c(t) by direct sine synthesis; ts scalar or array."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        return sine_table(self.T, self.M, ts) @ self.coeffs

    def h1_norm(self) -> float:
        return float(np.sqrt(np.sum(mode_eigenvalues(self.T, self.M)[:, None] * self.coeffs ** 2)))

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


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
        q0 = frozen_copy(self.q0, ndmin=1)
        qT = frozen_copy(self.qT, ndmin=1)
        n = self.potential.dim
        if q0.shape != (n,) or qT.shape != (n,):
            raise ValueError(
                f"endpoints must have shape ({n},), got {q0.shape} and {qT.shape}")
        for name, value in (("q0", q0), ("qT", qT)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"endpoint {name} must be finite, got {value.tolist()}")
        object.__setattr__(self, "q0", q0)
        object.__setattr__(self, "qT", qT)

    @property
    def n(self) -> int:
        return self.potential.dim

    def drift(self, ts) -> np.ndarray:
        """Straight-line part q0 + (qT - q0) t / T, shape (len(ts), n)."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        return self.q0[None, :] + np.outer(ts / self.T, self.qT - self.q0)

    def check_path(self, c: SinePath) -> None:
        """Raise ValueError unless c has this problem's components and horizon."""
        if c.n != self.n:
            raise ValueError(f"path has {c.n} components but problem has {self.n}")
        if c.T != self.T:
            raise ValueError(f"path horizon {c.T} differs from problem horizon {self.T}")


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
    return SineGrid((c.T,), (c.M,), (P,), c.n).synthesize(c.coeffs)


def analyze_on_grid(values: np.ndarray, T: float, M: int) -> SinePath:
    """First M sine coefficients of grid values (inverse of sample_on_grid)."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.ndim != 2:
        raise ValueError(f"values must be a (P, n) array, got shape {values.shape}")
    P, n = values.shape
    return SinePath(T, SineGrid((T,), (M,), (P,), n).analyze(values))


class SineGrid:
    """Sine coefficients <-> grid values, and the curvature matrix of V''.

    Axis i of m in {1, 2} has length L_i, modes k = 1..K_i of the
    orthonormal basis sqrt(2/L_i) sin(k pi x/L_i), and interior nodes
    x_p = p L_i/(P_i+1), p = 1..P_i; every field has n components (a path
    in R^n on one axis, a scalar field with n = 1 on a rectangle).
    Coefficient boxes have shape K and grid values shape P on their
    leading axes; any further axes (a path's n components) ride along.

    DST-I scaling: scipy's unnormalised DST-I is exactly orthogonal for
    modes k <= P and is its own inverse up to 2(P+1).  Per axis, synthesis
    takes 0.5 sqrt(2/L) DST-I of the coefficients zero-padded to P (the
    transform's ``n=P``); analysis takes sqrt(2L)/(2(P+1)) DST-I and keeps
    the first K.  So there is one DST call per axis per transform.

    Grid rule: P_i >= 2 K_i + 1 on every axis (checked here), so products
    of two band-limited factors are alias-free and every cosine index
    below lies inside the transform.

    Curvature: W[a, b] is the grid quadrature of V''_ij phi_k phi_l, for
    flat indices a = (k, i), b = (l, j) in ``modes`` order, mode-major
    (k a multi-index).  On each axis the nodes obey

        2 sin(k pi p/(P+1)) sin(l pi p/(P+1))
            = cos((k-l) pi p/(P+1)) - cos((k+l) pi p/(P+1)),

    so with C the cosine transform of the sampled V'', C[m] =
    sum_p V''(x_p) cos(m pi p/(P+1)) / (P+1) on each axis (a product of
    (2K+1, P) cosine rows, read-only and shared by every grid with that
    (K, P)), W is Toeplitz-minus-Hankel per axis:

        W[k, l] = C[|k-l|] - C[k+l]                                (1-D)
        W[(k1,k2),(l1,l2)] = C[|k1-l1|,|k2-l2|] - C[k1+l1,|k2-l2|]
                             - C[|k1-l1|,k2+l2] + C[k1+l1,k2+l2]  (2-D)

    per component pair (i, j); indices reach k + l <= 2K < P + 1.
    """

    def __init__(self, lengths, K, P, n: int, modes=None):
        """``modes``: one-based multi-indices, shape (modes, m), in the
        caller's flat order; the whole box in C order by default."""
        self.lengths = tuple(float(L) for L in lengths)
        self.K = tuple(int(k) for k in K)
        self.P = tuple(int(p) for p in P)
        self.n = int(n)
        for axis, (k, p) in enumerate(zip(self.K, self.P)):
            if p < 2 * k + 1:
                raise ValueError(f"anti-aliasing rule requires P >= 2K+1 = {2 * k + 1} "
                                 f"on axis {axis}, got {p}")
        self.modes = (np.indices(self.K).reshape(len(self.K), -1).T + 1 if modes is None
                      else np.asarray(modes))

    def synthesize(self, box: np.ndarray) -> np.ndarray:
        """Grid values, shape P + rest, of a coefficient box of shape K + rest."""
        values = box
        for axis, (L, P) in enumerate(zip(self.lengths, self.P)):
            values = 0.5 * math.sqrt(2.0 / L) * dst(values, type=1, n=P, axis=axis)
        return values

    def analyze(self, values: np.ndarray) -> np.ndarray:
        """Coefficient box, shape K + rest, of grid values of shape P + rest."""
        box = values
        for axis, (L, P, K) in enumerate(zip(self.lengths, self.P, self.K)):
            box = dst(box, type=1, axis=axis) * (math.sqrt(2.0 * L) / (2.0 * (P + 1)))
            box = box[(slice(None),) * axis + (slice(0, K),)]
        return box

    def curvature(self, H: np.ndarray) -> np.ndarray:
        """The (D, D) matrix W, D = n * len(modes), of V'' samples H of
        shape P + (n, n); a fresh array on every call."""
        n, m = self.n, len(self.P)
        if n > 1:  # a 1 x 1 block is its own transpose
            H = 0.5 * (H + np.swapaxes(H, -1, -2))
        C = H.transpose((m, m + 1) + tuple(range(m))).reshape((n * n,) + self.P)
        cos = self._cosines
        pair, toeplitz, hankel = self._gather
        if m == 1:
            C = C @ cos[0].T
        else:
            C = cos[0] @ C @ cos[1].T
            C = C[:, pair[0]] - C[:, pair[1]]
        C = C.ravel()
        W = C[toeplitz]
        W -= C[hankel]
        return W

    @cached_property
    def _cosines(self) -> list[np.ndarray]:
        """Per axis, the shared cosine rows of its (K, P)."""
        return [_cosine_rows(K, P) for K, P in zip(self.K, self.P)]

    @cached_property
    def _gather(self):
        """Index arrays of the identity into C, whose layout is (n n,) + (2K+1 per axis).

        In 2-D, ``pair`` holds (K1, K1) arrays of |k1-l1| and k1+l1; they
        pick the first axis of C and leave E[i n + j, k1-1, l1-1, m2].  In
        1-D it is None.  ``toeplitz`` and ``hankel`` hold the flat (D, D)
        positions of m = |k-l| and m = k+l on the last axis, in C (1-D) or
        E (2-D), for W[a, b] with a = (k, i) and b = (l, j).

        A position is a part of row a plus a part of column b plus m:
        S (((i n + j) K1 + k1-1) K1 + l1-1) + m with S the last axis's 2K+1,
        that is S (i n K1^2 + (k1-1) K1) + S (j K1^2 + l1-1) + m.  In 1-D
        the leading extent K1 is 1 and k1-1 is 0.  So each table is one
        (D, D) outer operation and in-place adds.
        """
        n, K = self.n, self.K
        k = np.repeat(self.modes, n, axis=0)
        i = np.tile(np.arange(n), len(self.modes))
        stride = 2 * K[-1] + 1
        lead = math.prod(K[:-1])
        rows = (k[:, :-1] - 1).sum(axis=1)  # k1 - 1, an empty sum in 1-D
        row_part = stride * (i * (n * lead * lead) + rows * lead)
        col_part = stride * (i * (lead * lead) + rows)
        pair = None
        if len(K) == 2:
            k1 = np.arange(1, K[0] + 1)
            pair = (np.abs(k1[:, None] - k1[None, :]), k1[:, None] + k1[None, :])
        last = k[:, -1]
        toeplitz = np.subtract.outer(last, last)
        np.abs(toeplitz, out=toeplitz)
        toeplitz += row_part[:, None]
        toeplitz += col_part
        return pair, toeplitz, np.add.outer(row_part + last, col_part + last)


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _cosine_rows(K: int, P: int) -> np.ndarray:
    """cos(m pi p/(P+1)) / (P+1) for m = 0..2K and p = 1..P, read-only; built
    once per (K, P), the TABLE_CACHE_SIZE most recent kept."""
    rows = (np.cos(np.outer(np.arange(2 * K + 1), np.arange(1, P + 1)) * (math.pi / (P + 1)))
            / (P + 1))
    rows.flags.writeable = False
    return rows


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
