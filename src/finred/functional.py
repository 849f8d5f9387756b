"""Action functional on the loop space: values, gradient, truncated Hessian.

Two gradient conventions are exposed and every solver contract states
which one it uses:

* ``euler_lagrange`` -- residual coefficients r^(k) = (pi k/T)^2 c^(k) - g^(k)
  with g the sine coefficients of V' along the embedded path (L2 pairing);
* ``riesz_h1``       -- the H10 Riesz representative, mode k divided by
  (pi k/T)^2.

Hessian blocks default to the L2 coefficient convention, in which the
free (V = 0) operator is the diagonal (pi k/T)^2.
"""

from __future__ import annotations

import numpy as np

from .core import HessianBlocks, MechanicalSystem, ReducedPoint
from .fourier import BoundaryProblem, SinePath

__all__ = ["HessianBlocks", "action_value", "blocks_at", "gradient", "hessian_blocks"]


def action_value(bp: BoundaryProblem, c: SinePath, quad_points: int | None = None) -> float:
    """Integral of 1/2 |path'|^2 - V(path) along the embedded path.

    The kinetic part is summed exactly from coefficients (the affine/loop
    cross term vanishes by the boundary conditions); the potential part
    uses composite Gauss quadrature sized to resolve all M modes.
    """
    system = _system(bp, c, quad_points)
    return system.action(system.flatten(c.coeffs))


def gradient(bp: BoundaryProblem, c: SinePath, convention: str = "euler_lagrange",
             quad_points: int | None = None) -> SinePath:
    """First-variation coefficients of the action at c, as a SinePath."""
    system = _system(bp, c, quad_points)
    r = system.residual(system.flatten(c.coeffs))
    if convention == "riesz_h1":
        r = r / system.eigenvalues
    elif convention != "euler_lagrange":
        raise ValueError(f"unknown gradient convention {convention!r}")
    return SinePath(bp.T, system.unflatten(r))


def blocks_at(system, head_dim: int, c: np.ndarray) -> HessianBlocks:
    """Head/tail blocks of a system's Hessian at coefficients c, head = first head_dim entries."""
    return ReducedPoint(system, head_dim, c).blocks


def hessian_blocks(bp: BoundaryProblem, c: SinePath, N: int,
                   quad_points: int | None = None) -> HessianBlocks:
    """Assemble the truncated second variation, partitioned at mode N."""
    if not 0 <= N <= c.M:
        raise ValueError(f"cutoff must satisfy 0 <= N <= M = {c.M}, got {N}")
    system = _system(bp, c, quad_points)
    return blocks_at(system, N * bp.n, system.flatten(c.coeffs))


def _system(bp: BoundaryProblem, c: SinePath, quad_points: int | None) -> MechanicalSystem:
    bp.check_path(c)
    return MechanicalSystem(bp, c.M, quad_points)
