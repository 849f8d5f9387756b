"""Shared helpers: deterministic random problem factories."""

import numpy as np
import pytest
from hypothesis import settings

from finred import BoundaryProblem, SinePath, builtin_potential, make_plan
from finred.core import MechanicalSystem

# `pytest --hypothesis-profile=ci` draws more examples for a test that sets no count
# of its own (tests/test_cli_fuzz.py)
settings.register_profile("ci", max_examples=1000)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_pendulum_problem(rng, max_T=3.0):
    g = float(rng.uniform(0.2, 2.0))
    T = float(rng.uniform(0.5, max_T))
    q0 = rng.uniform(-1.5, 1.5, 1)
    qT = rng.uniform(-1.5, 1.5, 1)
    bp = BoundaryProblem(builtin_potential("pendulum", (g,)), T, q0, qT)
    return bp, make_plan(bp)


def picard_tail(bp, plan, u, max_steps=5000):
    """The paper's constructive tail v(u): the contraction v <- V'_tail(u + v) / lambda_tail
    from v = 0 (rate 1 - mu), until the dual H1 norm of the tail residual is within
    plan.tail_tol.  Returns the tail as a path (head zero), whether it converged
    and the H1 size of each step; a reference for the package's tail solve."""
    system = MechanicalSystem(bp, plan.M, plan.quad_points)
    hd = plan.N * bp.n
    eig = system.eigenvalues[hd:]
    v, increments, converged = np.zeros(len(eig)), [], False
    for _ in range(max_steps):
        vprime = system.nonlinear_coeffs(np.concatenate([u, v]))[hd:]
        r = eig * v - vprime
        converged = np.sqrt(np.sum(r * r / eig)) <= plan.tail_tol
        if converged:
            break
        new = vprime / eig
        increments.append(float(np.sqrt(np.sum(eig * (new - v) ** 2))))
        v = new
    path = SinePath(bp.T, system.unflatten(np.concatenate([np.zeros(hd), v])))
    return path, converged, increments


def random_builtin_problem(rng):
    """A random problem over every built-in family (used by property tests)."""
    kind = rng.choice(["zero", "harmonic", "pendulum", "coupled_pendula"])
    if kind == "zero":
        pot = builtin_potential("zero", dim=int(rng.integers(1, 3)))
    elif kind == "harmonic":
        n = int(rng.integers(1, 3))
        pot = builtin_potential("harmonic", tuple(rng.uniform(0.3, 2.0, n)), dim=n)
    elif kind == "pendulum":
        pot = builtin_potential("pendulum", (float(rng.uniform(0.2, 2.0)),),
                                dim=int(rng.integers(1, 3)))
    else:
        pot = builtin_potential("coupled_pendula",
                                (float(rng.uniform(0.2, 1.5)), float(rng.uniform(0.1, 0.8))),
                                dim=2)
    n = pot.dim
    T = float(rng.uniform(0.5, 3.0))
    bp = BoundaryProblem(pot, T, rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))
    return bp, make_plan(bp, M=16)


def random_combined_path(rng, bp, plan, head_scale=1.0, tail_scale=1.0):
    """Random H1-regular path: tail coefficients decay like 1/k^2."""
    coeffs = np.zeros((plan.M, bp.n))
    coeffs[:plan.N] = head_scale * rng.standard_normal((plan.N, bp.n))
    decay = 1.0 / np.arange(plan.N + 1, plan.M + 1)[:, None] ** 2
    coeffs[plan.N:] = tail_scale * decay * rng.standard_normal((plan.M - plan.N, bp.n))
    return SinePath(bp.T, coeffs)


def refuse_grids(*args, **kwargs):
    """Stand-in for core.SineGrid in size-cap tests: a missing check fails, not allocates."""
    raise AssertionError("a sine grid was built")
