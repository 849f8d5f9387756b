"""Action values, gradients (two conventions), Hessian block assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from finred import (BoundaryProblem, SinePath, action_value, builtin_potential,
                    gradient, hessian_blocks, parse_potential)
from finred.core import MechanicalSystem
from finred.fourier import l2_inner, mode_eigenvalues
from tests.conftest import random_builtin_problem, random_combined_path


def harmonic_bvp():
    """omega=1, T=pi/2, endpoints 0 -> 1; the solution is q(t) = sin t."""
    pot = builtin_potential("harmonic", (1.0,))
    return BoundaryProblem(pot, np.pi / 2, [0.0], [1.0])


def harmonic_solution_coeffs(M):
    """Loop coefficients of sin t - 2t/pi on [0, pi/2].

    Closed form: c_k = (-1)^(k+1) / (sqrt(pi) k (4 k^2 - 1)); cross-checked
    against adaptive quadrature below before use.
    """
    k = np.arange(1, M + 1)
    return ((-1.0) ** (k + 1) / (np.sqrt(np.pi) * k * (4.0 * k**2 - 1.0)))[:, None]


def test_harmonic_solution_coeffs_against_quadrature():
    T = np.pi / 2
    coeffs = harmonic_solution_coeffs(5)[:, 0]
    for k in range(1, 6):
        ref, _ = quad(lambda t: (np.sin(t) - 2 * t / np.pi)
                      * np.sqrt(2 / T) * np.sin(k * np.pi * t / T), 0, T, epsabs=1e-13)
        assert np.isclose(coeffs[k - 1], ref, atol=1e-12)


# ---------------------------------------------------------------------------
# action

def test_action_resting_point():
    pot = builtin_potential("zero", dim=2)
    bp = BoundaryProblem(pot, 1.5, [0.3, -0.2], [0.3, -0.2])
    c = SinePath(1.5, np.zeros((8, 2)))
    assert action_value(bp, c) == pytest.approx(0.0, abs=1e-15)


def test_action_free_straight_line():
    pot = builtin_potential("zero", dim=2)
    d = np.array([2.0, -1.0])
    bp = BoundaryProblem(pot, 4.0, [0.0, 0.0], d)
    c = SinePath(4.0, np.zeros((8, 2)))
    assert action_value(bp, c) == pytest.approx(float(d @ d) / 8.0, rel=1e-14)


def test_action_harmonic_analytic_value():
    # along q(t) = sin t the integrand is (cos^2 t - sin^2 t)/2, integral 0
    bp = harmonic_bvp()
    c = SinePath(bp.T, harmonic_solution_coeffs(400))
    assert abs(action_value(bp, c)) < 1e-8


# ---------------------------------------------------------------------------
# gradient

def test_gradient_free_particle(rng):
    pot = builtin_potential("zero", dim=2)
    bp = BoundaryProblem(pot, 2.0, [0.0, 1.0], [1.0, 0.0])
    c = SinePath(2.0, rng.standard_normal((10, 2)))
    r = gradient(bp, c)
    eig = mode_eigenvalues(2.0, 10)
    assert np.allclose(r.coeffs, eig[:, None] * c.coeffs, rtol=1e-12, atol=1e-12)
    riesz = gradient(bp, c, convention="riesz_h1")
    assert np.allclose(riesz.coeffs, c.coeffs, rtol=1e-12, atol=1e-12)


def test_gradient_vanishes_at_harmonic_solution():
    bp = harmonic_bvp()
    c = SinePath(bp.T, harmonic_solution_coeffs(64))
    r = gradient(bp, c)
    assert np.max(np.abs(r.coeffs)) < 1e-8


def test_gradient_matches_directional_derivative(rng):
    for _ in range(50):
        bp, plan = random_builtin_problem(rng)
        c = random_combined_path(rng, bp, plan, head_scale=0.5, tail_scale=0.5)
        h = random_combined_path(rng, bp, plan, head_scale=0.5, tail_scale=0.5)
        r = gradient(bp, c)
        pairing = l2_inner(r, h)
        eps = 1e-5
        plus = action_value(bp, SinePath(bp.T, c.coeffs + eps * h.coeffs))
        minus = action_value(bp, SinePath(bp.T, c.coeffs - eps * h.coeffs))
        fd = (plus - minus) / (2 * eps)
        assert np.isclose(pairing, fd, rtol=1e-5, atol=1e-8)


def test_gradient_rejects_unknown_convention(rng):
    bp, plan = random_builtin_problem(rng)
    c = random_combined_path(rng, bp, plan)
    with pytest.raises(ValueError, match="convention"):
        gradient(bp, c, convention="h2")


# ---------------------------------------------------------------------------
# hessian blocks

def test_hessian_free_particle_is_diagonal(rng):
    pot = builtin_potential("zero", dim=2)
    bp = BoundaryProblem(pot, 3.0, [0.0, 0.0], [1.0, -1.0])
    c = SinePath(3.0, rng.standard_normal((8, 2)))
    blocks = hessian_blocks(bp, c, N=3)
    eig = np.repeat(mode_eigenvalues(3.0, 8), 2)
    assert np.allclose(blocks.full(), np.diag(eig), atol=1e-14)
    assert np.all(blocks.B == 0.0)


def test_hessian_harmonic_constant_shift(rng):
    omega = 1.7
    pot = builtin_potential("harmonic", (omega,))
    bp = BoundaryProblem(pot, 2.5, [0.0], [1.0])
    c = SinePath(2.5, rng.standard_normal((12, 1)))
    blocks = hessian_blocks(bp, c, N=4)
    eig = mode_eigenvalues(2.5, 12)
    assert np.allclose(blocks.full(), np.diag(eig - omega**2), atol=1e-12)


def test_hessian_symmetry(rng):
    bp, plan = random_builtin_problem(rng)
    c = random_combined_path(rng, bp, plan)
    blocks = hessian_blocks(bp, c, N=plan.N)
    K = blocks.full()
    assert np.allclose(K, K.T, rtol=1e-12, atol=1e-13)
    assert np.allclose(blocks.A, blocks.A.T, atol=1e-13)
    assert np.allclose(blocks.D, blocks.D.T, atol=1e-13)


def einsum_curvature(system, c):
    """Reference assembly: quadrature of V'' phi_k phi_l with a dense sine table."""
    H = system.bp.potential.hess(system.grid_values(c))
    H = 0.5 * (H + np.swapaxes(H, -1, -2))
    k = np.arange(1, system.M + 1)
    h = system.T / (system.P + 1)
    S = np.sqrt(h * 2.0 / system.T) * np.sin(np.outer(system.t, k) * np.pi / system.T)
    D = system.M * system.n
    return np.einsum("qk,ql,qij->kilj", S, S, H, optimize=True).reshape(D, D)


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(["pendulum", "harmonic", "coupled_pendula"]),
       n=st.integers(1, 4), M=st.integers(1, 40), extra=st.integers(0, 6),
       seed=st.integers(0, 2**32 - 1))
def test_structured_curvature_matches_dense_quadrature(family, n, M, extra, seed):
    rng = np.random.default_rng(seed)
    params = {"pendulum": (rng.uniform(0.2, 2.0),),
              "harmonic": tuple(rng.uniform(0.3, 2.0, n)),
              "coupled_pendula": (rng.uniform(0.2, 1.5), rng.uniform(0.1, 0.8))}[family]
    pot = builtin_potential(family, params, dim=n)
    T = float(rng.uniform(0.5, 6.0))
    bp = BoundaryProblem(pot, T, rng.uniform(-2, 2, n), rng.uniform(-2, 2, n))
    # P runs from 2M+1 (the default) to 2M+7, both parities, through the override
    system = MechanicalSystem(bp, M, None if extra == 0 else 2 * M + 1 + extra)
    c = rng.standard_normal(M * n) / np.repeat(np.arange(1, M + 1), n)
    ref = einsum_curvature(system, c)
    W = system.curvature_matrix(c)
    assert np.max(np.abs(W - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [1, 2, 4])
def test_linear_potential_curvature_is_zero(n, rng):
    for pot in (builtin_potential("zero", dim=n),
                parse_potential(" + ".join(f"{i + 1}*q{i + 1}" for i in range(n)), n, 0.0)):
        system = MechanicalSystem(BoundaryProblem(pot, 2.0, np.zeros(n), np.ones(n)), 9, 22)
        W = system.curvature_matrix(rng.standard_normal(9 * n))
        assert W.shape == (9 * n, 9 * n)
        assert not np.any(W)


def test_pendulum_entries_match_adaptive_quadrature_at_rest():
    # q0 = qT = 0: the weight cos(path) is constant 1, quadrature is exact
    g = 1.0
    pot = builtin_potential("pendulum", (g,))
    T = np.pi
    bp = BoundaryProblem(pot, T, [0.0], [0.0])
    c = SinePath(T, np.zeros((16, 1)))
    blocks = hessian_blocks(bp, c, N=0)
    eig = mode_eigenvalues(T, 16)
    for k in (1, 2, 7, 16):
        for l in (1, 2, 7, 16):
            ref, _ = quad(lambda t: -g * np.cos(0.0)
                          * (2 / T) * np.sin(k * np.pi * t / T) * np.sin(l * np.pi * t / T),
                          0, T, epsabs=1e-12)
            kinetic = eig[k - 1] if k == l else 0.0
            assert np.isclose(blocks.D[k - 1, l - 1], kinetic + ref, atol=1e-8)


def test_pendulum_entries_match_adaptive_quadrature_with_drift():
    g = 1.3
    pot = builtin_potential("pendulum", (g,))
    T = np.pi
    bp = BoundaryProblem(pot, T, [0.2], [1.1])
    c = SinePath(T, np.zeros((16, 1)))
    blocks = hessian_blocks(bp, c, N=0, quad_points=2048)
    eig = mode_eigenvalues(T, 16)
    drift = lambda t: 0.2 + (1.1 - 0.2) * t / T
    for k, l in ((1, 1), (2, 5), (7, 16), (16, 16)):
        ref, _ = quad(lambda t: -g * np.cos(drift(t))
                      * (2 / T) * np.sin(k * np.pi * t / T) * np.sin(l * np.pi * t / T),
                      0, T, epsabs=1e-12, limit=200)
        kinetic = eig[k - 1] if k == l else 0.0
        assert np.isclose(blocks.D[k - 1, l - 1], kinetic + ref, atol=1e-8)


def test_hessian_matches_gradient_finite_differences(rng):
    for _ in range(4):
        bp, plan = random_builtin_problem(rng)
        c = random_combined_path(rng, bp, plan, head_scale=0.3, tail_scale=0.3)
        blocks = hessian_blocks(bp, c, N=plan.N)
        K = blocks.full()
        nM = plan.M * bp.n
        eps = 1e-5
        for j in rng.choice(nM, size=4, replace=False):
            e = np.zeros((plan.M, bp.n))
            e.flat[j] = eps
            rp = gradient(bp, SinePath(bp.T, c.coeffs + e)).coeffs.ravel()
            rm = gradient(bp, SinePath(bp.T, c.coeffs - e)).coeffs.ravel()
            col = (rp - rm) / (2 * eps)
            scale = 1.0 + np.max(np.abs(K[:, j]))
            assert np.max(np.abs(col - K[:, j])) / scale < 1e-5


def test_tail_block_dominates_monotonicity_constant(rng):
    for _ in range(8):
        bp, plan = random_builtin_problem(rng)
        c = random_combined_path(rng, bp, plan)
        blocks = hessian_blocks(bp, c, N=plan.N)
        eig = np.repeat(mode_eigenvalues(bp.T, plan.M), bp.n)[plan.N * bp.n:]
        v = rng.standard_normal(eig.shape[0])
        quad_form = float(v @ blocks.D @ v)
        h1_sq = float(np.sum(eig * v * v))
        assert quad_form >= plan.mu * h1_sq - 1e-9


def test_to_h1_is_positive_diagonal_congruence(rng):
    bp, plan = random_builtin_problem(rng)
    c = random_combined_path(rng, bp, plan)
    blocks = hessian_blocks(bp, c, N=plan.N)
    h1 = blocks.to_h1(bp.T)
    assert h1.metric == "h1_coeff"
    eig = np.repeat(mode_eigenvalues(bp.T, plan.M), bp.n)
    rebuilt = h1.full() * np.sqrt(eig)[:, None] * np.sqrt(eig)[None, :]
    assert np.allclose(rebuilt, blocks.full(), rtol=1e-12, atol=1e-12)
    # the bits of the full matrix scaled on both sides, split at the same head, read-only
    scale = 1.0 / np.sqrt(eig)
    K = blocks.full() * scale[:, None] * scale[None, :]
    hd = plan.N * bp.n
    assert (h1.N, h1.M, h1.n) == (blocks.N, blocks.M, blocks.n)
    for got, want in zip((h1.A, h1.B, h1.D), (K[:hd, :hd], K[:hd, hd:], K[hd:, hd:])):
        assert got.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            got[...] = 0.0
    assert h1.to_h1(bp.T) is h1


def test_gradient_converges_in_quadrature_points(rng):
    # aliasing control: the P vs 2P difference bounds the quadrature error,
    # and refining P drives the coefficients to a well-resolved reference
    bp, plan = random_builtin_problem(rng)
    path = random_combined_path(rng, bp, plan)
    scale = []
    ref = gradient(bp, path, quad_points=64 * plan.M).coeffs
    for factor in (2, 4, 16):
        g = gradient(bp, path, quad_points=factor * plan.M + 3).coeffs
        scale.append(np.max(np.abs(g - ref)))
    assert scale[0] < 1e-4 * (1 + np.max(np.abs(ref)))
    assert scale[2] <= scale[0]
    assert scale[2] < 1e-10 * (1 + np.max(np.abs(ref)))


def test_dimension_mismatch_rejected(rng):
    bp, plan = random_builtin_problem(rng)
    wrong = SinePath(bp.T, rng.standard_normal((8, bp.n + 1)))
    with pytest.raises(ValueError, match="components"):
        action_value(bp, wrong)
