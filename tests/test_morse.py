"""Index computations: Schur reduction vs full spectrum vs conjugate points."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finred import (BoundaryProblem, HessianBlocks, SinePath, builtin_potential,
                    hessian_blocks, index_full, index_jacobi, index_schur,
                    make_plan, reduced_hessian, solve_reduced)
from finred import morse
from finred.core import TruncationError, draw_seeds
from finred.fourier import mode_eigenvalues
from finred.reduction import DEFAULT_MULTISTART_SEED, default_radius


def random_blocks(rng, head=4, tail=7, margin=0.3):
    """Random symmetric blocks with D positive definite and no tiny eigenvalues."""
    while True:
        A = rng.standard_normal((head, head))
        A = 0.5 * (A + A.T)
        B = rng.standard_normal((head, tail))
        Q = rng.standard_normal((tail, tail))
        D = Q @ Q.T + margin * np.eye(tail)
        blocks = HessianBlocks(N=head, M=head + tail, n=1, A=A, B=B, D=D)
        full_eigs = np.linalg.eigvalsh(blocks.full())
        schur_eigs = np.linalg.eigvalsh(reduced_hessian(blocks))
        if min(np.min(np.abs(full_eigs)), np.min(np.abs(schur_eigs))) > 1e-6:
            return blocks


def full_signature_oracle(blocks):
    """Independent signature count from a dense eigensolve of the full matrix."""
    eigs = np.linalg.eigvalsh(blocks.full())
    theta = 1e-8 * (1.0 + np.max(np.abs(eigs)))
    return int(np.sum(eigs < -theta)), int(np.sum(np.abs(eigs) <= theta))


def test_schur_returns_A_when_uncoupled(rng):
    A = rng.standard_normal((3, 3))
    A = 0.5 * (A + A.T)
    blocks = HessianBlocks(N=3, M=8, n=1, A=A, B=np.zeros((3, 5)), D=np.eye(5))
    assert np.allclose(reduced_hessian(blocks), A, atol=1e-14)


def test_schur_harmonic_diagonal():
    omega, T = 1.0, 3 * np.pi / 2
    pot = builtin_potential("harmonic", (omega,))
    bp = BoundaryProblem(pot, T, [0.0], [1.0])
    plan = make_plan(bp)
    c = SinePath(T, np.zeros((plan.M, 1)))
    blocks = hessian_blocks(bp, c, N=plan.N)
    S = reduced_hessian(blocks)
    eig = mode_eigenvalues(T, plan.N)
    assert np.allclose(S, np.diag(eig - omega**2), atol=1e-12)
    rep = index_schur(blocks)
    assert rep.index == 1  # only k = 1 has pi^2/T^2 - 1 < 0 for T = 3 pi/2


def test_schur_equals_full_on_random_blocks(rng):
    for _ in range(20):
        blocks = random_blocks(rng)
        schur = index_schur(blocks)
        full = index_full(blocks)
        oracle = full_signature_oracle(blocks)
        assert (schur.index, schur.nullity) == (full.index, full.nullity) == oracle


def test_signature_additivity_identity(rng):
    # index(full) = index(Schur) + index(D) and index(D) = 0 when D > 0
    blocks = random_blocks(rng)
    d_eigs = np.linalg.eigvalsh(blocks.D)
    assert np.all(d_eigs > 0)
    assert index_full(blocks).index == index_schur(blocks).index


def test_non_positive_tail_block_raises(rng):
    blocks = HessianBlocks(N=2, M=5, n=1,
                           A=np.eye(2), B=np.zeros((2, 3)),
                           D=np.diag([1.0, -0.5, 2.0]))
    with pytest.raises(TruncationError, match="-5\\.0*e-01|smallest eigenvalue"):
        reduced_hessian(blocks)


def test_free_particle_zero_signature(rng):
    pot = builtin_potential("zero", dim=1)
    bp = BoundaryProblem(pot, 2.0, [0.0], [1.0])
    c = SinePath(2.0, np.zeros((8, 1)))
    blocks = hessian_blocks(bp, c, N=0)
    # N = 0: the full matrix is the tail block alone
    assert index_full(blocks).index == 0
    assert index_schur(blocks).index == 0
    assert index_schur(blocks).nullity == 0


def test_resonant_horizon_is_flagged_degenerate():
    # omega T = 2 pi: mode k = 2 of the second variation is exactly null
    pot = builtin_potential("harmonic", (1.0,))
    bp = BoundaryProblem(pot, 2 * np.pi, [0.0], [0.0])
    plan = make_plan(bp)
    c = SinePath(bp.T, np.zeros((plan.M, 1)))
    blocks = hessian_blocks(bp, c, N=plan.N)
    rep = index_schur(blocks)
    assert rep.nullity >= 1
    assert rep.min_abs_eigenvalue < 1e-10


def test_congruence_scaling_preserves_signature(rng):
    for _ in range(5):
        blocks = random_blocks(rng)
        T = 1.7
        scaled = HessianBlocks(N=blocks.N, M=blocks.M, n=1,
                               A=blocks.A, B=blocks.B, D=blocks.D).to_h1(T)
        a = index_full(blocks)
        b = index_full(scaled)
        assert (a.index, a.nullity) == (b.index, b.nullity)
        sa = index_schur(blocks)
        sb = index_schur(scaled)
        assert (sa.index, sa.nullity) == (sb.index, sb.nullity)


# ---------------------------------------------------------------------------
# jacobi oracle

def solve_one(pot, T, q0, qT, **kw):
    bp = BoundaryProblem(pot, T, q0, qT)
    plan = make_plan(bp)
    reports = solve_reduced(bp, plan, count=4, refine=False, **kw)
    assert reports, "expected a converged solution"
    return bp, reports[0]


def test_jacobi_harmonic_one_conjugate_point():
    bp, rep = solve_one(builtin_potential("harmonic", (1.0,)), 3 * np.pi / 2, [0.0], [1.0])
    jac = index_jacobi(bp, rep.path)
    assert jac.index == 1  # sin t vanishes once in (0, 3 pi/2)
    assert jac.index == rep.index


def test_jacobi_free_particle():
    bp, rep = solve_one(builtin_potential("zero", dim=1), 2.0, [0.0], [1.0])
    jac = index_jacobi(bp, rep.path)
    assert jac.index == 0 and jac.nullity == 0


def test_jacobi_omega_two_short_horizon():
    bp, rep = solve_one(builtin_potential("harmonic", (2.0,)), np.pi - 0.1, [0.0], [1.0])
    jac = index_jacobi(bp, rep.path)
    assert jac.index == 1  # sin 2t vanishes only at pi/2 in (0, pi - 0.1)
    assert jac.index == rep.index


def test_jacobi_counts_multiplicity(rng):
    # isotropic two-component oscillator: J = sin(t) I, rank drops by 2 at pi
    pot = builtin_potential("harmonic", (1.0, 1.0))
    bp, rep = solve_one(pot, 3 * np.pi / 2, [0.0, 0.0], [1.0, 0.5])
    jac = index_jacobi(bp, rep.path)
    assert jac.index == 2
    assert jac.index == rep.index


def test_jacobi_endpoint_degeneracy_warning():
    pot = builtin_potential("harmonic", (1.0,))
    bp = BoundaryProblem(pot, np.pi, [0.0], [0.0])
    plan = make_plan(bp)
    reports = solve_reduced(bp, plan, seeds=[np.zeros(plan.N)], refine=False)
    jac = index_jacobi(bp, reports[0].path)
    assert jac.nullity >= 1  # J(T) = sin(pi) = 0: conjugate endpoint
    assert jac.index == 0  # ... and not a conjugate point inside (0, T)
    assert jac.min_abs_eigenvalue < 1e-6


def test_jacobi_counts_two_conjugate_points_inside_one_step():
    # a root of the coupled_chain workload's chain at a = 0.5, from the 37th seed of its
    # multistart draw: two conjugate points near t = 3.242 lie inside one RK4 step, so
    # det J touches zero there without a sign change
    pot = builtin_potential("coupled_pendula", (1.0, 0.5), dim=4)
    bp = BoundaryProblem(pot, 4.0, np.zeros(4), 0.5 * np.array([1.0, 1 / 3, -1 / 3, -1.0]))
    plan = make_plan(bp)
    seed = draw_seeds(plan.N * bp.n, 37, default_radius(bp), DEFAULT_MULTISTART_SEED)[36]
    [rep] = solve_reduced(bp, plan, seeds=[seed], refine=False)
    assert abs(rep.action - 14.0091734257) < 1e-8
    assert (rep.index, rep.nullity) == (2, 0)
    jac = index_jacobi(bp, rep.path)
    assert (jac.index, jac.nullity) == (2, 0)
    det = np.linalg.det(morse._jacobi_states(bp, rep.path, morse.JACOBI_DEFAULT_STEPS)[1:, :4])
    assert np.all(np.sign(det) == np.sign(det[0]))


def test_schur_jacobi_agree_on_pendulum_solutions(rng):
    from tests.conftest import random_pendulum_problem
    agreements = 0
    while agreements < 8:
        bp, plan = random_pendulum_problem(rng)
        reports = solve_reduced(bp, plan, count=4, refine=False)
        for rep in reports:
            if rep.nullity:
                continue  # the theorem needs nondegeneracy
            jac = index_jacobi(bp, rep.path)
            assert jac.index == rep.index
            assert rep.index <= plan.N * bp.n
            agreements += 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_jacobi_equals_schur_and_full_on_chains_and_anisotropic_harmonics(rng, n):
    checked = 0
    for _ in range(3):
        g, k = rng.uniform(0.3, 1.5), rng.uniform(0.1, 0.8)
        pot = builtin_potential("coupled_pendula", (g, k), dim=n)
        bp = BoundaryProblem(pot, rng.uniform(2.0, 5.0), np.zeros(n), rng.uniform(-1.0, 1.0, n))
        for rep in solve_reduced(bp, make_plan(bp), count=3, refine=False, with_oracles=True):
            if rep.nullity == 0:
                assert index_jacobi(bp, rep.path).index == rep.index == rep.oracle_index
                checked += 1
    assert checked >= 3
    # the zero path of distinct frequencies: index sum_i floor(omega_i T / pi), and at
    # T just past (or before) a conjugate time, within either tolerance, nullity instead.
    # The time is the lowest frequency's: at k pi / max(omega) the cutoff N sits on
    # lambda_{N+1} = C, where the plan has mu = 0
    for _ in range(3):
        omega = rng.uniform(0.3, 2.5, n)
        pot = builtin_potential("harmonic", tuple(omega), dim=n)
        crossing = rng.integers(1, 3) * np.pi / np.min(omega) + rng.uniform(-1e-9, 1e-9)
        for T, null in [(rng.uniform(1.0, 6.0), False), (crossing, True)]:
            bp = BoundaryProblem(pot, T, np.zeros(n), np.zeros(n))
            c = SinePath(T, np.zeros((make_plan(bp).M, n)))
            blocks = hessian_blocks(bp, c, N=make_plan(bp).N)
            reports = [index_schur(blocks), index_full(blocks), index_jacobi(bp, c)]
            assert len({rep.index for rep in reports}) == 1
            if null:
                assert min(rep.nullity for rep in reports) >= 1
            else:
                assert reports[0].index == np.sum(np.floor(omega * T / np.pi))
                assert max(rep.nullity for rep in reports) == 0


@pytest.mark.parametrize("steps", [0, -4, 1, 2.5, True, "64"])
def test_jacobi_rejects_bad_steps(steps):
    bp, rep = solve_one(builtin_potential("harmonic", (1.0,)), 3 * np.pi / 2, [0.0], [1.0])
    with pytest.raises(ValueError, match="steps"):
        index_jacobi(bp, rep.path, steps=steps)


def test_jacobi_accepts_numpy_integer_steps():
    bp, rep = solve_one(builtin_potential("harmonic", (1.0,)), 3 * np.pi / 2, [0.0], [1.0])
    assert index_jacobi(bp, rep.path, steps=np.int64(256)) == index_jacobi(bp, rep.path, steps=256)


@pytest.mark.parametrize("omega", [1.0, 2.0, 3.0])
def test_jacobi_conjugate_times_of_harmonic(omega):
    # J = sin(omega t) / omega: conjugate times k pi / omega, whatever the path.  At
    # offset 1e-3 the conjugate point lies within a step of T, yet inside (0, T)
    for k in (1, 2, 3):
        for offset in (-0.1, -1e-3, 1e-3, 0.1):
            T = k * np.pi / omega + offset
            bp = BoundaryProblem(builtin_potential("harmonic", (omega,)), T, [0.0], [1.0])
            jac = index_jacobi(bp, SinePath(T, np.zeros((32, 1))))
            assert (jac.index, jac.nullity) == (k - (offset < 0), 0), (k, offset)
            assert jac.min_abs_eigenvalue > 1e-3


@pytest.mark.parametrize("omega, T, steps", [(20.0, 20.0, 2048), (10.0, 10.0, 256),
                                             ((20.0, 15.0, 9.0), 20.0, 2048)],
                         ids=["omega20", "omega10-256-steps", "omega20-15-9"])
def test_jacobi_counts_stiff_harmonic(omega, T, steps):
    # omega h = 0.2 or 0.39: resolved by RK4, yet on [J; J'] a phase turns by up to
    # 2 omega^2 h > pi in a step across a zero of J'; on [k J; J'], k = max omega, by 2 k h
    omega = np.atleast_1d(omega)
    bp = BoundaryProblem(builtin_potential("harmonic", tuple(omega)), T,
                         np.zeros(omega.size), np.zeros(omega.size))
    jac = index_jacobi(bp, SinePath(T, np.zeros((8, omega.size))), steps)
    assert (jac.index, jac.nullity) == (int(np.sum(np.floor(omega * T / np.pi))), 0)


@pytest.mark.parametrize("params, T, qT", [((1.0,), 3 * np.pi, [1.0]),  # sign changes
                                           ((1.0, 1.0), 3 * np.pi / 2, [1.0, 0.5])])  # a touch
def test_jacobi_samples_hessian_once(params, T, qT):
    family = "pendulum" if len(params) == 1 else "harmonic"
    bp, rep = solve_one(builtin_potential(family, params), T, [0.0] * len(qT), qT)
    calls = []

    def hess(q):
        calls.append(q.shape)
        return bp.potential.hess(q)

    counted = BoundaryProblem(dataclasses.replace(bp.potential, hess=hess), T, bp.q0, bp.qT)
    jac = index_jacobi(counted, rep.path)
    assert jac.index == rep.index >= 1
    assert len(calls) == 1


@pytest.mark.parametrize("path", [SinePath(7.0, np.zeros((32, 1))),  # one component
                                  SinePath(3.0, np.zeros((32, 2)))])  # horizon 3
def test_mismatched_path_is_rejected(path):
    bp = BoundaryProblem(builtin_potential("harmonic", (1.0, 1.0)), 7.0, [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="components|horizon"):
        index_jacobi(bp, path)
    with pytest.raises(ValueError, match="components|horizon"):
        hessian_blocks(bp, path, 2)


def _rk4_step(J, Jd, h, H0, Hmid, H1):
    """One classical RK4 step of J'' = -H(t) J, written stage by stage."""
    def rhs(state, H):
        j, jd = state
        return jd, -H @ j

    y = (J, Jd)
    k1 = rhs(y, H0)
    k2 = rhs((y[0] + 0.5 * h * k1[0], y[1] + 0.5 * h * k1[1]), Hmid)
    k3 = rhs((y[0] + 0.5 * h * k2[0], y[1] + 0.5 * h * k2[1]), Hmid)
    k4 = rhs((y[0] + h * k3[0], y[1] + h * k3[1]), H1)
    J_new = J + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
    Jd_new = Jd + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    return J_new, Jd_new


def rk4_reference(hess, h):
    """[J; J'] at every node by stepping from J = 0, J' = I one step at a time."""
    steps, n = (hess.shape[0] - 1) // 2, hess.shape[-1]
    J, Jd = np.zeros((n, n)), np.eye(n)
    states = [np.vstack([J, Jd])]
    for i in range(steps):
        J, Jd = _rk4_step(J, Jd, h, hess[2 * i], hess[2 * i + 1], hess[2 * i + 2])
        states.append(np.vstack([J, Jd]))
    return np.array(states)


def random_step_matrices(rng, n, steps, T):
    raw = rng.uniform(-4.0, 4.0, (2 * steps + 1, n, n))
    hess = 0.5 * (raw + raw.transpose(0, 2, 1))
    return hess, T / steps


def assert_blocked_states_match_stepwise(hess, h):
    n = hess.shape[-1]
    ref = rk4_reference(hess, h)
    Y0 = np.vstack([np.zeros((n, n)), np.eye(n)])
    Y = morse._propagate(morse._step_matrices(hess, h), Y0)
    assert Y.shape == ref.shape
    err = np.linalg.norm(Y - ref, axis=(1, 2))
    assert np.all(err <= 1e-12 * np.linalg.norm(ref, axis=(1, 2)))


# steps up to 300 span up to 17 blocks of ceil(sqrt(steps)), mostly with a partial last one
@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=4), steps=st.integers(min_value=2, max_value=300),
       T=st.floats(min_value=0.1, max_value=4.0), data=st.data())
def test_transfer_matrices_match_stepwise_rk4(n, steps, T, data):
    seed = data.draw(st.integers(min_value=0, max_value=2**31))
    assert_blocked_states_match_stepwise(*random_step_matrices(np.random.default_rng(seed),
                                                               n, steps, T))


# full blocks x L + partial block: 1 x 2; 1 x 2 + 1; 6 x 7 + 5; 44 x 46 + 23; 44 x 46 + 25
@pytest.mark.parametrize("steps", [2, 3, 47, 2047, 2049])
def test_blocked_propagation_matches_stepwise_rk4(rng, steps):
    assert_blocked_states_match_stepwise(*random_step_matrices(rng, 2, steps, 3.0))


def propagate_reference(Phi, Y0):
    """The sequential propagation that morse._propagate replaces: one matmul per step."""
    Y = np.empty((Phi.shape[0] + 1,) + Y0.shape)
    Y[0] = Y0
    for i in range(Phi.shape[0]):
        np.matmul(Phi[i], Y[i], out=Y[i + 1])
    return Y


def states_reference(bp, c, steps):
    """morse._jacobi_states computed by sequential propagation: [k J; J'] at the nodes."""
    n = bp.n
    hess_half = bp.potential.hess(morse._half_grid_path(bp, c, steps))
    Y0 = np.vstack([np.zeros((n, n)), np.eye(n)])
    Y = propagate_reference(morse._step_matrices(hess_half, bp.T / steps), Y0)
    Y[:, :n] *= np.sqrt(max(1.0, np.max(np.abs(hess_half).sum(axis=-1))))
    return Y


def assert_count_matches_reference(bp, c, steps=morse.JACOBI_DEFAULT_STEPS):
    count = morse._winding_count(morse._jacobi_states(bp, c, steps))
    ref = morse._winding_count(states_reference(bp, c, steps))
    assert (count.index, count.nullity) == (ref.index, ref.nullity)
    assert abs(count.min_abs_eigenvalue - ref.min_abs_eigenvalue) <= 1e-9
    return count


@pytest.mark.parametrize("qT", [-1.1, -0.5, 0.0, 0.4, 1.0])
def test_conjugate_points_match_sequential_reference_on_pendulum_roots(qT):
    # the pendulum of the pendulum_sweep workload: g = 1, T = 3 pi, M = 128 after refinement
    bp = BoundaryProblem(builtin_potential("pendulum", (1.0,)), 3 * np.pi, [0.0], [qT])
    reports = solve_reduced(bp, make_plan(bp), count=3)
    assert reports
    for rep in reports:
        assert assert_count_matches_reference(bp, rep.path).index == rep.index
    for steps in (47, 2049):  # partial last blocks
        assert_count_matches_reference(bp, reports[0].path, steps)


def test_conjugate_points_match_sequential_reference_on_isotropic_touch():
    # J = sin(t) I: det J = sin(t)^2 touches zero at pi, a conjugate point of multiplicity 2
    bp, rep = solve_one(builtin_potential("harmonic", (1.0, 1.0)), 3 * np.pi / 2,
                        [0.0, 0.0], [1.0, 0.5])
    for steps in (morse.JACOBI_DEFAULT_STEPS, 2049):
        count = assert_count_matches_reference(bp, rep.path, steps)
        assert (count.index, count.nullity) == (2, 0)


def test_close_sign_changes_are_two_conjugate_points():
    # a root of the coupled_chain workload's chain at a = 0.2 (found with 16 seeds): det J
    # changes sign at t = 3.44780 and 3.45042, in adjacent steps
    pot = builtin_potential("coupled_pendula", (1.0, 0.5), dim=4)
    bp = BoundaryProblem(pot, 4.0, np.zeros(4), 0.2 * np.array([1.0, 1 / 3, -1 / 3, -1.0]))
    reports = solve_reduced(bp, make_plan(bp), count=16)
    [rep] = [rep for rep in reports if abs(rep.action - 16.697665155) < 1e-8]
    assert rep.index == 3
    det = np.linalg.det(morse._jacobi_states(bp, rep.path, morse.JACOBI_DEFAULT_STEPS)[1:, :4])
    changes = np.flatnonzero(np.diff(np.sign(det)))
    assert changes.size == 3 and changes[2] - changes[1] == 1
    assert assert_count_matches_reference(bp, rep.path).index == 3
    for steps in (morse.JACOBI_DEFAULT_STEPS, 8192):
        assert index_jacobi(bp, rep.path, steps=steps).index == 3


@pytest.mark.parametrize("M", [3, 15, 16, 17, 32, 40, 100])
def test_half_grid_samples_fold_aliased_modes(rng, M):
    # steps = 8: P = 15 interior nodes, so M >= 8 samples on a finer grid
    steps, T = 8, 2.5
    pot = builtin_potential("harmonic", (1.0, 2.0))
    bp = BoundaryProblem(pot, T, [0.3, -0.2], [1.0, 0.5])
    c = SinePath(T, rng.standard_normal((M, 2)))
    t = np.linspace(0.0, T, 2 * steps + 1)
    ref = bp.drift(t) + c.evaluate(t)
    got = morse._half_grid_path(bp, c, steps)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
