"""Plan formulas, tail solvers, reduced system, multistart behavior."""

import math

import numpy as np
import pytest
from scipy.optimize import root

from finred import (BoundaryProblem, DirichletField, RectangleDomain,
                    SinePath, UncertifiedPotentialError, action_value, builtin_potential,
                    dirichlet_plan, fixed_point_cutoff, gradient, make_plan,
                    parse_potential, project_tail, reduced_gradient, solve_dirichlet,
                    solve_reduced, solve_tail)
from finred import reduction
from finred.core import MechanicalSystem
from finred.dirichlet import DirichletSystem
from finred.fourier import h1_inner, mode_eigenvalues
from finred.reduction import default_radius, reduced_hessian_matrix
from tests.conftest import random_builtin_problem, random_pendulum_problem


def bp_with_bound(C, T):
    pot = builtin_potential("harmonic", (math.sqrt(C),)) if C > 0 else builtin_potential("zero")
    return BoundaryProblem(pot, T, [0.0], [1.0])


# ---------------------------------------------------------------------------
# plan

def test_plan_free_particle():
    plan = make_plan(bp_with_bound(0.0, 2.0))
    assert plan.N == 0 and plan.mu == 1.0 and plan.contraction == 0.0


def test_plan_formula_example():
    plan = make_plan(bp_with_bound(1.0, math.pi))
    assert plan.N == 1
    assert plan.mu == pytest.approx(0.75, abs=1e-15)
    plan3 = make_plan(bp_with_bound(1.0, math.pi), N=3)
    assert plan3.mu == pytest.approx(1.0 - 1.0 / 16.0, abs=1e-15)


def test_plan_rejects_downward_override():
    bp = bp_with_bound(9.0, math.pi)  # N_min = 3
    with pytest.raises(ValueError, match="below the certified minimum"):
        make_plan(bp, N=2)


def test_plan_defaults():
    plan = make_plan(bp_with_bound(1.0, math.pi))
    assert plan.M == 32 and plan.quad_points == 65
    plan = make_plan(bp_with_bound(400.0, math.pi))  # N = 20
    assert plan.M == 2 * 20 + 8


def test_plan_requires_certification_opt_in():
    pot = parse_potential("q1^4", 1, c_bound=50.0)
    bp = BoundaryProblem(pot, 1.0, [0.0], [0.5])
    with pytest.raises(UncertifiedPotentialError):
        make_plan(bp)
    plan = make_plan(bp, allow_uncertified=True)
    assert not plan.certified


# ---------------------------------------------------------------------------
# fixed-point comparison cutoff

def scan_cutoff(c_tilde, T):
    m = 1
    while c_tilde * T / (2 * math.pi * m) * (1 + math.sqrt(2 * m)) >= 1.0:
        m += 1
    return m


def test_fixed_point_cutoff_example():
    # m=1 gives (1/2)(1+sqrt 2) ~ 1.207 >= 1; m=2 gives (1/4)(3) = 0.75 < 1
    assert fixed_point_cutoff(1.0, math.pi) == 2
    assert fixed_point_cutoff(1.0, math.pi) > make_plan(bp_with_bound(1.0, math.pi)).N


def test_fixed_point_cutoff_matches_scan_and_beats_plan():
    for C in (0.1, 0.5, 1.0, 7.3, 40.0):
        for T in (0.2, 1.0, math.pi, 8.5):
            c_tilde = max(1.0, C)
            got = fixed_point_cutoff(c_tilde, T)
            assert got == scan_cutoff(c_tilde, T)
            assert got > int(math.floor(T * math.sqrt(C) / math.pi))


# ---------------------------------------------------------------------------
# tail solver

def test_tail_free_particle_is_zero(rng):
    bp = bp_with_bound(0.0, 2.0)
    plan = make_plan(bp)
    tail, stats = solve_tail(bp, plan, np.zeros(0))
    assert stats.converged and stats.iterations == 0
    assert np.all(tail.coeffs == 0.0)


def test_tail_harmonic_single_newton_step(rng):
    pot = builtin_potential("harmonic", (1.2,))
    bp = BoundaryProblem(pot, 2.0, [0.3], [1.0])
    plan = make_plan(bp)
    u = rng.standard_normal(plan.N)
    tail, stats = solve_tail(bp, plan, u)
    assert stats.converged
    assert stats.iterations == 1  # quadratic action: Newton is exact
    assert stats.residuals[-1] <= 1e-10


def h1_tail_norm(plan, bp, a, b):
    eig = np.repeat(mode_eigenvalues(bp.T, plan.M), bp.n)[plan.N * bp.n:]
    d = (a.coeffs - b.coeffs).ravel()[plan.N * bp.n:]
    return math.sqrt(float(np.sum(eig * d * d)))


def test_tail_picard_contracts_and_matches_dense_root(rng):
    for _ in range(10):
        bp, plan = random_pendulum_problem(rng)
        u = rng.uniform(-1, 1, plan.N)
        v_picard, stats = solve_tail(bp, plan, u, method="picard")
        assert stats.converged
        floor = 1e-12 * max(stats.increments[0], 1e-30)
        ratios = [b / a for a, b in zip(stats.increments, stats.increments[1:])
                  if a > floor and b > floor]
        if ratios:
            assert max(ratios) <= plan.contraction + 0.05

        v_newton, nstats = solve_tail(bp, plan, u)
        assert nstats.converged and nstats.iterations <= 8
        assert nstats.residuals[-1] <= plan.tail_tol

        # independent dense root-finder on the truncated tail system
        system = MechanicalSystem(bp, plan.M, plan.quad_points)
        hd = plan.N * bp.n

        def tail_residual(v):
            return system.residual(np.concatenate([u, v]))[hd:]

        sol = root(tail_residual, np.zeros(plan.M * bp.n - hd), method="hybr", tol=1e-13)
        assert sol.success
        oracle = SinePath(bp.T, system.unflatten(np.concatenate([np.zeros(hd), sol.x])))
        assert h1_tail_norm(plan, bp, v_newton, oracle) <= 1e-8
        assert h1_tail_norm(plan, bp, v_picard, oracle) <= 1e-8


# ---------------------------------------------------------------------------
# strong monotonicity (property tests)

def random_tail(rng, bp, plan, scale=1.0):
    coeffs = np.zeros((plan.M, bp.n))
    decay = 1.0 / np.arange(plan.N + 1, plan.M + 1)[:, None] ** 1.5
    coeffs[plan.N:] = scale * decay * rng.standard_normal((plan.M - plan.N, bp.n))
    return coeffs


def test_strong_monotonicity_of_tail_gradient(rng):
    for _ in range(200):
        bp, plan = random_builtin_problem(rng)
        u_coeffs = np.zeros((plan.M, bp.n))
        u_coeffs[:plan.N] = rng.standard_normal((plan.N, bp.n))
        v1, v2 = random_tail(rng, bp, plan), random_tail(rng, bp, plan)
        g1 = gradient(bp, SinePath(bp.T, u_coeffs + v1), convention="riesz_h1")
        g2 = gradient(bp, SinePath(bp.T, u_coeffs + v2), convention="riesz_h1")
        dg = SinePath(bp.T, g2.coeffs - g1.coeffs)
        dv = SinePath(bp.T, v2 - v1)
        lhs = h1_inner(project_tail(dg, plan.N), dv)
        rhs = plan.mu * h1_inner(dv, dv)
        assert lhs >= rhs - 1e-9


def test_tail_gradient_expansive_bound(rng):
    # || F(u, v2) - F(u, v1) || >= mu || v2 - v1 || in the H1 norm
    for _ in range(100):
        bp, plan = random_builtin_problem(rng)
        u_coeffs = np.zeros((plan.M, bp.n))
        u_coeffs[:plan.N] = rng.standard_normal((plan.N, bp.n))
        v1, v2 = random_tail(rng, bp, plan), random_tail(rng, bp, plan)
        g1 = gradient(bp, SinePath(bp.T, u_coeffs + v1), convention="riesz_h1")
        g2 = gradient(bp, SinePath(bp.T, u_coeffs + v2), convention="riesz_h1")
        dF = project_tail(SinePath(bp.T, g2.coeffs - g1.coeffs), plan.N)
        dv = SinePath(bp.T, v2 - v1)
        assert dF.h1_norm() >= plan.mu * dv.h1_norm() - 1e-9


# ---------------------------------------------------------------------------
# reduced gradient

def test_reduced_gradient_trivial_cases():
    bp = bp_with_bound(0.0, 2.0)
    plan = make_plan(bp)
    assert reduced_gradient(bp, plan, np.zeros(0)).shape == (0,)
    plan2 = make_plan(bp, N=2)
    r = reduced_gradient(bp, plan2, np.zeros(2))
    assert np.allclose(r, 0.0, atol=1e-14)


def test_envelope_identity_against_finite_differences(rng):
    # the reduced gradient is the exact u-derivative of u -> action(u + v(u))
    checked = 0
    while checked < 12:
        bp, plan = random_pendulum_problem(rng)
        if plan.N == 0:
            continue
        checked += 1
        u = rng.uniform(-0.8, 0.8, plan.N)
        grad_u = reduced_gradient(bp, plan, u)

        def s_value(uu):
            tail, stats = solve_tail(bp, plan, uu)
            assert stats.converged
            coeffs = np.array(tail.coeffs)
            coeffs[:plan.N, 0] = uu
            return action_value(bp, SinePath(bp.T, coeffs))

        eps = 1e-5
        for j in range(plan.N):
            e = np.zeros(plan.N)
            e[j] = eps
            fd = (s_value(u + e) - s_value(u - e)) / (2 * eps)
            assert np.isclose(grad_u[j], fd, rtol=1e-5, atol=1e-7)


# ---------------------------------------------------------------------------
# solve_reduced

def test_free_particle_unique_straight_line():
    pot = builtin_potential("zero", dim=2)
    bp = BoundaryProblem(pot, 2.0, [0.0, 1.0], [1.0, -1.0])
    plan = make_plan(bp)
    reports = solve_reduced(bp, plan, count=4)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.index == 0 and rep.nullity == 0
    assert np.max(np.abs(rep.path.coeffs)) < 1e-12
    assert rep.action == pytest.approx(5.0 / 4.0, rel=1e-12)  # |d|^2 / (2T)


def test_harmonic_matches_closed_form_solution():
    pot = builtin_potential("harmonic", (1.0,))
    bp = BoundaryProblem(pot, np.pi / 2, [0.0], [1.0])
    plan = make_plan(bp, M=128)
    reports = solve_reduced(bp, plan, count=4, refine=False)
    assert len(reports) == 1
    ts = np.linspace(0, bp.T, 257)
    got = bp.drift(ts)[:, 0] + reports[0].path.evaluate(ts)[:, 0]
    assert np.max(np.abs(got - np.sin(ts))) < 2e-5  # truncation-limited at M=128


def test_pendulum_equilibrium_index_two():
    pot = builtin_potential("pendulum", (1.0,))
    bp = BoundaryProblem(pot, 3 * np.pi, [0.0], [0.0])
    plan = make_plan(bp)
    assert plan.N == 3
    reports = solve_reduced(bp, plan, count=16, refine=False)
    equilibria = [r for r in reports if np.linalg.norm(r.head) < 1e-9]
    assert equilibria, "multistart must find the resting solution"
    eq = equilibria[0]
    # pi^2 k^2 / T^2 < V''(0) = 1 for k in {1, 2}; k = 3 is exactly degenerate
    assert eq.index == 2
    assert eq.nullity == 1


def test_solutions_have_small_full_residual(rng):
    for _ in range(6):
        bp, plan = random_pendulum_problem(rng)
        reports = solve_reduced(bp, plan, count=6, refine=False)
        for rep in reports:
            r = gradient(bp, rep.path, convention="riesz_h1")
            assert r.h1_norm() <= 2.0 * max(plan.tail_tol, plan.head_tol)
            assert rep.head_residual <= plan.head_tol
            assert rep.tail_residual <= plan.tail_tol
            assert rep.index <= plan.N * bp.n  # a-priori bound on the index


def test_duplicate_seeds_deduplicate():
    bp, plan = random_pendulum_problem(np.random.default_rng(7))
    seeds = [np.zeros(plan.N), np.zeros(plan.N), 1e-8 * np.ones(plan.N)]
    reports = solve_reduced(bp, plan, seeds=seeds)
    assert len(reports) == 1


def test_multistart_is_deterministic():
    bp, plan = random_pendulum_problem(np.random.default_rng(21))
    a = solve_reduced(bp, plan, count=8, seed=0xAC21)
    b = solve_reduced(bp, plan, count=8, seed=0xAC21)
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.head, rb.head)
        assert ra.action == rb.action


def test_workers_do_not_change_results():
    bp, plan = random_pendulum_problem(np.random.default_rng(33))
    a = solve_reduced(bp, plan, count=6, workers=1)
    b = solve_reduced(bp, plan, count=6, workers=3)
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.head, rb.head)


def test_refinement_records_drift():
    bp, plan = random_pendulum_problem(np.random.default_rng(5))
    reports = solve_reduced(bp, plan, count=2, refine=True)
    for rep in reports:
        assert rep.truncation_drift is not None
        assert rep.truncation_drift <= 1e-7


def test_reduced_hessian_is_schur_of_blocks(rng):
    bp, plan = random_pendulum_problem(rng)
    u = rng.uniform(-0.5, 0.5, plan.N)
    S = reduced_hessian_matrix(bp, plan, u)
    assert S.shape == (plan.N, plan.N)
    assert np.allclose(S, S.T, atol=1e-12)


def test_default_radius_formula():
    bp = bp_with_bound(1.0, 1.0)
    assert default_radius(bp) == pytest.approx(2.0 * (1.0 + 1.0))


def test_tail_cap_exceeded_reports_best_effort():
    bp, _ = random_pendulum_problem(np.random.default_rng(11))
    plan = make_plan(bp, tail_tol=1e-30)  # unreachable tolerance
    tail, stats = solve_tail(bp, plan, np.zeros(plan.N))
    assert not stats.converged
    assert stats.residuals[-1] < 1e-12  # best effort is still excellent
    assert stats.iterations > 0


def test_solve_reduced_with_picard_tail():
    bp, plan = random_pendulum_problem(np.random.default_rng(13))
    newton = solve_reduced(bp, plan, count=4, refine=False)
    picard = solve_reduced(bp, plan, count=4, refine=False, method="picard")
    assert len(newton) == len(picard)
    for a, b in zip(newton, picard):
        assert np.allclose(a.head, b.head, atol=1e-7)
        assert a.index == b.index


def test_two_component_envelope_and_indices():
    # coupled chain, n = 2: the envelope identity and index agreement must
    # hold component-blockwise, not just for scalar problems
    from finred import index_jacobi
    rng = np.random.default_rng(17)
    pot = builtin_potential("coupled_pendula", (1.0, 0.4), dim=2)
    bp = BoundaryProblem(pot, 2.5, rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
    plan = make_plan(bp)
    assert plan.N >= 1
    head_dim = plan.N * 2

    u = rng.uniform(-0.5, 0.5, head_dim)
    grad_u = reduced_gradient(bp, plan, u)

    def s_value(uu):
        tail, stats = solve_tail(bp, plan, uu)
        assert stats.converged
        coeffs = np.array(tail.coeffs)
        coeffs[:plan.N] = uu.reshape(plan.N, 2)
        return action_value(bp, SinePath(bp.T, coeffs))

    eps = 1e-5
    for j in range(head_dim):
        e = np.zeros(head_dim)
        e[j] = eps
        fd = (s_value(u + e) - s_value(u - e)) / (2 * eps)
        assert np.isclose(grad_u[j], fd, rtol=1e-5, atol=1e-7)

    reports = solve_reduced(bp, plan, count=6, refine=False, with_oracles=True)
    assert reports
    for rep in reports:
        assert rep.oracle_index == rep.index
        if rep.nullity == 0:
            assert index_jacobi(bp, rep.path).index == rep.index


def test_tail_warm_start_path():
    bp, plan = random_pendulum_problem(np.random.default_rng(19))
    u = np.full(plan.N, 0.3)
    cold, cold_stats = solve_tail(bp, plan, u)
    warm, warm_stats = solve_tail(bp, plan, u, v0=cold)
    assert warm_stats.converged and warm_stats.iterations == 0
    assert np.allclose(warm.coeffs, cold.coeffs, atol=1e-14)


def test_pendulum_libration_family():
    # g = 1, T = 3 pi, fixed ends at the bottom: the solution family is the
    # near-separatrix swing (a minimum), a single-turning swing (index 1)
    # and the degenerate resting point (index 2)
    from finred import index_jacobi
    pot = builtin_potential("pendulum", (1.0,))
    bp = BoundaryProblem(pot, 3 * np.pi, [0.0], [0.0])
    plan = make_plan(bp)
    reports = solve_reduced(bp, plan, count=48, radius=8.0, refine=False, with_oracles=True)
    by_index = {}
    for rep in reports:
        by_index.setdefault(rep.index, []).append(rep)
    assert set(by_index) == {0, 1, 2}
    for rep in by_index[0] + by_index[1]:
        assert rep.nullity == 0
        assert index_jacobi(bp, rep.path).index == rep.index
        assert rep.oracle_index == rep.index
    # resting point: action is exactly g T (potential energy of the bottom)
    resting = min(by_index[2], key=lambda r: np.linalg.norm(r.head))
    assert resting.action == pytest.approx(3 * np.pi, rel=1e-12)
    assert by_index[0][0].action < by_index[1][0].action < resting.action


def test_empty_result_surfaces_for_insoluble_problem():
    # omega T = 3 pi exactly: the linear problem with qT != 0 has no solution
    pot = builtin_potential("harmonic", (2.0,))
    bp = BoundaryProblem(pot, 3 * np.pi / 2, [0.0], [1.0])
    plan = make_plan(bp)
    reports = solve_reduced(bp, plan, count=4, refine=False)
    assert reports == []


# ---------------------------------------------------------------------------
# the solve loop shared by mechanical and Dirichlet problems

def pendulum_solver():
    """solve(refine, records, **kw) for a pendulum problem with two roots."""
    bp = BoundaryProblem(builtin_potential("pendulum", (1.0,)), 3 * np.pi, [0.0], [0.9])
    plan = make_plan(bp)
    return lambda refine, records, **kw: solve_reduced(
        bp, plan, count=kw.pop("count", 10), refine=refine, seed_records=records, **kw)


def dirichlet_solver():
    """The same for -55 cos(phi) on the unit square (several roots)."""
    dom = RectangleDomain((1.0, 1.0))
    pot = parse_potential("-55*cos(q1)", 1, c_bound=55.0)
    plan = dirichlet_plan(dom, pot)
    return lambda refine, records, **kw: solve_dirichlet(
        dom, pot, plan, count=kw.pop("count", 6), refine=refine, seed_records=records, **kw)


@pytest.mark.parametrize("make_solver", [pendulum_solver, dirichlet_solver])
def test_seed_index_survives_refinement(make_solver):
    solve = make_solver()
    coarse_heads = {}
    for refine in (False, True):
        records = []
        reports = solve(refine, records)
        assert len(reports) >= 2
        for rep in reports:
            assert 0 <= rep.seed_index < len(records)
            source = records[rep.seed_index]
            assert source.converged and source.seed_index == rep.seed_index
            if not refine:
                assert np.linalg.norm(source.u - rep.head) <= 1e-6  # the dedup tolerance
                coarse_heads[rep.seed_index] = rep.head
            else:
                # refinement moves the head by the truncation error only, so the
                # nearest unrefined root must carry the same seed
                nearest = min(coarse_heads,
                              key=lambda i: np.linalg.norm(coarse_heads[i] - rep.head))
                assert nearest == rep.seed_index
        assert sorted(r.seed_index for r in reports) == sorted(coarse_heads)


@pytest.mark.parametrize("make_solver,cls", [(pendulum_solver, MechanicalSystem),
                                             (dirichlet_solver, DirichletSystem)])
def test_each_refinement_level_is_built_once_per_solve(monkeypatch, make_solver, cls):
    solve = make_solver()
    with monkeypatch.context() as patch:
        # the reference builds its own levels for every root
        root_report = reduction._root_report
        patch.setattr(reduction, "_root_report",
                      lambda levels, *args: root_report(levels[:1], *args))
        reference = solve(True, [])
    built = []
    refined = cls.refined

    def counting(self):
        built.append(len(self.eigenvalues))
        return refined(self)

    monkeypatch.setattr(cls, "refined", counting)
    reports = solve(True, [])
    assert len(reports) >= 2  # several roots share the levels
    # one build per level, each from the one before (at most two refinements)
    assert 1 <= len(built) <= 2 and built == sorted(set(built))
    for rep, ref in zip(reports, reference, strict=True):  # bitwise the same roots
        assert np.array_equal(rep.head, ref.head) and np.array_equal(rep.path.coeffs,
                                                                     ref.path.coeffs)
        assert (rep.action, rep.index, rep.truncation_drift) == (ref.action, ref.index,
                                                                 ref.truncation_drift)


@pytest.mark.parametrize("make_solver", [pendulum_solver, dirichlet_solver])
@pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0, -1.0])
def test_solvers_reject_bad_radius(make_solver, radius):
    solve = make_solver()
    records = []
    with pytest.raises(ValueError, match="radius must be a positive real"):
        solve(False, records, count=4, radius=radius)
    assert records == []


def test_refined_systems():
    bp = BoundaryProblem(builtin_potential("pendulum", (1.0,)), 3.0, [0.0], [0.5])
    fine = MechanicalSystem(bp, 8, quad_points=40).refined()
    assert (fine.M, fine.P) == (16, 33)
    dom = RectangleDomain((1.0, 1.3))
    pot = parse_potential("-30*cos(q1)", 1, c_bound=30.0)
    plan = dirichlet_plan(dom, pot)
    fine = DirichletSystem(dom, pot, plan).refined()
    assert fine.plan.lambda_cut == 4.0 * plan.lambda_cut
    assert (fine.plan.N, fine.plan.tail_tol, fine.plan.head_tol) == (plan.N, plan.tail_tol,
                                                                     plan.head_tol)
    assert fine.n == 1 and len(fine.eigenvalues) > len(plan.modes)
    c = np.arange(len(fine.modes), dtype=float)
    field = fine.embed(c)
    assert isinstance(field, DirichletField) and field.modes == fine.modes
    assert np.array_equal(field.coeffs, c)


# ---------------------------------------------------------------------------
# the one-entry state memo

def memo_system(kind):
    """A fresh system: mechanical with n = 2 and a drift, or Dirichlet in 2-D."""
    if kind == "mechanical":
        pot = builtin_potential("coupled_pendula", (1.5, 0.5), dim=2)
        return MechanicalSystem(BoundaryProblem(pot, 4.0, [0.2, -0.3], [0.9, 0.4]), 12)
    dom = RectangleDomain((1.0, 1.3))
    pot = builtin_potential("pendulum", (30.0,), dim=1)
    return DirichletSystem(dom, pot, dirichlet_plan(dom, pot))


def evaluated(system, c):
    """Bit patterns of everything the memo serves at c, then the Hessian."""
    return [a.tobytes() for a in (system.grid_values(c), system.vprime(c),
                                  system.residual(c), system.hessian_matrix(c))]


@pytest.mark.parametrize("kind", ["mechanical", "dirichlet"])
def test_state_memo_is_bitwise_a_fresh_system(kind):
    system = memo_system(kind)
    D = len(system.eigenvalues)
    rng = np.random.default_rng(17)
    c1, c2 = (rng.normal(size=D) / np.arange(1, D + 1) for _ in range(2))

    def fresh(c):
        return evaluated(memo_system(kind), c)

    # the memo keeps its own copy of c: a caller mutating its array after a
    # call changes neither what is derived later at the old state nor the
    # arrays handed out before
    c = c1.copy()
    values = system.grid_values(c)  # the state holds its grid values only
    c[:] = c2
    assert evaluated(system, c1) == fresh(c1)
    assert evaluated(system, c) == fresh(c2)
    assert values.tobytes() == fresh(c1)[0]
    for c in (c1, c2, c1, c1):  # alternate two states, then repeat one
        assert evaluated(system, c) == fresh(c)
    # keys are bit patterns: -0.0 is a state of its own, and a NaN matches itself
    zero = np.zeros(D)
    for c in (zero, -zero, zero):
        assert evaluated(system, c) == fresh(c)
    if kind == "dirichlet":  # V'(0) = 0, so the sign of zero reaches the residual
        assert fresh(-zero)[2] != fresh(zero)[2]
    nan = c1.copy()
    nan[[0, D // 2]] = np.nan
    assert evaluated(system, nan) == fresh(nan)
    assert system.residual(nan) is system.residual(nan.copy())
    for a in (system.grid_values(c1), system.vprime(c1), system.residual(c1)):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0


def count_states(system):
    """Record the bit pattern of every state that nonlinear_coeffs evaluates."""
    states = []
    nonlinear = system.nonlinear_coeffs

    def counting(c):
        states.append(np.asarray(c, dtype=float).tobytes())
        return nonlinear(c)

    system.nonlinear_coeffs = counting
    return states


def test_newton_and_picard_evaluate_each_state_once():
    from finred import core

    dom = RectangleDomain((1.0, 1.0))
    pot = parse_potential("-56.49*cos(q1)", 1, c_bound=56.49)
    plan = dirichlet_plan(dom, pot)
    system = DirichletSystem(dom, pot, plan)
    states = count_states(system)
    u0 = core.draw_seeds(plan.N, 8, 2.0, 0)[4]
    res = core.reduced_newton(system, plan.N, u0, head_tol=plan.head_tol,
                              tail_tol=plan.tail_tol)
    assert res.converged and res.iterations >= 5
    assert len(states) > res.tail_iterations and len(set(states)) == len(states)

    bp = BoundaryProblem(builtin_potential("pendulum", (2.0,)), 6.0, [0.0], [1.0])
    plan = make_plan(bp)
    system = MechanicalSystem(bp, plan.M, plan.quad_points)
    states = count_states(system)
    u = np.linspace(-0.5, 0.5, plan.N)
    v, stats = core.solve_tail(system, plan.N, u, tol=plan.tail_tol, method="picard")
    assert stats.converged and stats.iterations > 10
    # one state per iteration plus the converged one, each evaluated once
    assert len(states) == len(stats.residuals) == len(set(states))
