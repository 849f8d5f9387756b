"""Plan formulas, tail solvers, reduced system, multistart behavior."""

import dataclasses
import inspect
import logging
import math
import re
import sys
import threading
from functools import cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import root

from finred import (BoundaryProblem, DirichletField, RectangleDomain,
                    SinePath, UncertifiedPotentialError, action_value, builtin_potential,
                    dirichlet_plan, fixed_point_cutoff, gradient, make_plan,
                    parse_potential, project_tail, reduced_gradient, solve_dirichlet,
                    solve_reduced, solve_tail)
from finred import core, fourier, reduction
from finred.core import MechanicalSystem
from finred.dirichlet import DirichletSystem, mode_eigenvalue
from finred.fourier import h1_inner, mode_eigenvalues
from finred.reduction import default_radius, reduced_hessian_matrix
from tests.conftest import random_builtin_problem, random_pendulum_problem, refuse_grids


def bp_with_bound(C, T):
    pot = builtin_potential("harmonic", (math.sqrt(C),)) if C > 0 else builtin_potential("zero")
    return BoundaryProblem(pot, T, [0.0], [1.0])


# ---------------------------------------------------------------------------
# plan

def test_plan_free_particle():
    plan = make_plan(bp_with_bound(0.0, 2.0))
    assert plan.N == 0 and plan.mu == 1.0 and plan.contraction == 0.0


def test_plan_contraction_is_derived_from_mu():
    plan = make_plan(BoundaryProblem(builtin_potential("pendulum", (1.0,)), 3.0, [0.0], [1.0]))
    assert plan.contraction == 1.0 - plan.mu
    assert "contraction" not in {f.name for f in dataclasses.fields(plan)}
    assert dataclasses.replace(plan, mu=0.25).contraction == 0.75


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


@pytest.mark.parametrize("kind", ["mechanical", "dirichlet"])
def test_a_tail_margin_inside_the_null_threshold_takes_the_next_cutoff(kind):
    # 1e-12 short of the first conjugate horizon (a path) or eigenvalue (a field),
    # the tail block of the zero solution has eigenvalues near 1e-11 at the
    # floor cutoff: index_full reads them as null, index_schur never sees them.
    # The head takes them in, so both count them
    from finred.functional import blocks_at
    from finred.morse import index_full, index_schur

    if kind == "mechanical":
        omega = (1.8041156, 1.77672364, 1.64423956, 0.43230209)
        bp = BoundaryProblem(builtin_potential("harmonic", omega), math.pi / omega[0]
                             * (1 - 1e-12), np.zeros(4), np.zeros(4))
        plan, floor, nullity = make_plan(bp), 0, 1
        system, lam_next = MechanicalSystem(bp, plan.M), mode_eigenvalues(bp.T, plan.N + 1)[-1]
        with pytest.raises(ValueError, match="below the certified minimum 1"):
            make_plan(bp, N=floor)
    else:
        g = 5 * math.pi ** 2 * (1 - 1e-12)
        dom = RectangleDomain((1.0, 1.0))
        pot = parse_potential(f"-{g!r}*cos(q1)", 1, c_bound=g)
        plan, floor, nullity = dirichlet_plan(dom, pot), 1, 2  # the modes (1, 2) and (2, 1)
        system = DirichletSystem(dom, pot, plan)
        lam_next = plan.modes[plan.N].lam
        assert system.refined().plan.N == plan.N  # a finer level keeps the head
    assert plan.N > floor
    assert plan.mu * lam_next > reduction.null_margin(plan.c_bound, float(system.eigenvalues[-1]))
    blocks = blocks_at(system, plan.N * system.n, np.zeros(len(system.eigenvalues)))
    schur, full = index_schur(blocks), index_full(blocks)
    assert (schur.index, schur.nullity) == (full.index, full.nullity)
    assert schur.nullity == nullity and schur.min_abs_eigenvalue < 1e-10


@pytest.mark.parametrize("kind", ["mechanical", "dirichlet"])
def test_plan_rejects_a_bound_the_sampler_contradicts(kind, monkeypatch):
    def plan(expr, c_bound):
        pot = parse_potential(expr, 1, c_bound=c_bound)
        if kind == "mechanical":
            return make_plan(BoundaryProblem(pot, math.pi, [0.0], [0.5]))
        return dirichlet_plan(RectangleDomain((1.0, 1.0)), pot)

    message = r"^c_bound = 0\.5 is below max \|V''\| = 5 found by sampling the potential$"
    with pytest.raises(ValueError, match=message):
        plan("-5*cos(q1)", 0.5)
    # the sample attains g exactly at q = 0, and g itself is not contradicted
    for g in (50.0, 56.49, 61.99999999999999):
        assert plan(f"-{g!r}*cos(q1)", g).c_bound == g
    # the check is strict, with a relative slack of 1e-12
    assert plan("-5*cos(q1)", 5.0 * (1.0 - 0.9e-12)).certified
    with pytest.raises(ValueError, match="found by sampling"):
        plan("-5*cos(q1)", 5.0 * (1.0 - 1.1e-12))
    # one sample per potential: the plans of its refinement levels only compare
    import finred.potentials as potentials
    calls = []
    norms = potentials.hessian_norms
    monkeypatch.setattr(potentials, "hessian_norms", lambda *a: calls.append(1) or norms(*a))
    parse_potential.cache_clear()
    pot = parse_potential("-56.49*cos(q1)", 1, c_bound=56.49)
    if kind == "mechanical":
        system = MechanicalSystem(BoundaryProblem(pot, 3.0, [0.0], [0.5]),
                                  make_plan(BoundaryProblem(pot, 3.0, [0.0], [0.5])).M)
    else:
        dom = RectangleDomain((1.0, 1.0))
        system = DirichletSystem(dom, pot, dirichlet_plan(dom, pot))
    assert len(system.refined().refined().eigenvalues) == {"mechanical": 128, "dirichlet": 380}[kind]
    assert len(calls) == 1


def test_plan_requires_certification_opt_in():
    pot = parse_potential("q1^4", 1, c_bound=50.0)
    bp = BoundaryProblem(pot, 1.0, [0.0], [0.5])
    with pytest.raises(UncertifiedPotentialError):
        make_plan(bp)
    plan = make_plan(bp, allow_uncertified=True)
    assert not plan.certified


@pytest.mark.parametrize("dim, kw", [(1, {"N": 100_000}),
                                     (1, {"M": 50_000}),  # quad_points 100001
                                     (1, {"M": 100, "quad_points": 100_001}),
                                     (4, {"M": 25_001})])  # M n = 100004
def test_plan_rejects_truncation_above_cap(monkeypatch, dim, kw):
    monkeypatch.setattr(core, "SineGrid", refuse_grids)
    bp = BoundaryProblem(builtin_potential("harmonic", (1.0,) * dim), math.pi,
                         [0.0] * dim, [1.0] * dim)
    with pytest.raises(ValueError, match="above the cap 100000"):
        make_plan(bp, **kw)


@pytest.mark.parametrize("quad_points", [0, 64])
def test_plan_rejects_quadrature_below_2m_plus_1(quad_points):
    with pytest.raises(ValueError, match=rf"at least 2M\+1 = 65 points, got {quad_points}$"):
        make_plan(bp_with_bound(1.0, math.pi), quad_points=quad_points)


def test_plan_at_cap_and_refined_level_above_it(monkeypatch):
    bp = BoundaryProblem(builtin_potential("harmonic", (1.0,) * 4), math.pi,
                         [0.0] * 4, [1.0] * 4)
    assert make_plan(bp, M=25_000).M == 25_000  # M n = 100000, quad_points 50001
    system = MechanicalSystem(bp_with_bound(1.0, math.pi), 49_999)  # quad_points 99999
    monkeypatch.setattr(core, "SineGrid", refuse_grids)
    with pytest.raises(ValueError, match="M n = 99998 with quad_points = 199997 is above"):
        system.refined()


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


def test_solvers_take_no_workers_option():
    bp, plan = random_pendulum_problem(np.random.default_rng(33))
    with pytest.raises(TypeError, match="workers"):
        solve_reduced(bp, plan, count=2, workers=1)
    dom = RectangleDomain((1.0,))
    pot = parse_potential("-20*cos(q1)", 1, c_bound=20.0)
    with pytest.raises(TypeError, match="workers"):
        solve_dirichlet(dom, pot, dirichlet_plan(dom, pot), count=2, workers=1)


def _seed_results(result):
    return (result.u.tobytes(), result.v.tobytes(), result.converged, result.iterations,
            result.tail_iterations, result.head_residual, result.tail_residual,
            list(result.head_history), result.reason)


def test_a_seed_whose_tail_block_fails_stays_alone(monkeypatch):
    # a tail block that is not positive definite at one seed's first tail step
    # ends that seed with its reason; every other seed is solved bit for bit as before
    bp = BoundaryProblem(builtin_potential("pendulum", (2.0,)), 4.0, [0.0], [1.0])
    plan = make_plan(bp)
    system = MechanicalSystem(bp, plan.M, plan.quad_points)
    head_dim = plan.N * system.n
    seeds = core.draw_seeds(head_dim, 6, default_radius(bp), 0xAC21)
    options = dict(count=len(seeds), radius=1.0, seed=0, method="newton", refine=False,
                   with_oracles=False)
    clean: list = []
    reduction.solve_system(system, plan, seeds, seed_records=clean, **options)

    bad = 3
    hessian = system.hessian_matrix

    def poisoned(c, *args):
        K = hessian(c, *args)
        if np.array_equal(c[:head_dim], seeds[bad]):
            K[head_dim:, head_dim:] *= -1.0
        return K

    monkeypatch.setattr(system, "hessian_matrix", poisoned)
    records: list = []
    reports = reduction.solve_system(system, plan, seeds, seed_records=records, **options)
    assert not records[bad].converged
    assert records[bad].reason == "tail_not_positive_definite"
    assert records[bad].tail_min_eigenvalue < 0.0 and records[bad].tail_iterations == 1
    assert records[bad].u.tobytes() == seeds[bad].tobytes()
    assert [_seed_results(r) for i, r in enumerate(records) if i != bad] == \
        [_seed_results(r) for i, r in enumerate(clean) if i != bad]
    assert all(r.converged for i, r in enumerate(records) if i != bad)
    assert reports


def test_unconverged_results_name_their_reason():
    dom = RectangleDomain((1.0, 1.0))
    pot = parse_potential("-56.49*cos(q1)", 1, c_bound=56.49)
    plan = dirichlet_plan(dom, pot)
    system = DirichletSystem(dom, pot, plan)
    options = dict(head_tol=plan.head_tol, tail_tol=plan.tail_tol, c_bound=plan.c_bound)
    seeds = core.draw_seeds(plan.N, 4, 2.0, 0xAC21)
    results = [core.reduced_newton(system, plan.N, u0, **options) for u0 in seeds]
    assert [(r.converged, r.reason) for r in results] == [
        (True, ""), (False, "line_search_exhausted"), (True, ""),
        (False, "line_search_exhausted")]
    capped = core.reduced_newton(system, plan.N, seeds[2], max_iter=1, **options)
    assert (capped.converged, capped.reason, capped.iterations) == (False, "iteration_cap", 1)

    bp = BoundaryProblem(builtin_potential("pendulum", (0.5,)), 2.0, [0.0], [1.0])
    mplan = make_plan(bp)
    assert mplan.N == 0
    empty = core.reduced_newton(MechanicalSystem(bp, mplan.M), 0, np.zeros(0), tail_tol=1e-30)
    assert (empty.converged, empty.reason) == (False, "tail_not_converged")


def newton_trace(monkeypatch, system):
    """Record, in call order, what a reduced Newton solve on system does: each tail
    solve as I(...) at an iterate or T(...) for a line-search trial (a trial
    passes the tail screen), and inside or between them H for a Hessian, C for a
    tail Cholesky factorization, S for a Schur complement that factors its tail
    block and s for one formed from a factor it is given."""
    solve_tail_, schur_matrix_, cholesky_ = core.solve_tail, core.schur_matrix, core._tail_cholesky
    hessian_, events, iterate_steps = system.hessian_matrix, [], []

    def counted_tail(*args, **kwargs):
        trial = "reject" in kwargs
        events.append("T(" if trial else "I(")
        v, stats, end = solve_tail_(*args, **kwargs)
        events.append(")")
        if not trial:
            iterate_steps.append(stats.iterations)
        return v, stats, end

    def counted_schur(A, B, D, factor=None):
        events.append("S" if factor is None else "s")
        return schur_matrix_(A, B, D, factor)

    def counted(name, function):
        def record(*args, **kwargs):
            events.append(name)
            return function(*args, **kwargs)
        return record

    monkeypatch.setattr(core, "solve_tail", counted_tail)
    monkeypatch.setattr(core, "schur_matrix", counted_schur)
    monkeypatch.setattr(core, "_tail_cholesky", counted("C", cholesky_))
    monkeypatch.setattr(system, "hessian_matrix", counted("H", hessian_))
    return events, iterate_steps


def tail_solves(trace):
    """(kind, calls inside, calls after until the next solve) of each tail solve."""
    return re.findall(r"([IT])\(([^()]*)\)([^()IT]*)", trace)


def newton_steps(trace):
    """Per Newton step: the calls inside the tail solve that made its point (the
    iterate's own, or the accepted trial's when the iterate's solve took no step)
    and the calls between that iterate's tail solve and its first trial."""
    solves, steps = tail_solves(trace), []
    for j, (kind, inside, after) in enumerate(solves):
        if kind == "I" and j + 1 < len(solves):
            steps.append((inside if inside or j == 0 else solves[j - 1][1], after))
    return steps


def test_newton_calls_one_tail_solve_per_point_and_one_schur_per_step(monkeypatch):
    # the benchmark's tracer counts these calls and derives the line-search halvings
    # from them: one tail solve at each iterate (I; after an accepted trial it starts
    # from the trial's point, so no tail step) and one per trial (T); it reads the
    # iteration cap from the signature.  Each Newton step reads one Schur
    # complement: the one a tail solve formed (s) at its last Newton step, from that
    # step's blocks and factor, when the step's point was reached by it, with no
    # Hessian or factorization between the solves; else the exact one (HSC)
    assert inspect.signature(core.reduced_newton).parameters["max_iter"].default == 60
    dom, pot, plan, seeds = stalled_dirichlet()
    system = DirichletSystem(dom, pot, plan)
    events, iterate_steps = newton_trace(monkeypatch, system)
    newton = dict(head_tol=plan.head_tol, tail_tol=plan.tail_tol, c_bound=plan.c_bound)
    exhausted = f"(I.*?T.*?)*I.*?(T.*?){{{core.LINE_SEARCH_HALVINGS + 1}}}"
    for i, reason, pattern in ((2, "", r"(I.*?T.*?)*I\(\)"), (1, "line_search_exhausted", exhausted)):
        events.clear()
        iterate_steps.clear()
        res = core.reduced_newton(system, plan.N, seeds[i], **newton)
        assert (res.converged, res.reason) == (not reason, reason)
        trace = "".join(events)
        assert re.fullmatch(pattern, trace), trace
        assert trace.count("I") == len(res.head_history) >= 2
        assert iterate_steps[0] > 0 and not any(iterate_steps[1:])
        # a tail solve forms a Schur complement only at its last Newton step
        assert all(re.fullmatch(r"(HC)*s?", inside) for _, inside, _ in tail_solves(trace))
        steps = newton_steps(trace)
        assert len(steps) == len(res.head_history) - res.converged
        for made_by, between in steps:
            assert made_by.endswith("s") and between == "", trace

    # an iterate reached without a tail Newton step gets the exact Schur complement:
    # a start whose tail has converged takes no tail step, and Picard takes none at all
    start = core.ReducedPoint.solve(system, plan.N, seeds[2], tol=plan.tail_tol)
    for kwargs in (dict(v0=np.array(start.v)), dict(tail_method="picard")):
        events.clear()
        res = core.reduced_newton(system, plan.N, seeds[2], **newton, **kwargs)
        assert res.converged
        trace = "".join(events)
        steps = newton_steps(trace)
        assert steps[0] == ("", "HSC")
        for made_by, between in steps:
            assert between == ("" if made_by.endswith("s") else "HSC"), trace
        assert ("s" in trace) == ("v0" in kwargs)


def exact_schur(K, head):
    """A - B D^-1 B^T of K split after head, symmetrised, as scipy's Cholesky gives it."""
    A, B, D = K[:head, :head], K[:head, head:], K[head:, head:]
    S = A - B @ cho_solve(cho_factor(D, lower=True, check_finite=False), B.T, check_finite=False)
    return 0.5 * (S + S.T)


PENDULUM_09 = """
[problem]
kind = mechanical

[potential]
builtin = pendulum
params = 1.0

[geometry]
T = 9.42477796076938
q0 = 0.0
qT = 0.9

[multistart]
count = 6

[output]
directory = {out}
"""


def test_morse_data_read_the_exact_schur_complement(monkeypatch, tmp_path, capsys):
    # Newton's matrix may be the Schur complement at the tail solve's last factored
    # iterate; every Morse count reads the exact one at the root's own coefficients
    from finred import cli, morse

    bp = BoundaryProblem(builtin_potential("pendulum", (1.0,)), 3 * np.pi, [0.0], [0.9])
    plan = make_plan(bp)
    signatures, signature = [], morse._signature

    def spy(matrix, method):
        signatures.append((method, matrix.tobytes()))
        return signature(matrix, method)

    monkeypatch.setattr(morse, "_signature", spy)
    reports = solve_reduced(bp, plan, count=6, with_oracles=True)
    assert len(reports) >= 2 and len(signatures) == 2 * len(reports)
    refined = 0
    for rep in reports:
        system = MechanicalSystem(bp, rep.path.M)
        refined += system.M > plan.M
        K = system.hessian_matrix(system.flatten(rep.path.coeffs))
        S = exact_schur(K, plan.N)
        assert ("schur", S.tobytes()) in signatures and ("full_matrix", K.tobytes()) in signatures
        assert (rep.index, rep.nullity) == (signature(S, "schur").index,
                                            signature(S, "schur").nullity)
        assert rep.oracle_index == signature(K, "full_matrix").index
    assert refined

    # the reduced Hessian of a head is the exact Schur complement at its tail point,
    # not the matrix its tail solve formed for Newton, which differs in its last bits
    for rep in reports:
        point = reduction._plan_point(bp, plan, rep.head)
        S = exact_schur(point.system.hessian_matrix(point.c), plan.N)
        assert reduced_hessian_matrix(bp, plan, rep.head).tobytes() == S.tobytes()
        assert point.schur.tobytes() == S.tobytes()
        assert point.newton_matrix.tobytes() != S.tobytes()

    # finred index counts from the written coefficients what the solve reported
    cfg = tmp_path / "run.cfg"
    cfg.write_text(PENDULUM_09.format(out=tmp_path / "out"), encoding="utf-8")
    monkeypatch.undo()
    assert cli.main(["solve", "--config", str(cfg)]) == 0
    rows = (tmp_path / "out" / "solutions.csv").read_text().splitlines()[1:]
    assert [tuple(map(int, row.split(",")[2:4])) for row in rows] == \
        [(rep.index, rep.nullity) for rep in reports]
    for row in rows:
        sid, _, index, nullity = row.split(",")[:4]
        capsys.readouterr()
        assert cli.main(["index", "--config", str(cfg), sid]) == 0
        assert capsys.readouterr().out == f"schur={index} full={index} jacobi={index} AGREE\n"
        assert nullity == "0"


def test_refinement_records_drift():
    bp, plan = random_pendulum_problem(np.random.default_rng(5))
    reports = solve_reduced(bp, plan, count=2, refine=True)
    for rep in reports:
        assert rep.truncation_drift is not None
        assert rep.truncation_drift <= 1e-7


def test_refinement_keeps_the_coarse_root_when_a_finer_level_does_not_converge(monkeypatch):
    bp = BoundaryProblem(builtin_potential("pendulum", (1.0,)), 3 * math.pi, [0.0], [0.3])
    plan = make_plan(bp)
    [coarse] = solve_reduced(bp, plan, count=1, refine=False)
    newton, fine = core.reduced_newton, []

    def no_fine_root(system, head_dim, u0, **kw):
        if len(system.eigenvalues) == plan.M:
            return newton(system, head_dim, u0, **kw)
        fine.append(newton(system, head_dim, u0, **{**kw, "head_tol": -1.0}))  # never met
        return fine[-1]

    monkeypatch.setattr(core, "reduced_newton", no_fine_root)
    [rep] = solve_reduced(bp, plan, count=1)
    assert len(fine) == 1 and not fine[0].converged  # the first finer level stops refinement
    assert rep.converged and rep.path.M == plan.M
    assert np.array_equal(rep.head, coarse.head) and rep.action == coarse.action
    assert rep.truncation_drift == float(np.linalg.norm(fine[0].u - coarse.head))


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
    with pytest.raises(RuntimeError, match="tail solve did not reach tolerance 1e-30"):
        reduced_gradient(bp, plan, np.zeros(plan.N))


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


@pytest.mark.parametrize("quad_points, levels", [(None, [(65,), (129,), (257,)]),
                                                 (1001, [(1001,), (2001,), (4001,)])])
def test_refinement_keeps_the_requested_quadrature(quad_points, levels):
    # pendulum, M = 32: each level doubles M and takes 2P - 1 nodes
    bp = BoundaryProblem(builtin_potential("pendulum", (1.0,)), 3 * math.pi, [0.0], [1.0])
    system = MechanicalSystem(bp, 32, quad_points)
    got = [system.grid.P]
    for _ in range(2):
        system = system.refined()
        got.append(system.grid.P)
    assert got == levels


def test_refined_systems():
    bp = BoundaryProblem(builtin_potential("pendulum", (1.0,)), 3.0, [0.0], [0.5])
    fine = MechanicalSystem(bp, 8, quad_points=40).refined()
    assert (fine.M, fine.P) == (16, 79)  # 2P - 1 nodes
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
# a point holds its evaluation, and a system holds none

def sample_system(kind):
    """A fresh system: mechanical with n = 2 and a drift, or Dirichlet in 2-D."""
    if kind == "mechanical":
        pot = builtin_potential("coupled_pendula", (1.5, 0.5), dim=2)
        return MechanicalSystem(BoundaryProblem(pot, 4.0, [0.2, -0.3], [0.9, 0.4]), 12)
    dom = RectangleDomain((1.0, 1.3))
    pot = builtin_potential("pendulum", (30.0,), dim=1)
    return DirichletSystem(dom, pot, dirichlet_plan(dom, pot))


def head_of(system):
    """A head size above which the tail block is positive definite at every c."""
    return system.plan.N if isinstance(system, DirichletSystem) else 2 * system.n


def evaluated(point):
    """Bit patterns of what a point derives at its c: grid values, V', the
    residual and the Hessian blocks."""
    blocks = point.blocks
    return [a.tobytes() for a in (point.values, point.vprime, point.residual,
                                  blocks.A, blocks.B, blocks.D)]


def fresh(kind, c):
    """The same from the methods of a fresh system."""
    system = sample_system(kind)
    h, K = head_of(system), system.hessian_matrix(c)
    return [a.tobytes() for a in (system.grid_values(c), system.nonlinear_coeffs(c),
                                  system.residual(c), K[:h, :h], K[:h, h:], K[h:, h:])]


@pytest.mark.parametrize("kind", ["mechanical", "dirichlet"])
def test_a_point_is_bitwise_a_fresh_system(kind):
    system = sample_system(kind)
    D, head = len(system.eigenvalues), head_of(system)
    rng = np.random.default_rng(17)
    c1, c2 = (rng.normal(size=D) / np.arange(1, D + 1) for _ in range(2))

    def point_at(c):
        return core.ReducedPoint(system, head, c)

    # a point keeps its own copy of c: a caller changing its array after
    # building the point changes nothing the point derives
    c = c1.copy()
    point = point_at(c)
    c[:] = c2
    assert evaluated(point) == fresh(kind, c1)
    assert point.c.tobytes() == c1.tobytes()
    for c in (c1, c2, c1, c1):  # alternate two states on one system, then repeat one
        assert evaluated(point_at(c)) == fresh(kind, c)
    # -0.0 and NaN entries go through as they are
    zero = np.zeros(D)
    for c in (zero, -zero, zero):
        assert evaluated(point_at(c)) == fresh(kind, c)
    if kind == "dirichlet":  # V'(0) = 0, so the sign of zero reaches the residual
        assert fresh(kind, -zero)[2] != fresh(kind, zero)[2]
    nan = c1.copy()
    nan[[0, D // 2]] = np.nan
    assert evaluated(point_at(nan)) == fresh(kind, nan)
    # every array a point keeps is read-only
    for a in (point.c, point.u, point.v, point.values, point.vprime, point.residual,
              point.blocks.A, point.blocks.B, point.blocks.D, point.schur):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0


@pytest.mark.parametrize("kind", ["mechanical", "dirichlet"])
def test_a_point_evaluates_its_residual_when_made_and_its_hessian_on_read(kind):
    from finred.functional import blocks_at

    system = sample_system(kind)
    D, head = len(system.eigenvalues), head_of(system)
    c = np.random.default_rng(23).normal(size=D) / np.arange(1, D + 1)
    calls = []

    def counting(name):
        method = getattr(system, name)

        def record(*args):
            calls.append((name,) + args[1:])
            return method(*args)
        setattr(system, name, record)

    for name in ("grid_values", "nonlinear_coeffs", "hessian_matrix"):
        counting(name)
    point = core.ReducedPoint(system, head, c)
    assert [name for name, *_ in calls] == ["grid_values", "nonlinear_coeffs"]
    assert calls[1][1] is point.values  # V' from the grid values the point holds
    for name in ("values", "vprime", "residual", "gradient", "head_residual", "tail_residual"):
        getattr(point, name)
    assert len(calls) == 2
    blocks = point.blocks
    assert [name for name, *_ in calls[2:]] == ["hessian_matrix"]
    assert calls[2][1] is point.values  # the Hessian from the same grid values
    point.blocks, point.schur
    assert len(calls) == 3
    # blocks_at splits the Hessian as a point does, with no V' evaluated: the
    # Hessian synthesizes its own grid values
    calls.clear()
    at = blocks_at(system, head, c)
    assert [name for name, *_ in calls] == ["hessian_matrix", "grid_values"]
    assert (at.N, at.M, at.n, at.metric) == (blocks.N, blocks.M, blocks.n, blocks.metric)
    for mine, theirs in zip((at.A, at.B, at.D), (blocks.A, blocks.B, blocks.D)):
        assert mine.tobytes() == theirs.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            mine[0] = 1.0


def count_states(system):
    """Record the bit pattern of every state that nonlinear_coeffs evaluates."""
    states = []
    nonlinear = system.nonlinear_coeffs

    def counting(c, *args):
        states.append(np.asarray(c, dtype=float).tobytes())
        return nonlinear(c, *args)

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
    v, stats, _ = core.solve_tail(system, plan.N, u, tol=plan.tail_tol, method="picard")
    assert stats.converged and stats.iterations > 10
    # one state per iteration plus the converged one, each evaluated once
    assert len(states) == len(stats.residuals) == len(set(states))


def test_a_stalled_newton_solve_evaluates_each_state_once():
    # both seeds end with an exhausted line search; the result keeps the last
    # iterate's point, so that state is not evaluated a second time
    dom, pot, plan, seeds = stalled_dirichlet()
    for i in (1, 3):
        system = DirichletSystem(dom, pot, plan)
        states = count_states(system)
        res = core.reduced_newton(system, plan.N, seeds[i], head_tol=plan.head_tol,
                                  tail_tol=plan.tail_tol, c_bound=plan.c_bound)
        assert res.reason == "line_search_exhausted"
        assert len(states) > res.tail_iterations and len(set(states)) == len(states)


def test_one_system_is_shared_between_calls_and_threads():
    dom, pot, plan, _ = stalled_dirichlet()
    system = DirichletSystem(dom, pot, plan)
    seed_lists = [core.draw_seeds(plan.N, 6, 2.0, seed) for seed in (7, 8, 9)]
    options = dict(count=6, radius=2.0, seed=0, method="newton", refine=False,
                   with_oracles=False)

    def solve(seeds):
        records: list = []
        reduction.solve_system(system, plan, seeds, seed_records=records, **options)
        return [_seed_results(r) for r in records]

    before, grid_before = dict(vars(system)), dict(vars(system.grid))
    sequential = [solve(seeds) for seeds in seed_lists]
    # a solve leaves the system as it was, but for the geometry tables built on first use
    for now, then, lazy in ((vars(system), before, {"_gauss"}),
                            (vars(system.grid), grid_before, {"_cosines", "_gather"})):
        assert set(now) - set(then) <= lazy and all(now[k] is then[k] for k in then)
    assert any(r[-1] == "line_search_exhausted" for records in sequential for r in records)
    # three threads (more than a 2-core host has), switching often, each on its own seeds
    concurrent = [None] * len(seed_lists)

    def run(j):
        concurrent[j] = solve(seed_lists[j])

    threads = [threading.Thread(target=run, args=(j,)) for j in range(len(seed_lists))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert concurrent == sequential


# ---------------------------------------------------------------------------
# certified early rejection of line-search trials

@cache
def certificate_system(kind):
    """(system, head_dim, C) of a certified problem of each kind."""
    if kind == "pendulum":
        bp = BoundaryProblem(builtin_potential("pendulum", (2.0,)), 6.0, [0.0], [1.0])
    elif kind == "chain":
        pot = builtin_potential("coupled_pendula", (1.0, 0.5), dim=4)
        bp = BoundaryProblem(pot, 4.0, np.zeros(4), 0.5 * np.array([1, 1 / 3, -1 / 3, -1]))
    if kind in ("pendulum", "chain"):
        plan = make_plan(bp)
        system = MechanicalSystem(bp, plan.M, plan.quad_points)
    else:
        dom, expr, C = {"dirichlet-1d": (RectangleDomain((3.0,)), "-20*cos(q1)", 20.0),
                        "dirichlet-2d": (RectangleDomain((1.0, 1.0)), "-56.49*cos(q1)", 56.49)}[kind]
        pot = parse_potential(expr, 1, c_bound=C)
        plan = dirichlet_plan(dom, pot)
        system = DirichletSystem(dom, pot, plan)
    assert plan.certified and plan.N > 0
    return system, plan.N * system.n, plan.c_bound


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["pendulum", "chain", "dirichlet-1d", "dirichlet-2d"]),
       seed=st.integers(0, 2**32 - 1), scale=st.floats(0.01, 3.0), near=st.booleans())
def test_rejection_slope_is_sound(kind, seed, scale, near):
    """| |r_h(v)| - |r_h(v*)| | <= kappa res(v), and |v - v*|_H1 <= res(v) / mu,
    up to the residual left in the computed v*.  ``near`` states differ from
    v* in the lowest tail modes only, where the H1 bound is nearly attained."""
    system, head_dim, C = certificate_system(kind)
    eig = system.eigenvalues
    lam_t = eig[head_dim]
    kappa = core.rejection_slope(system, head_dim, C)
    assert kappa == C / ((1.0 - C / lam_t) * math.sqrt(lam_t))
    rng = np.random.default_rng(seed)
    u = scale * rng.standard_normal(head_dim)

    def norms(v):
        r = system.residual(np.concatenate([u, v]))
        return core.head_residual_norm(r, head_dim), core.tail_residual_norm(system, r, head_dim)

    v_star, stats, _ = core.solve_tail(system, head_dim, u)
    assert stats.converged
    if near:
        v = v_star + scale * np.where(eig[head_dim:] == lam_t,
                                      rng.standard_normal(len(eig) - head_dim), 0.0)
    else:
        v = scale * rng.standard_normal(len(eig) - head_dim) / np.sqrt(eig[head_dim:])
    (h, res), (h_star, res_star) = norms(v), norms(v_star)
    slack = 1e-12 * (1.0 + h + h_star)
    assert abs(h - h_star) <= kappa * (res + res_star) + slack
    mu = 1.0 - C / lam_t
    assert core.tail_h1_norm(system, v - v_star, head_dim) <= (res + res_star) / mu + slack


def test_tail_rejection_rule_is_exact():
    """solve_tail stops at the first iterate with |r_h| - kappa (res + tol) >= hnorm,
    and not before."""
    system, head_dim, C = certificate_system("dirichlet-2d")
    kappa = core.rejection_slope(system, head_dim, C)
    u = np.array([1.5, -0.5, 0.25])
    v0 = core.solve_tail(system, head_dim, u)[0]
    v0[0] += 1e-3  # off the tail solution along the lowest tail mode
    r = system.residual(np.concatenate([u, v0]))
    edge = (core.head_residual_norm(r, head_dim)
            - kappa * (core.tail_residual_norm(system, r, head_dim) + 1e-10))
    full = core.solve_tail(system, head_dim, u, v0=v0)[1]
    at = core.solve_tail(system, head_dim, u, v0=v0, reject=(edge, kappa))[1]
    above = core.solve_tail(system, head_dim, u, v0=v0,
                            reject=(np.nextafter(edge, np.inf), kappa))[1]
    assert edge > 0 and full.converged and full.iterations >= 1 and not full.rejected
    assert at.rejected and at.iterations == 0 and not at.converged
    assert above.iterations >= 1 and above.residuals[0] == full.residuals[0]


def stalled_dirichlet():
    """The g = 56.49 unit-square problem and its multistart draw (seeds 1 and 3 stall)."""
    dom = RectangleDomain((1.0, 1.0))
    pot = parse_potential("-56.49*cos(q1)", 1, c_bound=56.49)
    plan = dirichlet_plan(dom, pot)
    seeds = core.draw_seeds(plan.N, 4, 2.0, reduction.DEFAULT_MULTISTART_SEED)
    return dom, pot, plan, seeds


def test_certified_rejection_is_bitwise_the_full_line_search():
    dom, pot, plan, seeds = stalled_dirichlet()
    system = DirichletSystem(dom, pot, plan)
    for i in (1, 3):
        runs = [core.reduced_newton(system, plan.N, seeds[i], head_tol=plan.head_tol,
                                    tail_tol=plan.tail_tol, c_bound=c_bound)
                for c_bound in (None, plan.c_bound)]
        plain, screened = runs
        assert not plain.converged and plain.rejected_trials == 0
        assert screened.rejected_trials > 0
        assert screened.tail_iterations < plain.tail_iterations
        assert screened.u.tobytes() == plain.u.tobytes()
        assert screened.v.tobytes() == plain.v.tobytes()
        fields = ("converged", "iterations", "head_history", "head_residual", "tail_residual")
        assert [getattr(screened, f) for f in fields] == [getattr(plain, f) for f in fields]


def test_reduced_result_sums_tail_fallbacks(monkeypatch):
    system, head_dim, _ = certificate_system("pendulum")
    solve_tail_, calls = core.solve_tail, []

    def one_fallback_each(*args, **kwargs):
        v, stats, end = solve_tail_(*args, **kwargs)
        stats.fallbacks += 1
        calls.append(stats)
        return v, stats, end

    monkeypatch.setattr(core, "solve_tail", one_fallback_each)
    res = core.reduced_newton(system, head_dim, np.full(head_dim, 0.7))
    assert res.converged and res.iterations >= 2
    assert res.tail_fallbacks == len(calls) > res.iterations


def test_only_certified_plans_screen(monkeypatch, caplog):
    """solve_system hands c_bound to every Newton solve, refinement included,
    only for a certified plan; the roots are the same either way."""
    dom, pot, plan, seeds = stalled_dirichlet()
    uncertified = dataclasses.replace(pot, c_source="sampled_estimate")
    calls = []
    newton = core.reduced_newton

    def recording(*args, **kwargs):
        calls.append(kwargs["c_bound"])
        return newton(*args, **kwargs)

    monkeypatch.setattr(core, "reduced_newton", recording)
    runs = []
    for p in (pot, uncertified):
        records = []
        with caplog.at_level(logging.DEBUG, logger="finred.reduction"):
            caplog.clear()
            reports = solve_dirichlet(dom, p, dirichlet_plan(dom, p, allow_uncertified=True),
                                      seeds, refine=True, seed_records=records)
        stalled = [r.getMessage() for r in caplog.records if r.name == "finred.reduction"]
        runs.append((reports, records, stalled, calls[:]))
        calls.clear()
    (reports, records, stalled, c_bounds), (reports_u, records_u, stalled_u, c_bounds_u) = runs
    assert len(c_bounds) > len(seeds)  # refinement solves too
    assert c_bounds == [plan.c_bound] * len(c_bounds)
    assert c_bounds_u == [None] * len(c_bounds_u)
    assert [r.rejected_trials for r in records_u] == [0] * len(seeds)
    assert records[1].rejected_trials > 0 and records[3].rejected_trials > 0
    assert [r.u.tobytes() for r in records] == [r.u.tobytes() for r in records_u]
    assert [(r.action, r.index, r.head.tobytes()) for r in reports] == \
        [(r.action, r.index, r.head.tobytes()) for r in reports_u]
    # one debug line per stalled seed, with its counts
    for lines, recs in ((stalled, records), (stalled_u, records_u)):
        assert len(lines) == 2
        for line, i in zip(lines, (1, 3)):
            assert line.startswith(f"seed {i} stopped unconverged")
            assert f"{recs[i].rejected_trials} line-search trials rejected" in line


def test_report_order_ignores_rounding():
    base = 12.5
    for noise in (4e-14, -4e-14):
        tiny = 3e-17 * np.sign(noise)  # a zero component, as rounding leaves it
        reps = [SimpleNamespace(action=base * (1 + noise), head=np.array([tiny, 0.3, 0.1])),
                SimpleNamespace(action=base, head=np.array([-tiny, -0.3, 0.1])),
                SimpleNamespace(action=base + 1e-6, head=np.array([0.0, -1.0, 0.0])),
                SimpleNamespace(action=1e-17 * np.sign(noise), head=np.array([0.5, 0.0, 0.0])),
                SimpleNamespace(action=-1e-17 * np.sign(noise), head=np.array([0.4, 0.0, 0.0]))]
        ordered = reduction.order_reports(reps)
        assert [r.head[1:].tolist() for r in ordered] == \
            [[0.0, 0.0], [0.0, 0.0], [-0.3, 0.1], [0.3, 0.1], [-1.0, 0.0]]
        assert ordered[0].head[0] == 0.4


def test_mirror_roots_are_ordered_by_head():
    """-51.4 cos(phi) on the unit square has two mirror pairs whose actions
    and zero head components differ in the last digits only."""
    dom = RectangleDomain((1.0, 1.0))
    pot = parse_potential("-51.4*cos(q1)", 1, c_bound=51.4)
    reports = solve_dirichlet(dom, pot, dirichlet_plan(dom, pot), count=8, refine=False)
    heads = [np.round(r.head, 6).tolist() for r in reports]
    assert heads[:4] == [[-1.590284, 0.0, 0.0], [1.590284, 0.0, 0.0],
                         [0.0, -0.3301, 0.0], [0.0, 0.0, -0.3301]]
    assert reports[0].action != reports[1].action and reports[2].action != reports[3].action
    # a plain (action, head) sort orders both pairs by rounding noise
    plain = sorted(reports, key=lambda rep: (rep.action, tuple(rep.head)))
    assert [r.seed_index for r in plain] != [r.seed_index for r in reports]


@pytest.mark.parametrize("kind", ["chain", "dirichlet-2d"])
def test_hessian_matrix_adds_the_stiffness_diagonal(kind):
    system, _, _ = certificate_system(kind)
    c = np.random.default_rng(3).normal(size=len(system.eigenvalues)) * 0.3
    expected = -system.curvature_matrix(c)
    expected[np.diag_indices_from(expected)] += system.eigenvalues
    assert system.hessian_matrix(c).tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# refined levels start from the coarse root

def refinement_solver(kind):
    """solve(count) with refinement: a pendulum, a 4-pendulum chain, a 2-D field."""
    if kind == "dirichlet":
        dom = RectangleDomain((1.0, 1.0))
        pot = parse_potential("-56.49*cos(q1)", 1, c_bound=56.49)
        plan = dirichlet_plan(dom, pot)
        return lambda count: solve_dirichlet(dom, pot, plan, count=count)
    if kind == "pendulum":
        bp = BoundaryProblem(builtin_potential("pendulum", (1.0,)), 3 * np.pi, [0.0], [0.9])
    else:
        pot = builtin_potential("coupled_pendula", (1.0, 0.5), dim=4)
        bp = BoundaryProblem(pot, 4.0, np.zeros(4), 0.4 * np.array([1, 1 / 3, -1 / 3, -1]))
    plan = make_plan(bp)
    return lambda count: solve_reduced(bp, plan, count=count)


@pytest.mark.parametrize("kind, count", [("pendulum", 3), ("chain", 2), ("dirichlet", 3)])
def test_refined_levels_start_from_the_coarse_root(monkeypatch, kind, count):
    solve = refinement_solver(kind)
    newton = core.reduced_newton

    def run(warm):
        calls = []  # (coefficients, warm started, tail iterations) per Newton solve

        def recording(system, head_dim, u0, v0=None, **kw):
            res = newton(system, head_dim, u0, v0=v0 if warm else None, **kw)
            calls.append((len(system.eigenvalues), v0 is not None, res.tail_iterations))
            return res

        with monkeypatch.context() as patch:
            patch.setattr(core, "reduced_newton", recording)
            return solve(count), calls

    reports, calls = run(warm=True)
    reference, zero_calls = run(warm=False)  # every level from a zero tail, as before
    assert len(reports) == len(reference) > 0
    for rep, ref in zip(reports, reference):
        assert (rep.index, rep.nullity) == (ref.index, ref.nullity)
        assert abs(rep.action - ref.action) <= 1e-12 * max(abs(ref.action), 1.0)
        assert np.linalg.norm(rep.head - ref.head) <= 1e-12 * max(np.linalg.norm(ref.head), 1.0)
    # the same solves in the same order; only the refined ones are warm started
    assert [c[:2] for c in calls] == [c[:2] for c in zero_calls]
    coarse = min(c[0] for c in calls)
    assert all(warm == (size > coarse) for size, warm, _ in calls)
    assert any(warm and its for _, warm, its in zero_calls)
    for (_, warm, its), (_, _, zero_its) in zip(calls, zero_calls):
        if warm and zero_its:  # a root with a zero tail leaves nothing to save
            assert its < zero_its
        else:
            assert its == zero_its


def test_coarse_coefficients_lead_the_refined_ones():
    # mechanical systems are mode-major: the coarse M n entries are modes 1..M
    pot = builtin_potential("coupled_pendula", (1.0, 0.5), dim=3)
    coarse = MechanicalSystem(BoundaryProblem(pot, 4.0, np.zeros(3), np.ones(3)), 8)
    fine = coarse.refined()
    c = np.random.default_rng(5).normal(size=len(coarse.eigenvalues))
    padded = np.zeros(len(fine.eigenvalues))
    padded[:len(c)] = c
    assert np.array_equal(fine.eigenvalues[:len(c)], coarse.eigenvalues)
    assert np.array_equal(fine.unflatten(padded)[:coarse.M], coarse.unflatten(c))
    # a Dirichlet list ascends by eigenvalue and a finer one only appends modes
    # above the coarse cut, also when a mode sits exactly on the cut
    pot = parse_potential("-30*cos(q1)", 1, c_bound=30.0)
    for lengths, on_cut in [((1.0, 1.3), (2, 3)), ((1.0, 1.0), (3, 1)), ((2.3,), (7,))]:
        dom = RectangleDomain(lengths)
        cut = mode_eigenvalue(dom, on_cut)
        system = DirichletSystem(dom, pot, dirichlet_plan(dom, pot, lambda_cut=cut))
        assert system.modes[-1].lam == cut  # the cut is boundary-exact
        for _ in range(2):
            fine = system.refined()
            D = len(system.modes)
            assert len(fine.modes) > D and fine.modes[:D] == system.modes
            assert np.array_equal(fine.eigenvalues[:D], system.eigenvalues)
            system = fine


# ---------------------------------------------------------------------------
# geometry tables shared between systems

def clear_tables():
    fourier._cosine_rows.cache_clear()
    core.gauss_sine_rule.cache_clear()


def tables(system):
    """The cosine rows and the Gauss rule arrays of each axis."""
    return system.grid._cosines, [arr for rule in system._gauss[0] for arr in rule]


def test_geometry_tables_are_shared_read_only_and_keyed():
    bp = BoundaryProblem(builtin_potential("pendulum", (1.0,)), 3 * np.pi, [0.0], [0.9])
    cos, gauss = tables(MechanicalSystem(bp, 16))
    same = BoundaryProblem(builtin_potential("harmonic", (2.0,)), 3 * np.pi, [1.0], [-0.5])
    cos2, gauss2 = tables(MechanicalSystem(same, 16))
    assert all(a is b for a, b in zip(cos + gauss, cos2 + gauss2, strict=True))
    for arr in cos + gauss:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    other_K = tables(MechanicalSystem(bp, 17))
    other_P = tables(MechanicalSystem(bp, 16, 40))
    other_L = tables(MechanicalSystem(dataclasses.replace(bp, T=3.0), 16))
    assert other_K[0][0] is not cos[0] and other_P[0][0] is not cos[0]
    assert all(a is not b for a, b in zip(other_K[1] + other_L[1], gauss + gauss))
    # cosine rows depend on (K, P) only, Gauss rules on (L, K) only
    assert other_L[0][0] is cos[0] and all(a is b for a, b in zip(other_P[1], gauss))
    # the two axes of a square share their tables
    dom = RectangleDomain((1.0, 1.0))
    pot = parse_potential("-30*cos(q1)", 1, c_bound=30.0)
    cos, gauss = tables(DirichletSystem(dom, pot, dirichlet_plan(dom, pot)))
    assert cos[0] is cos[1] and gauss[2] is gauss[5]


@pytest.mark.parametrize("kind", ["mechanical", "dirichlet"])
def test_a_system_built_after_clearing_the_tables_is_bitwise_the_same(kind):
    def evaluate(system, c):
        return (system.residual(c).tobytes(), system.hessian_matrix(c).tobytes(),
                system.action(c))

    before = sample_system(kind)
    c = np.random.default_rng(11).normal(size=len(before.eigenvalues)) * 0.3
    expected = evaluate(before, c)
    clear_tables()
    after = sample_system(kind)
    assert evaluate(after, c) == expected
    (cos, gauss), (cos2, gauss2) = tables(before), tables(after)
    assert all(a is not b for a, b in zip(cos + gauss, cos2 + gauss2, strict=True))


def test_solves_between_leave_a_solve_bitwise_the_same():
    def solved(solve):
        return [(rep.head.tobytes(), np.asarray(rep.path.coeffs).tobytes(), rep.action,
                 rep.index, rep.nullity, rep.head_residual, rep.tail_residual,
                 rep.tail_iterations, rep.truncation_drift) for rep in solve(True, [])]

    clear_tables()
    first = solved(pendulum_solver())
    solved(dirichlet_solver())  # other tables, and a shorter horizon below
    bp = BoundaryProblem(builtin_potential("pendulum", (1.0,)), 5.0, [0.0], [0.9])
    solve_reduced(bp, make_plan(bp), count=4)
    assert solved(pendulum_solver()) == first


# ---------------------------------------------------------------------------
# Cholesky of the tail block through LAPACK

@pytest.mark.parametrize("size", [1, 17, 29])
def test_tail_cholesky_is_bitwise_scipys(size):
    rng = np.random.default_rng(size)
    X = rng.normal(size=(size + 3, size + 3))
    K = X @ X.T + 0.1 * np.eye(size + 3)  # head block of 3, as in a Hessian
    A, B, D = K[:3, :3], K[:3, 3:], K[3:, 3:]
    L = core._tail_cholesky(D)
    ref = cho_factor(D, lower=True, check_finite=False)
    assert L.tobytes() == ref[0].tobytes()
    for rhs in (rng.normal(size=size + 3)[3:], B.T):
        assert (core._cholesky_solve(L, rhs).tobytes()
                == cho_solve(ref, rhs, check_finite=False).tobytes())
    S = A - B @ cho_solve(ref, B.T, check_finite=False)
    assert core.schur_matrix(A, B, D).tobytes() == (0.5 * (S + S.T)).tobytes()


def test_indefinite_tail_block_is_a_truncation_error():
    D = np.diag([1.0, -0.5, 2.0])
    message = (r"^tail curvature block is not positive definite \(smallest eigenvalue "
               r"-5\.000e-01\); increase the cutoff or truncation$")
    with pytest.raises(core.TruncationError, match=message):
        core._tail_cholesky(D)
    with pytest.raises(core.TruncationError, match=message):
        core.schur_matrix(np.eye(1), np.zeros((1, 3)), D)
