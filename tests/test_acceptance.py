"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict.
All tolerances are fixed here, not calibrated at runtime.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import root

from finred import (BoundaryProblem, HessianBlocks, RectangleDomain, SinePath,
                    builtin_potential, dirichlet_plan, fixed_point_cutoff, gradient,
                    index_full, index_jacobi, index_schur, make_plan, parse_potential,
                    project_tail, reduced_gradient, solve_dirichlet, solve_reduced,
                    solve_tail, weyl_estimate)
from finred.cli import main
from finred.core import MechanicalSystem
from finred.fourier import h1_inner, mode_eigenvalues
from finred.functional import action_value
from tests.conftest import picard_tail, random_builtin_problem, random_pendulum_problem


def verdict(num: int, ok: bool, text: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def grid_CT():
    Cs = np.linspace(0.1, 100.0, 20)
    Ts = np.linspace(0.1, 10.0, 20)
    return [(float(C), float(T)) for C in Cs for T in Ts]


def test_criterion_01_cutoff_formula():
    ok = True
    for C, T in grid_CT():
        pot = builtin_potential("harmonic", (math.sqrt(C),))
        bp = BoundaryProblem(pot, T, [0.0], [1.0])
        plan = make_plan(bp)
        C_eff = pot.c_bound
        n_expect = int(math.floor(T * math.sqrt(C_eff) / math.pi))
        mu_expect = 1.0 - C_eff * T * T / (math.pi * (plan.N + 1)) ** 2
        ok &= plan.N == n_expect
        ok &= abs(plan.mu - mu_expect) <= 1e-12
        ok &= plan.mu > 0.0
    verdict(1, ok, "cutoff N = floor(T sqrt(C)/pi) and mu = 1 - C T^2/(pi(N+1))^2 > 0 "
                   "on the 20x20 (C, T) grid")


def test_criterion_02_cutoff_comparison():
    ok = True
    for C, T in grid_CT():
        pot = builtin_potential("harmonic", (math.sqrt(C),))
        bp = BoundaryProblem(pot, T, [0.0], [1.0])
        plan = make_plan(bp)
        ok &= fixed_point_cutoff(max(1.0, pot.c_bound), T) > plan.N
    verdict(2, ok, "fixed-point cutoff exceeds the monotonicity cutoff in every grid cell")


def test_criterion_03_strong_monotonicity():
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(500):
        bp, plan = random_builtin_problem(rng)
        coeffs = np.zeros((plan.M, bp.n))
        coeffs[:plan.N] = rng.standard_normal((plan.N, bp.n))
        decay = 1.0 / np.arange(plan.N + 1, plan.M + 1)[:, None]

        def tail():
            out = np.zeros((plan.M, bp.n))
            out[plan.N:] = decay * rng.standard_normal((plan.M - plan.N, bp.n))
            return out

        v1, v2 = tail(), tail()
        g1 = gradient(bp, SinePath(bp.T, coeffs + v1), convention="riesz_h1")
        g2 = gradient(bp, SinePath(bp.T, coeffs + v2), convention="riesz_h1")
        dg = project_tail(SinePath(bp.T, g2.coeffs - g1.coeffs), plan.N)
        dv = SinePath(bp.T, v2 - v1)
        ok &= h1_inner(dg, dv) >= plan.mu * h1_inner(dv, dv) - 1e-9
    verdict(3, ok, "tail-gradient monotonicity with constant mu on 500 randomized instances")


def test_criterion_04_tail_solver():
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(50):
        bp, plan = random_pendulum_problem(rng)
        u = rng.uniform(-1.0, 1.0, plan.N)

        v_picard, converged, increments = picard_tail(bp, plan, u)
        ok &= converged
        floor = 1e-12 * max(increments[0], 1e-30)
        ratios = [b / a for a, b in zip(increments, increments[1:])
                  if a > floor and b > floor]
        if ratios:
            ok &= max(ratios) <= plan.contraction + 0.05

        v_newton, nstats = solve_tail(bp, plan, u)
        ok &= nstats.converged and nstats.iterations <= 8
        ok &= nstats.residuals[-1] <= 1e-10

        system = MechanicalSystem(bp, plan.M, plan.quad_points)
        hd = plan.N * bp.n
        sol = root(lambda v: system.residual(np.concatenate([u, v]))[hd:],
                   np.zeros(plan.M * bp.n - hd), method="hybr", tol=1e-13)
        ok &= sol.success
        eig = np.repeat(mode_eigenvalues(bp.T, plan.M), bp.n)[hd:]
        for cand in (v_picard, v_newton):
            diff = cand.coeffs.ravel()[hd:] - sol.x
            ok &= math.sqrt(float(np.sum(eig * diff * diff))) <= 1e-8
    verdict(4, ok, "Picard rate <= (1 - mu) + 0.05, Newton to 1e-10 in <= 8 steps, "
                   "both within 1e-8 of an independent dense root-finder (50 pendulums)")


def test_criterion_05_harmonic_exactness():
    pot = builtin_potential("harmonic", (1.0,))
    bp = BoundaryProblem(pot, math.pi / 2, [0.0], [1.0])
    plan = make_plan(bp, M=512)
    reports = solve_reduced(bp, plan, count=4, refine=False)
    ok = len(reports) == 1
    if ok:
        rep = reports[0]
        ts = np.linspace(0.0, bp.T, 512)
        traj = bp.drift(ts)[:, 0] + rep.path.evaluate(ts)[:, 0]
        sup_err = float(np.max(np.abs(traj - np.sin(ts))))
        ok &= sup_err <= 1e-6
        ok &= abs(rep.action - 0.0) <= 1e-8  # analytic action of q = sin t is 0
    verdict(5, ok, "harmonic solution matches sin t to 1e-6 sup-norm, action to 1e-8")


def test_criterion_06_envelope_identity():
    rng = np.random.default_rng(6)
    ok = True
    checked = 0
    while checked < 50:
        bp, plan = random_pendulum_problem(rng)
        if plan.N == 0:
            continue
        checked += 1
        u = rng.uniform(-0.8, 0.8, plan.N)
        grad_u = reduced_gradient(bp, plan, u)

        def s_value(uu):
            tail, stats = solve_tail(bp, plan, uu)
            coeffs = np.array(tail.coeffs)
            coeffs[:plan.N, 0] = uu
            return action_value(bp, SinePath(bp.T, coeffs))

        eps = 1e-5
        for j in range(plan.N):
            e = np.zeros(plan.N)
            e[j] = eps
            fd = (s_value(u + e) - s_value(u - e)) / (2.0 * eps)
            scale = max(abs(fd), abs(grad_u[j]), 1e-8)
            ok &= abs(grad_u[j] - fd) / scale <= 1e-5
    verdict(6, ok, "reduced gradient equals finite differences of the reduced action "
                   "to relative 1e-5 on 50 random heads")


def _random_blocks(rng, head=4, tail=7):
    while True:
        A = rng.standard_normal((head, head))
        A = 0.5 * (A + A.T)
        B = rng.standard_normal((head, tail))
        Q = rng.standard_normal((tail, tail))
        D = Q @ Q.T + 0.3 * np.eye(tail)
        blocks = HessianBlocks(N=head, M=head + tail, n=1, A=A, B=B, D=D)
        eigs = np.linalg.eigvalsh(blocks.full())
        if np.min(np.abs(eigs)) > 1e-6:
            return blocks


def test_criterion_07_schur_index_equality():
    rng = np.random.default_rng(7)
    ok = True
    solutions = 0
    while solutions < 50:
        bp, plan = random_pendulum_problem(rng)
        for rep in solve_reduced(bp, plan, count=3, refine=False):
            blocks_rep = index_schur_blocks(bp, plan, rep)
            schur = index_schur(blocks_rep)
            full = index_full(blocks_rep)
            if min(schur.min_abs_eigenvalue, full.min_abs_eigenvalue) < 1e-6:
                continue  # skip near-degenerate draws: integer counts need a margin
            ok &= (schur.index, schur.nullity) == (full.index, full.nullity)
            solutions += 1
    for _ in range(20):
        blocks = _random_blocks(rng)
        schur, full = index_schur(blocks), index_full(blocks)
        ok &= (schur.index, schur.nullity) == (full.index, full.nullity)
    verdict(7, ok, "Schur complement index/nullity equals the full-matrix signature "
                   "(50 converged solutions + 20 synthetic block matrices)")


def index_schur_blocks(bp, plan, rep):
    from finred.functional import hessian_blocks
    return hessian_blocks(bp, rep.path, plan.N, quad_points=plan.quad_points)


def test_criterion_08_morse_index_theorem():
    ok = True
    T = 4.0  # omega T / pi is not an integer for omega in {1, 2, 3}
    for omega in (1.0, 2.0, 3.0):
        pot = builtin_potential("harmonic", (omega,))
        bp = BoundaryProblem(pot, T, [0.0], [1.0])
        plan = make_plan(bp)
        reports = solve_reduced(bp, plan, count=4, refine=False)
        ok &= len(reports) == 1
        if not reports:
            continue
        rep = reports[0]
        expected = int(math.floor(omega * T / math.pi))
        jac = index_jacobi(bp, rep.path)
        ok &= rep.index == expected
        ok &= jac.index == expected
    verdict(8, ok, "index_schur = index_jacobi = floor(omega T / pi) for omega in {1,2,3}")


def test_criterion_09_index_upper_bound():
    rng = np.random.default_rng(9)
    ok = True
    for _ in range(25):
        bp, plan = random_pendulum_problem(rng)
        for rep in solve_reduced(bp, plan, count=3, refine=False):
            ok &= rep.index <= plan.N * bp.n
    for omega in (1.0, 2.0, 3.0):
        pot = builtin_potential("harmonic", (omega,))
        bp = BoundaryProblem(pot, 4.0, [0.0], [1.0])
        plan = make_plan(bp)
        for rep in solve_reduced(bp, plan, count=2, refine=False):
            ok &= rep.index <= plan.N * bp.n
    verdict(9, ok, "every reported Morse index is bounded by dim of the head space")


def test_criterion_10_dirichlet_formulas():
    dom = RectangleDomain((math.pi,))
    pot = parse_potential("cos(q1)", 1, c_bound=5.0)
    plan = dirichlet_plan(dom, pot)
    ok = plan.N == 2 and abs(plan.mu - 4.0 / 9.0) <= 1e-15

    # linear source: Delta phi = -1 on (0, pi) gives phi = x (pi - x) / 2
    lin = parse_potential("q1", 1, c_bound=0.0)
    lin_plan = dirichlet_plan(dom, lin, lambda_cut=1024.0**2)
    sols = solve_dirichlet(dom, lin, lin_plan, count=1, refine=False)
    ok &= len(sols) == 1
    xs = np.linspace(0.0, math.pi, 513)
    got = sols[0].field.evaluate(xs[:, None])
    ok &= float(np.max(np.abs(got - xs * (math.pi - xs) / 2.0))) <= 1e-6

    # monotonicity display with lambda_k in place of (pi k / T)^2
    from finred.dirichlet import DirichletSystem
    rng = np.random.default_rng(10)
    system = DirichletSystem(dom, pot, plan)
    lams = system.eigenvalues
    hd = plan.N
    for _ in range(200):
        base = np.zeros(len(plan.modes))
        base[:hd] = rng.standard_normal(hd)
        v1 = np.zeros_like(base)
        v2 = np.zeros_like(base)
        v1[hd:] = rng.standard_normal(len(base) - hd) / np.arange(1, len(base) - hd + 1)
        v2[hd:] = rng.standard_normal(len(base) - hd) / np.arange(1, len(base) - hd + 1)
        g1 = lams * (base + v1) - system.nonlinear_coeffs(base + v1)
        g2 = lams * (base + v2) - system.nonlinear_coeffs(base + v2)
        dv = (v2 - v1)[hd:]
        lhs = float((g2 - g1)[hd:] @ dv)
        ok &= lhs >= plan.mu * float(np.sum(lams[hd:] * dv * dv)) - 1e-9
    verdict(10, ok, "Dirichlet N=2, mu=4/9 exact; linear source to 1e-6 sup; "
                    "eigenvalue monotonicity display holds")


def test_criterion_11_weyl_law():
    start = time.monotonic()
    dom = RectangleDomain((1.0, 1.0))
    exact, weyl, rel = weyl_estimate(dom, 1000.0)
    ok = abs(exact - 1000.0 / (4 * math.pi)) / exact <= 0.15
    rel_small = weyl_estimate(dom, 1e2)[2]
    rel_large = weyl_estimate(dom, 1e4)[2]
    ok &= rel_large < rel_small
    elapsed = time.monotonic() - start
    ok &= elapsed <= 5.0
    verdict(11, ok, f"Weyl count within 15% at C=1000 (got {rel:.3f}), error shrinks "
                    f"from C=1e2 to C=1e4, runtime {elapsed:.2f}s <= 5s")


CFG = """
[problem]
kind = mechanical

[potential]
builtin = pendulum
params = 1.0

[geometry]
T = 3.141592653589793
q0 = 0.0
qT = 1.0

[multistart]
count = 6

[output]
directory = {out}
"""


def test_criterion_12_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg.write_text(CFG.format(out=out1), encoding="utf-8")
    code1 = main(["solve", "--config", str(cfg)])
    code2 = main(["solve", "--config", str(cfg), "--out", str(out2)])
    ok = code1 == 0 and code2 == 0
    names1 = sorted(p.name for p in out1.iterdir() if p.suffix == ".csv")
    names2 = sorted(p.name for p in out2.iterdir() if p.suffix == ".csv")
    ok &= names1 == names2 and len(names1) >= 2
    for name in names1:
        ok &= (out1 / name).read_bytes() == (out2 / name).read_bytes()
    verdict(12, ok, "two cmd_solve runs with the same config and seed emit "
                    "byte-identical CSV artifacts")
