"""Rectangle eigenmodes, Dirichlet plans, Weyl counts, field solves."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finred import (BoundaryProblem, RectangleDomain, builtin_potential,
                    dirichlet_plan, enumerate_modes, make_plan, parse_potential,
                    solve_dirichlet, solve_reduced, weyl_estimate)
from finred.core import MechanicalSystem
from finred.dirichlet import (DirichletField, DirichletSolution, DirichletSystem, EigenMode,
                              mode_eigenvalue)
from finred.functional import blocks_at
from finred.morse import index_full, index_schur
from finred.reduction import SolutionReport, UncertifiedPotentialError


def lattice_scan(dom, lambda_max):
    """Brute-force mode count oracle (independent double loop)."""
    count = 0
    k1 = 1
    while (math.pi * k1 / dom.lengths[0]) ** 2 <= lambda_max:
        if dom.m == 1:
            count += 1
        else:
            k2 = 1
            while ((math.pi * k1 / dom.lengths[0]) ** 2
                   + (math.pi * k2 / dom.lengths[1]) ** 2) <= lambda_max:
                count += 1
                k2 += 1
        k1 += 1
    return count


def test_enumerate_modes_interval():
    dom = RectangleDomain((math.pi,))  # lambda_k = k^2
    modes = enumerate_modes(dom, 5.0)
    assert [m.indices for m in modes] == [(1,), (2,)]
    assert [m.lam for m in modes] == pytest.approx([1.0, 4.0])


def test_enumerate_modes_unit_square():
    dom = RectangleDomain((1.0, 1.0))
    modes = enumerate_modes(dom, 3 * math.pi**2)
    assert [m.indices for m in modes] == [(1, 1)]  # (1,2) has 5 pi^2, too big
    modes = enumerate_modes(dom, 6 * math.pi**2)
    assert [m.indices for m in modes] == [(1, 1), (1, 2), (2, 1)]  # lex tie-break


def test_enumerate_modes_against_lattice_scan():
    dom = RectangleDomain((1.0, 1.0))
    for lam in (50.0, 333.3, 1000.0):
        assert len(enumerate_modes(dom, lam)) == lattice_scan(dom, lam)
    dom = RectangleDomain((2.0, 0.7))
    for lam in (40.0, 500.0):
        assert len(enumerate_modes(dom, lam)) == lattice_scan(dom, lam)


def enumerate_modes_reference(dom, lambda_max):
    """The mode list by a plain double loop over the kmax box, then sorted.

    The box reaches one past floor(L sqrt(lambda_max) / pi), which can round
    below a boundary-exact k; the eigenvalue test trims the extra term.
    """
    kmax = [int(math.floor(L * math.sqrt(lambda_max) / math.pi)) + 1 for L in dom.lengths]
    modes = []
    if dom.m == 1:
        for k in range(1, kmax[0] + 1):
            lam = mode_eigenvalue(dom, (k,))
            if lam <= lambda_max:
                modes.append(EigenMode(lam, (k,)))
    else:
        for k1 in range(1, kmax[0] + 1):
            for k2 in range(1, kmax[1] + 1):
                lam = mode_eigenvalue(dom, (k1, k2))
                if lam <= lambda_max:
                    modes.append(EigenMode(lam, (k1, k2)))
    modes.sort()
    return modes


@pytest.mark.parametrize("lengths, indices", [
    ((math.pi,), (7,)), ((1.0,), (12,)), ((0.37,), (3,)),
    ((1.0, 1.0), (5, 7)), ((2.0, 0.7), (9, 4)), ((0.7, 2.0), (2, 11)),
    ((1.3, math.e), (6, 13)), ((0.1, 3.0), (1, 40)),
    ((1.0,), (5000,)), ((0.05, 40.0), (2, 1500)),  # enough k that x*x and Python's x**2 differ
])
def test_enumerate_modes_matches_double_loop(lengths, indices):
    dom = RectangleDomain(lengths)
    edge = mode_eigenvalue(dom, indices)  # boundary-exact lambda_max
    for lam in (edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf),
                0.5 * edge, 3.7 * edge, 1e-3):
        ref = enumerate_modes_reference(dom, lam)
        assert len(ref) == lattice_scan(dom, lam)
        got = enumerate_modes(dom, lam)
        assert got == ref
        assert all(type(m.lam) is float and all(type(k) is int for k in m.indices)
                   for m in got)
        if ref:
            assert enumerate_modes(dom, lam, cap=len(ref)) == ref
            with pytest.raises(ValueError, match=f"would hold {len(ref)} entries"):
                enumerate_modes(dom, lam, cap=len(ref) - 1)


def test_enumerate_modes_keeps_boundary_exact_top_mode():
    # floor(L sqrt(lambda_k) / pi) rounds to k - 1 for some k (k = 11 is one)
    dom = RectangleDomain((1.0,))
    for k in range(1, 201):
        assert len(enumerate_modes(dom, mode_eigenvalue(dom, (k,)))) == k


def test_enumerate_modes_cap():
    dom = RectangleDomain((1.0, 1.0))
    with pytest.raises(ValueError, match="cap"):
        enumerate_modes(dom, 1e7, cap=100)


@pytest.mark.parametrize("lambda_max", [math.inf, math.nan, 0.0, -1.0])
def test_enumerate_modes_rejects_bad_threshold(lambda_max):
    for lengths in ((1.0,), (1.0, 1.0)):
        with pytest.raises(ValueError, match="lambda_max must be finite and positive"):
            enumerate_modes(RectangleDomain(lengths), lambda_max)
    with pytest.raises(ValueError, match="threshold must be finite and positive"):
        weyl_estimate(RectangleDomain((1.0, 1.0)), lambda_max)


@pytest.mark.parametrize("lengths", [(1.0,), (1.0, 1.0), (0.01, 100.0), (100.0, 0.01)])
def test_enumerate_modes_cap_bounds_the_axis_lists(lengths, monkeypatch):
    # the per-axis lists stop at cap + 1 terms, so a huge threshold is cheap
    # to reject, and the count in the message is marked as a lower bound
    built = []
    real_array = np.array
    monkeypatch.setattr(np, "array", lambda a, *args, **kw: built.append(len(a)) or
                        real_array(a, *args, **kw))
    with pytest.raises(ValueError, match="would hold more than [0-9]+ entries, above the cap 10$"):
        enumerate_modes(RectangleDomain(lengths), 1e13, cap=10)  # ~1e6 terms per unit side
    assert built and max(built) <= 11
    for lambda_max in (1e16, 1e300):
        with pytest.raises(ValueError, match="would hold more than [0-9]+ entries, above the cap"):
            enumerate_modes(RectangleDomain(lengths), lambda_max)
    assert max(built) <= 100_001


def test_domain_validation():
    with pytest.raises(ValueError, match="1- and 2-dimensional"):
        RectangleDomain((1.0, 1.0, 1.0))
    for lengths in ((1.0, -2.0), (math.nan, 1.0), (1.0, math.inf)):
        with pytest.raises(ValueError, match="finite and positive"):
            RectangleDomain(lengths)


# ---------------------------------------------------------------------------
# plans

def test_plan_interval_example():
    dom = RectangleDomain((math.pi,))
    pot = parse_potential("cos(q1)", 1, c_bound=5.0)
    plan = dirichlet_plan(dom, pot)
    assert plan.N == 2
    assert plan.mu == pytest.approx(4.0 / 9.0, abs=1e-15)


def test_plan_small_bound_gives_empty_head():
    dom = RectangleDomain((math.pi,))
    pot = parse_potential("0.5*cos(q1)", 1, c_bound=0.5)  # below lambda_1 = 1
    plan = dirichlet_plan(dom, pot)
    assert plan.N == 0
    assert plan.mu == pytest.approx(0.5)


def test_plan_head_overrides_and_a_cut_without_tail():
    dom = RectangleDomain((math.pi,))  # lambda_k = k^2
    pot = parse_potential("cos(q1)", 1, c_bound=5.0)  # certified head N = 2
    with pytest.raises(ValueError, match="head override 1 is below the certified minimum 2"):
        dirichlet_plan(dom, pot, N=1)
    # the first probe holds lambda <= 4 * 5 + 1, four modes; N = 30 needs it grown
    plan = dirichlet_plan(dom, pot, N=30)
    assert plan.N == 30 and plan.mu == pytest.approx(1.0 - 5.0 / 31**2, abs=1e-15)
    assert plan.lambda_cut == pytest.approx(4.0 * 31**2) and len(plan.modes) == 62
    with pytest.raises(ValueError, match="leaves no tail modes"):
        dirichlet_plan(dom, pot, lambda_cut=9.0)  # lambda_3 = 9


def test_plan_cutoff_matches_mechanical_formula():
    # m = 1 with L = T reproduces floor(T sqrt(C) / pi)
    for C in (0.3, 1.0, 5.0, 26.0, 80.0):
        for T in (0.7, 2.0, math.pi, 6.0):
            dom = RectangleDomain((T,))
            pot = parse_potential(f"{C!r}*cos(q1)", 1, c_bound=C)  # a bound the sample meets
            dplan = dirichlet_plan(dom, pot)
            bp = BoundaryProblem(pot, T, [0.0], [0.0])
            mplan = make_plan(bp)
            assert dplan.N == mplan.N == int(math.floor(T * math.sqrt(C) / math.pi))
            assert dplan.mu == pytest.approx(mplan.mu, rel=1e-12)


def test_plan_contraction_is_derived_from_mu():
    dom = RectangleDomain((1.0, 1.3))
    plan = dirichlet_plan(dom, parse_potential("-20*cos(q1)", 1, c_bound=20.0))
    assert plan.contraction == 1.0 - plan.mu
    assert "contraction" not in {f.name for f in dataclasses.fields(plan)}
    assert dataclasses.replace(plan, mu=0.25).contraction == 0.75


def test_plan_requires_scalar_potential():
    dom = RectangleDomain((1.0,))
    pot = builtin_potential("harmonic", (1.0, 1.0))
    with pytest.raises(ValueError, match="scalar"):
        dirichlet_plan(dom, pot)


def test_plan_certification_opt_in():
    dom = RectangleDomain((1.0,))
    pot = parse_potential("q1^4", 1, c_bound=3.0)
    with pytest.raises(UncertifiedPotentialError):
        dirichlet_plan(dom, pot)
    plan = dirichlet_plan(dom, pot, allow_uncertified=True)
    assert not plan.certified


# ---------------------------------------------------------------------------
# weyl

def test_weyl_interval_is_cutoff_formula():
    dom = RectangleDomain((2.5,))
    exact, weyl, rel = weyl_estimate(dom, 30.0)
    assert weyl == pytest.approx(2.5 * math.sqrt(30.0) / math.pi)
    assert exact == lattice_scan(dom, 30.0)


def test_weyl_unit_square_large_threshold():
    dom = RectangleDomain((1.0, 1.0))
    exact, weyl, rel = weyl_estimate(dom, 1000.0)
    assert weyl == pytest.approx(1000.0 / (4 * math.pi))
    assert exact == lattice_scan(dom, 1000.0)
    assert rel <= 0.15


def test_weyl_relative_error_decreases():
    dom = RectangleDomain((1.0, 1.0))
    rels = [weyl_estimate(dom, C)[2] for C in (1e2, 1e3, 1e4)]
    assert rels[2] < rels[0]


# ---------------------------------------------------------------------------
# solves

def test_zero_potential_unique_zero_field():
    dom = RectangleDomain((1.0, 1.0))
    pot = builtin_potential("zero", dim=1)
    plan = dirichlet_plan(dom, pot)
    sols = solve_dirichlet(dom, pot, plan, count=3)
    assert len(sols) == 1
    assert np.max(np.abs(sols[0].field.coeffs)) < 1e-12
    assert sols[0].index == 0 and sols[0].nullity == 0


def test_linear_source_closed_form():
    # Delta phi = -a with phi(0) = phi(L) = 0 has phi(x) = a x (L - x) / 2
    dom = RectangleDomain((math.pi,))
    a = 1.0
    pot = parse_potential("q1", 1, c_bound=0.0)
    plan = dirichlet_plan(dom, pot, lambda_cut=1024.0**2)
    sols = solve_dirichlet(dom, pot, plan, count=1, refine=False)
    assert len(sols) == 1
    xs = np.linspace(0, math.pi, 401)
    got = sols[0].field.evaluate(xs[:, None])
    exact = a * xs * (math.pi - xs) / 2.0
    assert np.max(np.abs(got - exact)) <= 1e-6


def test_quadratic_well_zero_solution_index_one():
    # V = (s/2) phi^2 with lambda_1 < s < lambda_2: phi = 0 has index 1
    dom = RectangleDomain((math.pi,))
    s = 2.5
    pot = builtin_potential("harmonic", (math.sqrt(s),))
    plan = dirichlet_plan(dom, pot)
    sols = solve_dirichlet(dom, pot, plan, count=4, with_oracles=True)
    zero = [x for x in sols if np.max(np.abs(x.field.coeffs)) < 1e-9]
    assert zero
    assert zero[0].index == 1
    assert zero[0].oracle_index == 1


def test_monotonicity_display_with_eigenvalues(rng):
    dom = RectangleDomain((1.3, 0.9))
    pot = parse_potential("cos(q1)", 1, c_bound=1.0)
    plan = dirichlet_plan(dom, pot)
    system = DirichletSystem(dom, pot, plan)
    lams = system.eigenvalues
    hd = plan.N
    for _ in range(50):
        u = np.zeros(len(plan.modes))
        u[:hd] = rng.standard_normal(hd)
        v1 = np.zeros_like(u)
        v2 = np.zeros_like(u)
        v1[hd:] = rng.standard_normal(len(u) - hd) / np.arange(1, len(u) - hd + 1)
        v2[hd:] = rng.standard_normal(len(u) - hd) / np.arange(1, len(u) - hd + 1)
        g1 = lams * (u + v1) - system.nonlinear_coeffs(u + v1)
        g2 = lams * (u + v2) - system.nonlinear_coeffs(u + v2)
        dv = (v2 - v1)[hd:]
        lhs = float((g2 - g1)[hd:] @ dv)
        rhs = plan.mu * float(np.sum(lams[hd:] * dv * dv))
        assert lhs >= rhs - 1e-9


def test_schur_equals_full_on_dirichlet_instances(rng):
    dom = RectangleDomain((1.0, 1.4))
    pot = parse_potential("cos(q1)", 1, c_bound=1.0)
    plan = dirichlet_plan(dom, pot)
    sols = solve_dirichlet(dom, pot, plan, count=4, refine=False)
    assert sols
    for sol in sols:
        system = DirichletSystem(dom, pot, plan)
        c = np.array(sol.field.coeffs)
        blocks = blocks_at(system, plan.N, c)
        assert index_schur(blocks).index == index_full(blocks).index
        assert index_schur(blocks).nullity == index_full(blocks).nullity
        assert sol.index <= plan.N


def test_2d_nonlinear_solve_converges():
    dom = RectangleDomain((1.0, 1.0))
    pot = builtin_potential("pendulum", (4.0,), dim=1)  # V = -4 cos(phi)
    plan = dirichlet_plan(dom, pot)
    sols = solve_dirichlet(dom, pot, plan, count=4)
    assert sols
    for sol in sols:
        assert sol.converged
        assert sol.head_residual <= plan.head_tol
        assert sol.tail_residual <= plan.tail_tol
        assert sol.index <= plan.N


def test_2d_supercritical_pitchfork():
    # Delta phi = -25 sin(phi) on the unit square: 25 > lambda_1 = 2 pi^2, so
    # the zero field destabilizes into a symmetric pair of index-0 solutions
    dom = RectangleDomain((1.0, 1.0))
    pot = builtin_potential("pendulum", (25.0,), dim=1)
    plan = dirichlet_plan(dom, pot)
    assert plan.N == 1
    sols = solve_dirichlet(dom, pot, plan, count=16, radius=4.0,
                           refine=False, with_oracles=True)
    zero = [s for s in sols if np.max(np.abs(s.field.coeffs)) < 1e-9]
    broken = [s for s in sols if np.max(np.abs(s.field.coeffs)) >= 1e-9]
    assert len(zero) == 1 and len(broken) == 2
    # action of phi = 0 is -integral V(0) = 25 vol exactly
    assert zero[0].action == pytest.approx(25.0, rel=1e-12)
    assert zero[0].index == 1
    assert broken[0].index == broken[1].index == 0
    assert broken[0].action == pytest.approx(broken[1].action, rel=1e-9)
    centers = sorted(s.field.evaluate(np.array([[0.5, 0.5]]))[0] for s in broken)
    assert centers[0] == pytest.approx(-centers[1], rel=1e-6)  # mirror pair
    for s in sols:
        assert s.oracle_index == s.index


def test_mechanical_and_dirichlet_agree_on_linear_source():
    # q'' = -a on (0, T) with zero endpoints is the same problem both ways
    T = 2.0
    pot = parse_potential("q1", 1, c_bound=0.0)
    bp = BoundaryProblem(pot, T, [0.0], [0.0])
    mplan = make_plan(bp, M=256)
    mech = solve_reduced(bp, mplan, count=1, refine=False)[0]
    dom = RectangleDomain((T,))
    dplan = dirichlet_plan(dom, pot, lambda_cut=(256 * math.pi / T) ** 2 + 1.0)
    diri = solve_dirichlet(dom, pot, dplan, count=1, refine=False)[0]
    xs = np.linspace(0, T, 101)
    mech_vals = mech.path.evaluate(xs)[:, 0]
    diri_vals = diri.field.evaluate(xs[:, None])
    assert np.max(np.abs(mech_vals - diri_vals)) < 1e-8


def test_both_problem_kinds_report_one_type():
    # a field's report is a SolutionReport whose field is its path
    pot = builtin_potential("pendulum", (1.0,))
    bp = BoundaryProblem(pot, 2.0, [0.0], [0.5])
    dom = RectangleDomain((1.0, 1.3))
    reports = (solve_reduced(bp, make_plan(bp), count=1, refine=False)
               + solve_dirichlet(dom, pot, dirichlet_plan(dom, pot), count=1, refine=False))
    assert DirichletSolution is SolutionReport
    assert [type(rep) for rep in reports] == [SolutionReport, SolutionReport]
    for rep in reports:
        assert rep.field is rep.path


@pytest.mark.parametrize("family", ["pendulum", "harmonic", "parsed"])
@pytest.mark.parametrize("T", [1.3, 3 * math.pi, 7.5])
def test_one_dimensional_systems_agree(family, T):
    # a 1-D Dirichlet system on (0, T) and the mechanical system with zero
    # endpoints on the same grid are one Galerkin system
    pot = curvature_potential(family, 4.0)
    dom = RectangleDomain((T,))
    diri = DirichletSystem(dom, pot, dirichlet_plan(dom, pot))
    mech = MechanicalSystem(BoundaryProblem(pot, T, [0.0], [0.0]), diri.kbox[0])
    assert mech.P == diri.P[0]
    assert np.array_equal(mech.eigenvalues, diri.eigenvalues)
    rng = np.random.default_rng(int(T * 100))
    k = np.arange(1, len(diri.modes) + 1)
    # smooth fields (c_k ~ 1/k^2) and rough ones (c_k ~ 1/k), where a coarser
    # action rule on either side shows above 1e-12
    for decay in (2, 2, 2, 1, 1, 1):
        c = rng.normal(size=len(diri.modes)) / k ** decay
        assert np.array_equal(mech.residual(c), diri.residual(c))
        assert np.array_equal(mech.curvature_matrix(c), diri.curvature_matrix(c))
        assert np.array_equal(mech.hessian_matrix(c), diri.hessian_matrix(c))
        assert mech.action(c) == diri.action(c)
        assert diri.embed(c).h1_norm() == mech.embed(c).h1_norm()


# ---------------------------------------------------------------------------
# structured curvature assembly against the dense sine-table product

def dense_curvature(system, c):
    """(S * H[:, None]).T @ S with S the dense (P1 P2, D) sine table on the grid."""
    weight = 1.0
    tables = []
    for L, P, K in zip(system.dom.lengths, system.P, system.kbox):
        x = np.arange(1, P + 1) * L / (P + 1)
        weight *= L / (P + 1)
        tables.append(np.sqrt(2.0 / L) * np.sin(np.outer(x, np.arange(1, K + 1)) * math.pi / L))
    if system.m == 1:
        table = tables[0]
    else:
        table = np.einsum("pa,qb->pqab", *tables).reshape(
            system.P[0] * system.P[1], system.kbox[0] * system.kbox[1])
    columns = [np.ravel_multi_index(tuple(k - 1 for k in em.indices), tuple(system.kbox))
               for em in system.modes]
    S = math.sqrt(weight) * table[:, columns]
    H = system.pot.hess(system.grid_values(c))[..., 0, 0].reshape(-1)
    return (S * H[:, None]).T @ S


def curvature_potential(family, g):
    if family == "pendulum":
        return builtin_potential("pendulum", (g,), dim=1)
    if family == "harmonic":
        return builtin_potential("harmonic", (math.sqrt(g),), dim=1)
    return parse_potential(f"-{g!r}*cos(q1) + 0.25*sin(q1)", 1, c_bound=g + 0.25)


def assert_structured_equals_dense(system, seed):
    c = np.random.default_rng(seed).normal(size=len(system.modes))
    c *= 2.0 / np.sqrt(system.eigenvalues / system.eigenvalues[0])  # fields of size O(1)
    W = system.curvature_matrix(c)
    ref = dense_curvature(system, c)
    assert W.shape == ref.shape == (len(system.modes),) * 2
    assert np.max(np.abs(W - ref)) <= 1e-13 * np.max(np.abs(ref))


@settings(max_examples=30, deadline=None)
@given(lengths=st.lists(st.floats(0.5, 1.3), min_size=1, max_size=2),
       family=st.sampled_from(["pendulum", "harmonic", "parsed"]),
       g=st.floats(5.0, 60.0), level=st.integers(0, 2),
       extra=st.lists(st.integers(0, 4), min_size=2, max_size=2),
       seed=st.integers(0, 2**31 - 1))
def test_curvature_matches_dense_sine_table(lengths, family, g, level, extra, seed):
    dom = RectangleDomain(tuple(lengths))
    pot = curvature_potential(family, g)
    plan = dirichlet_plan(dom, pot)
    # the refinement levels of a solve, on a grid at or above the minimum 2 kbox + 1
    plan = dirichlet_plan(dom, pot, lambda_cut=4.0 ** level * plan.lambda_cut)
    grid = tuple(P + e for P, e in zip(plan.grid_shape, extra))
    plan = dirichlet_plan(dom, pot, lambda_cut=plan.lambda_cut, grid_shape=grid)
    assert_structured_equals_dense(DirichletSystem(dom, pot, plan), seed)


@pytest.mark.parametrize("lengths", [(1.0, 1.0), (1.0, 0.7), (0.9, 1.6), (2.3,)])
def test_curvature_matches_dense_on_refinement_levels(lengths):
    # the coarse, lambda_cut x 4 and x 16 systems of a solve at g = 56.49
    dom = RectangleDomain(lengths)
    pot = parse_potential("-56.49*cos(q1)", 1, c_bound=56.49)
    system = DirichletSystem(dom, pot, dirichlet_plan(dom, pot))
    sizes = []
    for level in range(3):
        assert_structured_equals_dense(system, level)
        sizes.append(len(system.modes))
        system = system.refined()
    if lengths == (1.0, 1.0):
        assert sizes == [20, 90, 380]


@pytest.mark.parametrize("lengths", [(1.7,), (1.0, 0.6)])
def test_curvature_of_linear_potential_is_zero(lengths):
    dom = RectangleDomain(lengths)
    for pot in (parse_potential("2.5*q1 - 1", 1, c_bound=0.0), builtin_potential("zero")):
        assert pot.c_bound == 0.0 and pot.certified  # V'' vanishes identically
        system = DirichletSystem(dom, pot, dirichlet_plan(dom, pot, lambda_cut=400.0))
        c = np.random.default_rng(3).normal(size=len(system.modes))
        W = system.curvature_matrix(c)
        assert W.shape == (len(system.modes),) * 2 and not W.any()
        # the Hessian is diag(eigenvalues) with -0.0 off the diagonal, to the byte
        H = np.negative(np.zeros(W.shape))
        H.flat[::len(H) + 1] += system.eigenvalues
        assert system.hessian_matrix(c).tobytes() == H.tobytes()
        assert not dense_curvature(system, c).any()


# ---------------------------------------------------------------------------
# field evaluation

def evaluate_reference(field, points):
    """The per-mode, per-axis sine loop that DirichletField.evaluate replaces."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros(points.shape[0])
    for em, cm in zip(field.modes, field.coeffs):
        basis = np.ones(points.shape[0])
        for axis, (k, L) in enumerate(zip(em.indices, field.domain.lengths)):
            basis *= math.sqrt(2.0 / L) * np.sin(k * math.pi * points[:, axis] / L)
        out += cm * basis
    return out


@pytest.mark.parametrize("lengths", [(1.3,), (1.0, 1.0), (0.9, 1.6)])
def test_field_evaluate_is_bitwise_the_mode_loop(lengths):
    rng = np.random.default_rng(7)
    dom = RectangleDomain(lengths)
    modes = tuple(enumerate_modes(dom, 3000.0))
    field = DirichletField(dom, modes, rng.normal(size=len(modes)))
    points = rng.uniform(0.0, 1.0, (500, dom.m)) * np.array(dom.lengths)
    assert np.array_equal(field.evaluate(points), evaluate_reference(field, points))
