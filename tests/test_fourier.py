"""Sine-basis transforms, norms, projectors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finred import (BoundaryProblem, SinePath, affine_embed, analyze_on_grid,
                    builtin_potential, project_head, project_tail, sample_on_grid)
from finred.core import gauss_sine_rule
from finred.dirichlet import DirichletField, RectangleDomain, enumerate_modes
from finred.fourier import (affine_coeffs, grid_points, h1_inner, l2_inner, mode_eigenvalues,
                            sine_table, tensor_values)


def make_bp(T=2.0, q0=(0.5,), qT=(-1.0,)):
    n = len(q0)
    return BoundaryProblem(builtin_potential("zero", dim=n), T, np.array(q0), np.array(qT))


def random_path(rng, T=2.0, M=12, n=2):
    return SinePath(T, rng.standard_normal((M, n)))


def test_affine_embed_boundary_values():
    bp = make_bp(T=3.0, q0=(1.0, -2.0), qT=(0.0, 4.0))
    c = SinePath(3.0, np.zeros((8, 2)))
    assert np.allclose(affine_embed(bp, c, 0.0), bp.q0)
    assert np.allclose(affine_embed(bp, c, 3.0), bp.qT)
    assert np.allclose(affine_embed(bp, c, 1.5), 0.5 * (bp.q0 + bp.qT))


def test_affine_embed_rejects_outside():
    bp = make_bp()
    c = SinePath(2.0, np.zeros((4, 1)))
    with pytest.raises(ValueError, match="must lie in"):
        affine_embed(bp, c, -0.1)
    with pytest.raises(ValueError, match="must lie in"):
        affine_embed(bp, c, 2.1)


@pytest.mark.parametrize("field, kwargs", [
    ("T", {"T": float("nan")}),
    ("T", {"T": float("inf")}),
    ("q0", {"q0": (float("nan"), 0.0)}),
    ("qT", {"qT": (0.0, float("-inf"))}),
])
def test_boundary_problem_rejects_non_finite(field, kwargs):
    args = {"T": 2.0, "q0": (0.5, 0.0), "qT": (-1.0, 1.0)} | kwargs
    with pytest.raises(ValueError, match=rf"\b{field}\b.*finite"):
        make_bp(**args)


LINE = RectangleDomain((1.0,))


@pytest.mark.parametrize("make, shape, attribute", [
    (lambda a: SinePath(2.0, a), (6, 2), "coeffs"),
    (lambda a: DirichletField(LINE, tuple(enumerate_modes(LINE, 400.0)), a), (6,), "coeffs"),
    (lambda a: BoundaryProblem(builtin_potential("zero", dim=2), 2.0, a, np.zeros(2)), (2,), "q0"),
    (lambda a: BoundaryProblem(builtin_potential("zero", dim=2), 2.0, np.zeros(2), a), (2,), "qT"),
], ids=["SinePath", "DirichletField", "BoundaryProblem.q0", "BoundaryProblem.qT"])
def test_constructors_freeze_a_copy_not_the_callers_array(make, shape, attribute):
    a = np.arange(float(math.prod(shape))).reshape(shape)
    held = getattr(make(a), attribute)
    kept = held.copy()
    a += 1.0  # the caller's array stays writeable
    assert not held.flags.writeable
    assert np.array_equal(held, kept)  # and the object does not see the change


def test_the_basis_off_the_grid_is_one_table(rng):
    L, K = 1.7, 9
    x = rng.uniform(0.0, L, 13)
    table = sine_table(L, K, x)
    # the association of SinePath.evaluate and of the action's Gauss rule, bit for bit
    k = np.arange(1, K + 1)
    assert table.tobytes() == (np.sqrt(2.0 / L) * np.sin(np.outer(x, k) * np.pi / L)).tobytes()
    coeffs = rng.standard_normal((K, 2))
    assert SinePath(L, coeffs).evaluate(x).tobytes() == (table @ coeffs).tobytes()
    nodes, _, basis = gauss_sine_rule(L, K)
    assert basis.tobytes() == sine_table(L, K, nodes).tobytes()
    line = RectangleDomain((L,))
    field = DirichletField(line, tuple(enumerate_modes(line, (K * math.pi / L) ** 2)), coeffs[:, 0])
    assert len(field.modes) == K
    assert field.on_grid([x]).tobytes() == tensor_values([table], coeffs[:, 0]).tobytes()


def test_sample_single_mode_closed_form():
    T = 2.7
    c = SinePath(T, np.array([[1.0]]))
    vals = sample_on_grid(c, 3)
    expected = np.sqrt(2.0 / T) * np.sin(np.arange(1, 4) * np.pi / 4.0)
    assert np.allclose(vals[:, 0], expected, atol=1e-14)


def test_zero_path_samples_to_zero():
    c = SinePath(1.0, np.zeros((5, 3)))
    assert np.all(sample_on_grid(c, 11) == 0.0)


def test_transform_roundtrip(rng):
    c = random_path(rng, M=17, n=2)
    vals = sample_on_grid(c, 2 * c.M + 1)
    back = analyze_on_grid(vals, c.T, c.M)
    assert np.allclose(back.coeffs, c.coeffs, atol=1e-12)


def test_analyze_isolates_mode_two():
    T, M, P = 5.0, 6, 13
    t = grid_points(T, P)
    vals = np.sin(2 * np.pi * t / T)[:, None]
    path = analyze_on_grid(vals, T, M)
    coeffs = path.coeffs[:, 0]
    assert abs(coeffs[1]) > 0.1
    others = np.delete(coeffs, 1)
    assert np.max(np.abs(others)) < 1e-12


def test_analyze_mode_above_truncation_vanishes():
    # frozen from a direct orthogonality check of the DST-I convention:
    # a pure k = M+1 mode analyzed at M gives exactly zero coefficients
    T, M = 2.0, 12
    P = 2 * M + 1
    t = grid_points(T, P)
    vals = (np.sqrt(2.0 / T) * np.sin((M + 1) * np.pi * t / T))[:, None]
    path = analyze_on_grid(vals, T, M)
    assert np.max(np.abs(path.coeffs)) < 1e-12


def test_anti_aliasing_preconditions(rng):
    c = random_path(rng, M=8)
    with pytest.raises(ValueError, match="anti-aliasing"):
        sample_on_grid(c, 2 * c.M)
    with pytest.raises(ValueError, match="anti-aliasing"):
        analyze_on_grid(np.zeros((10, 1)), 1.0, 8)


def test_discrete_parseval(rng):
    c = random_path(rng, M=20, n=1)
    P = 2 * c.M + 1
    vals = sample_on_grid(c, P)
    h = c.T / (P + 1)
    assert np.isclose(h * np.sum(vals**2), np.sum(c.coeffs**2), rtol=1e-12)


def test_norms_match_fine_grid_integrals(rng):
    c = random_path(rng, M=6, n=1)
    ts = np.linspace(0, c.T, 200_001)
    vals = c.evaluate(ts)[:, 0]
    l2_sq = np.trapezoid(vals**2, ts)
    dvals = np.gradient(vals, ts)
    h1_sq = np.trapezoid(dvals**2, ts)
    assert np.isclose(c.l2_norm() ** 2, l2_sq, rtol=1e-6)
    assert np.isclose(c.h1_norm() ** 2, h1_sq, rtol=1e-3)


def test_boundary_conditions(rng):
    c = random_path(rng, M=30, n=2)
    ends = c.evaluate(np.array([0.0, c.T]))
    assert np.max(np.abs(ends)) < 1e-10


@settings(max_examples=25, deadline=None)
@given(N=st.integers(min_value=0, max_value=9), data=st.data())
def test_projectors(N, data):
    seed = data.draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    c = random_path(rng, M=9, n=2)
    head = project_head(c, N)
    tail = project_tail(c, N)
    # complementarity and idempotence
    assert np.array_equal(head.coeffs + tail.coeffs, c.coeffs)
    assert np.array_equal(project_head(head, N).coeffs, head.coeffs)
    assert np.array_equal(project_tail(tail, N).coeffs, tail.coeffs)
    assert np.all(project_tail(head, N).coeffs == 0.0)
    # disjoint mode support makes head and tail orthogonal in both norms
    assert h1_inner(head, tail) == 0.0
    assert l2_inner(head, tail) == 0.0


def test_projector_edges(rng):
    c = random_path(rng, M=7)
    assert np.all(project_head(c, 0).coeffs == 0.0)
    assert np.all(project_tail(c, c.M).coeffs == 0.0)
    with pytest.raises(ValueError, match="cutoff"):
        project_head(c, c.M + 1)
    with pytest.raises(ValueError, match="cutoff"):
        project_tail(c, -1)


def test_affine_coeffs_match_quadrature():
    T, M = 1.8, 10
    a, b = np.array([0.4, -0.9]), np.array([1.1, 0.2])
    got = affine_coeffs(T, M, a, b)
    ts = np.linspace(0, T, 400_001)
    for k in (1, 2, 5, 10):
        phi = np.sqrt(2.0 / T) * np.sin(k * np.pi * ts / T)
        for j in range(2):
            ref = np.trapezoid((a[j] + b[j] * ts) * phi, ts)
            assert np.isclose(got[k - 1, j], ref, atol=1e-9)


def test_mode_eigenvalues():
    T = 2.0
    eig = mode_eigenvalues(T, 3)
    assert np.allclose(eig, [(np.pi / 2) ** 2, np.pi**2, (3 * np.pi / 2) ** 2])


# ---------------------------------------------------------------------------
# what the benchmark's tracer relies on: per-class methods and one DST binding

def test_dst_binding_and_per_class_methods(monkeypatch):
    import scipy.fftpack

    from finred import RectangleDomain, dirichlet_plan, fourier
    from finred.core import MechanicalSystem, ReducedPoint
    from finred.dirichlet import DirichletSystem

    for cls in (MechanicalSystem, DirichletSystem):
        for name in ("nonlinear_coeffs", "curvature_matrix", "action"):
            assert name in vars(cls), (cls.__name__, name)
    rng = np.random.default_rng(5)
    box, values = rng.normal(size=(4, 5, 2)), rng.normal(size=(9, 11, 2))
    for axis, n in ((0, 9), (1, 11)):
        assert (fourier.dst(values, type=1, axis=axis).tobytes()
                == scipy.fftpack.dst(values, type=1, axis=axis).tobytes())
        assert (fourier.dst(box, type=1, n=n, axis=axis).tobytes()
                == scipy.fftpack.dst(box, type=1, n=n, axis=axis).tobytes())

    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return scipy.fftpack.dst(*args, **kwargs)

    monkeypatch.setattr(fourier, "dst", counting)
    pend = builtin_potential("pendulum", (2.0,), dim=1)
    bp = BoundaryProblem(pend, 2.0, [0.1], [0.7])
    systems = [(MechanicalSystem(bp, 9), 2)]
    for lengths in ((1.3,), (1.0, 0.7)):
        dom = RectangleDomain(lengths)
        systems.append((DirichletSystem(dom, pend, dirichlet_plan(dom, pend)), 2 * dom.m))
    for system, expected in systems:
        c = np.full(len(system.eigenvalues), 0.1)
        calls.clear()
        system.residual(c)
        assert len(calls) == expected
        # a point's Hessian, read after its residual, reuses the residual's grid values
        point = ReducedPoint(system, 0, c)
        point.residual
        assert len(calls) == 2 * expected
        point.blocks
        assert len(calls) == 2 * expected
        # without grid values the Hessian synthesizes once: one transform per axis
        system.hessian_matrix(c)
        assert len(calls) == 2 * expected + expected // 2


# ---------------------------------------------------------------------------
# the transform binding against scipy.fft, on the benchmark's grids

# (K, P, n) of the benchmark's systems: the 2-D Dirichlet levels, the path
# levels of the pendulum (n = 1) and the chain (n = 4), and the 4095 nodes
# on which the Jacobi oracle samples a path
WORKLOAD_GRIDS = [((5, 5), (11, 11), 1), ((11, 11), (23, 23), 1), ((22, 22), (45, 45), 1),
                  ((5, 6), (11, 13), 1), ((32,), (65,), 1), ((64,), (129,), 1),
                  ((128,), (257,), 1), ((128,), (4095,), 1), ((32,), (65,), 4),
                  ((64,), (129,), 4), ((128,), (257,), 4)]


def synthesize_reference(grid, box):
    """Synthesis through a zero-padded array and scipy.fft.dst, as it was."""
    import scipy.fft

    values = box
    for axis, (L, P) in enumerate(zip(grid.lengths, grid.P)):
        pad = np.zeros(values.shape[:axis] + (P,) + values.shape[axis + 1:])
        pad[(slice(None),) * axis + (slice(0, values.shape[axis]),)] = values
        values = 0.5 * math.sqrt(2.0 / L) * scipy.fft.dst(pad, type=1, axis=axis)
    return values


@pytest.mark.parametrize("K, P, n", WORKLOAD_GRIDS)
def test_dst_is_bitwise_scipy_fft_on_workload_grids(K, P, n):
    import scipy.fft

    from finred import fourier

    rng = np.random.default_rng(sum(P) + n)
    box = rng.normal(size=K + (n,))
    values = rng.normal(size=P + (n,))
    for axis, p in enumerate(P):
        assert (fourier.dst(values, type=1, axis=axis).tobytes()
                == scipy.fft.dst(values, type=1, axis=axis).tobytes())
        pad = np.zeros(box.shape[:axis] + (p,) + box.shape[axis + 1:])
        pad[(slice(None),) * axis + (slice(0, K[axis]),)] = box
        assert (fourier.dst(box, type=1, n=p, axis=axis).tobytes()
                == scipy.fft.dst(pad, type=1, axis=axis).tobytes())
    grid = fourier.SineGrid((1.3, 0.7)[:len(K)], K, P, n)
    assert grid.synthesize(box).tobytes() == synthesize_reference(grid, box).tobytes()
    box_ref = values
    for axis, (L, p, k) in enumerate(zip(grid.lengths, P, K)):
        box_ref = scipy.fft.dst(box_ref, type=1, axis=axis) * (math.sqrt(2.0 * L) / (2.0 * (p + 1)))
        box_ref = box_ref[(slice(None),) * axis + (slice(0, k),)]
    assert grid.analyze(values).tobytes() == box_ref.tobytes()


# ---------------------------------------------------------------------------
# the curvature gather tables against the builder they replace

def gather_reference(grid):
    """The (D, D) index tables as they were built, one broadcast expression each."""
    n = grid.n
    k = np.repeat(grid.modes, n, axis=0)
    i = np.tile(np.arange(n), len(grid.modes))
    base = i[:, None] * n + i[None, :]
    pair = None
    if len(grid.K) == 2:
        k1 = np.arange(1, grid.K[0] + 1)
        pair = (np.abs(k1[:, None] - k1[None, :]), k1[:, None] + k1[None, :])
        rows = k[:, 0] - 1
        base = (base * grid.K[0] + rows[:, None]) * grid.K[0] + rows[None, :]
    base = base * (2 * grid.K[-1] + 1)
    last = k[:, -1]
    return (pair, base + np.abs(last[:, None] - last[None, :]),
            base + last[:, None] + last[None, :])


def assert_tables_equal(grid):
    pair, toeplitz, hankel = grid._gather
    ref_pair, ref_toeplitz, ref_hankel = gather_reference(grid)
    for got, ref in ((toeplitz, ref_toeplitz), (hankel, ref_hankel)):
        assert got.dtype == ref.dtype == np.intp
        assert np.array_equal(got, ref)
    assert (pair is None) == (ref_pair is None)
    if pair is not None:
        assert all(np.array_equal(a, b) for a, b in zip(pair, ref_pair))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("M", [1, 9, 32])
def test_gather_tables_equal_the_old_builder_1d(n, M):
    from finred import fourier

    assert_tables_equal(fourier.SineGrid((2.0,), (M,), (2 * M + 1,), n))


def test_gather_tables_equal_the_old_builder_2d():
    from finred import RectangleDomain, dirichlet_plan, parse_potential
    from finred.dirichlet import DirichletSystem, mode_eigenvalue

    pot = parse_potential("-30*cos(q1)", 1, c_bound=30.0)
    for lengths, on_cut in [((1.0, 1.3), (2, 3)), ((1.0, 1.0), (3, 1)), ((0.9, 1.6), (4, 2))]:
        dom = RectangleDomain(lengths)
        cut = mode_eigenvalue(dom, on_cut)
        system = DirichletSystem(dom, pot, dirichlet_plan(dom, pot, lambda_cut=cut))
        assert system.modes[-1].lam == cut  # the cut is boundary-exact
        for _ in range(3):
            assert_tables_equal(system.grid)
            system = system.refined()
