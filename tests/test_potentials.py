"""Potential construction, exact derivatives, curvature bounds, parser."""

import math
import operator
import warnings

import numpy as np
import pytest

from finred import builtin_potential, parse_potential
from finred.exprparse import (BinOp, Call, ExpressionError, Neg, Num, Var, compile, derivative,
                              growth_degree, parse, pretty)
from finred.potentials import _sample_points, hessian_norms


def fd_gradient(f, q, eps=1e-6):
    out = np.zeros_like(q)
    for i in range(q.size):
        e = np.zeros_like(q)
        e[i] = eps
        out[i] = (f(q + e) - f(q - e)) / (2 * eps)
    return out


def fd_jacobian(g, q, eps=1e-5):
    n = q.size
    out = np.zeros((n, n))
    for i in range(n):
        e = np.zeros_like(q)
        e[i] = eps
        out[:, i] = (g(q + e) - g(q - e)) / (2 * eps)
    return out


ALL_BUILTINS = [
    ("zero", (), 2),
    ("harmonic", (2.0,), 1),
    ("harmonic", (1.0, 0.5, 2.0), 3),
    ("pendulum", (9.8,), 1),
    ("pendulum", (1.3,), 2),
    ("coupled_pendula", (1.0, 0.4), 3),
]


def test_builtin_bounds():
    assert builtin_potential("zero", dim=1).c_bound == 0.0
    assert builtin_potential("harmonic", (2.0,)).c_bound == 4.0
    assert builtin_potential("pendulum", (9.8,)).c_bound == 9.8
    assert builtin_potential("coupled_pendula", (1.0, 0.5)).c_bound == 2.0
    for family, params, dim in ALL_BUILTINS:
        pot = builtin_potential(family, params, dim=dim)
        assert pot.c_source == "exact"
        assert pot.certified


def test_builtin_errors():
    with pytest.raises(ValueError, match="unknown potential family"):
        builtin_potential("quartic", (1.0,))
    with pytest.raises(ValueError, match="dimension must be positive"):
        builtin_potential("zero", dim=0)
    with pytest.raises(ValueError, match="finite"):
        builtin_potential("pendulum", (float("inf"),))
    with pytest.raises(ValueError, match="nonnegative"):
        builtin_potential("pendulum", (-1.0,))
    with pytest.raises(ValueError, match="frequencies"):
        builtin_potential("harmonic", (1.0, 2.0), dim=3)


@pytest.mark.parametrize("family,params,dim", ALL_BUILTINS)
def test_derivative_consistency(family, params, dim, rng):
    pot = builtin_potential(family, params, dim=dim)
    pts = rng.uniform(-3, 3, (200, dim))
    # batched central differences at all 200 points
    eps_g, eps_h = 1e-6, 1e-5
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        g_fd = (pot.eval(pts + eps_g * e) - pot.eval(pts - eps_g * e)) / (2 * eps_g)
        assert np.allclose(pot.grad(pts)[:, i], g_fd, rtol=1e-6, atol=1e-7)
        h_fd = (pot.grad(pts + eps_h * e) - pot.grad(pts - eps_h * e)) / (2 * eps_h)
        assert np.allclose(pot.hess(pts)[:, :, i], h_fd, rtol=1e-5, atol=1e-6)
    # Hessians symmetric at every sample
    H_all = pot.hess(pts)
    assert np.allclose(H_all, np.swapaxes(H_all, -1, -2), rtol=1e-12, atol=1e-14)
    assert np.allclose(pot.grad(pts)[17], pot.grad(pts[17]))


@pytest.mark.parametrize("family,params,dim", ALL_BUILTINS)
def test_exact_bound_dominates_samples(family, params, dim):
    pot = builtin_potential(family, params, dim=dim)
    norms = hessian_norms(pot.hess, _sample_points(dim))
    assert norms.max() <= pot.c_bound + 1e-12


def reference_builtin(family, params, n):
    """(V, V', V'') of the four families as each was written out on its own,
    before they shared one chain and one diagonal-Hessian helper."""
    def diagonal(q, d):
        out = np.zeros(q.shape + (n,))
        idx = np.arange(n)
        out[..., idx, idx] = d
        return out

    if family == "zero":
        return (lambda q: np.zeros(q.shape[:-1]), lambda q: np.zeros_like(q),
                lambda q: np.zeros(q.shape + (n,)))
    if family == "harmonic":
        w2 = (np.full(n, params[0]) if len(params) == 1 else np.array(params)) ** 2
        return (lambda q: 0.5 * np.sum(w2 * q * q, axis=-1), lambda q: w2 * q,
                lambda q: diagonal(q, w2))
    g = params[0]
    if family == "pendulum":
        return (lambda q: -g * np.sum(np.cos(q), axis=-1), lambda q: g * np.sin(q),
                lambda q: diagonal(q, g * np.cos(q)))
    kappa = params[1]

    def c_eval(q):
        on_site = -g * np.sum(np.cos(q), axis=-1)
        if n == 1:
            return on_site
        return on_site - 0.5 * kappa * np.sum(np.cos(q[..., :-1] - q[..., 1:]), axis=-1)

    def c_grad(q):
        out = g * np.sin(q)
        if n > 1:
            s = 0.5 * kappa * np.sin(q[..., :-1] - q[..., 1:])
            out[..., :-1] += s
            out[..., 1:] -= s
        return out

    def c_hess(q):
        out = diagonal(q, g * np.cos(q))
        if n > 1:
            cdiff = 0.5 * kappa * np.cos(q[..., :-1] - q[..., 1:])
            i = np.arange(n - 1)
            out[..., i, i] += cdiff
            out[..., i + 1, i + 1] += cdiff
            out[..., i, i + 1] -= cdiff
            out[..., i + 1, i] -= cdiff
        return out

    return c_eval, c_grad, c_hess


REFERENCE_CASES = [
    ("zero", (), 1), ("zero", (), 3),
    ("harmonic", (2.0,), 1), ("harmonic", (0.7,), 3), ("harmonic", (1.0, 0.5, 2.0), 3),
    ("pendulum", (9.8,), 1), ("pendulum", (1.3,), 2), ("pendulum", (1.3,), 3),
    ("coupled_pendula", (1.0, 0.4), 1), ("coupled_pendula", (1.0, 0.4), 2),
    ("coupled_pendula", (2.0, 0.3), 4), ("coupled_pendula", (1.3, 0.0), 3),
]


@pytest.mark.parametrize("family,params,dim", REFERENCE_CASES,
                         ids=[f"{f}-{p}-{d}" for f, p, d in REFERENCE_CASES])
def test_builtins_are_bitwise_the_separate_families(family, params, dim, rng):
    pot = builtin_potential(family, params, dim=dim)
    expected = reference_builtin(family, params, dim)
    for shape in ((40, dim), (3, 5, dim)):
        q = rng.uniform(-3.0, 3.0, shape)
        # signed zeros, where a zero coupling term would turn -0.0 into 0.0
        q[rng.uniform(size=shape) < 0.3] = -0.0
        q[rng.uniform(size=shape) < 0.1] = 0.0
        for actual, reference in zip((pot.eval, pot.grad, pot.hess), expected):
            assert same(actual(q), reference(q))
    assert (pot.label, pot.dim) == (family, dim)


# ---------------------------------------------------------------------------
# expression parsing

def test_parse_simple_quadratic():
    pot = parse_potential("0.5*q1^2", 1)
    assert pot.c_source == "sampled_estimate"
    assert pot.c_bound >= 1.0  # true sup|V''| is exactly 1
    assert not pot.unbounded_warning
    assert not pot.certified  # sampled estimates are never certified
    q = np.array([1.7])
    assert np.isclose(float(pot.eval(q)), 0.5 * 1.7**2)
    assert np.isclose(float(pot.grad(q)[0]), 1.7)
    assert np.isclose(float(pot.hess(q)[0, 0]), 1.0)


def test_parse_user_bound():
    pot = parse_potential("cos(q1)", 1, c_bound=1.0)
    assert pot.c_source == "user_supplied"
    assert pot.c_bound == 1.0
    assert pot.certified


def test_parse_keeps_every_bit_of_a_literal():
    # 17 significant digits: rounding to 15 would move this literal
    g = 56.491234567890125
    pot = parse_potential("-56.491234567890125*cos(q1)", 1, c_bound=g)
    q = np.linspace(-7.0, 7.0, 1001)
    assert np.array_equal(pot.eval(q[:, None]), -g * np.cos(q))
    assert np.array_equal(pot.grad(q[:, None])[:, 0], g * np.sin(q))
    assert np.array_equal(pot.hess(q[:, None])[:, 0, 0], g * np.cos(q))
    pot = parse_potential("-56.491234567890125*cos(q1) + 0.25*sin(q1)", 1, c_bound=g + 0.25)
    assert np.array_equal(pot.eval(q[:, None]), -g * np.cos(q) + 0.25 * np.sin(q))
    assert np.array_equal(pot.grad(q[:, None])[:, 0], g * np.sin(q) + 0.25 * np.cos(q))
    assert np.array_equal(pot.hess(q[:, None])[:, 0, 0], g * np.cos(q) - 0.25 * np.sin(q))
    # the log(2)^2 of the Hessian is taken at the literal's full precision
    hess = parse_potential("2^q1", 1, c_bound=1.0).hess(q[:, None])[:, 0, 0]
    assert np.max(np.abs(hess / (2.0 ** q * math.log(2.0) ** 2) - 1.0)) <= 4.5e-16


def test_derivative_folds_signs_and_literals():
    first = derivative(parse("-56.49*cos(q1)", 1), 0)
    assert first == BinOp("*", Num(56.49), Call("sin", Var(0)))
    assert derivative(first, 0) == BinOp("*", Num(56.49), Call("cos", Var(0)))
    assert derivative(parse("q1^2", 1), 0) == BinOp("*", Num(2.0), Var(0))
    assert derivative(parse("2^q1", 1), 0) == BinOp(
        "*", Num(math.log(2.0)), BinOp("^", Num(2.0), Var(0)))
    assert derivative(parse("3*q2 + exp(1.5)", 2), 0) == Num(0.0)


# (expression, V, grad, Hessian) over (x, y) = (q1, q2), x and y in [0.5, 2]
CLOSED_FORMS = [
    ("3*q1^2*q2 - q2/2 + 7",
     lambda x, y: 3 * x**2 * y - y / 2 + 7,
     lambda x, y: [6 * x * y, 3 * x**2 - 0.5],
     lambda x, y: [[6 * y, 6 * x], [6 * x, 0 * x]]),
    ("q1/q2 - -q1",
     lambda x, y: x / y + x,
     lambda x, y: [1 / y + 1, -x / y**2],
     lambda x, y: [[0 * x, -1 / y**2], [-1 / y**2, 2 * x / y**3]]),
    ("q2^q1",
     lambda x, y: y**x,
     lambda x, y: [y**x * np.log(y), x * y**(x - 1)],
     lambda x, y: [[y**x * np.log(y)**2, y**(x - 1) * (1 + x * np.log(y))],
                   [y**(x - 1) * (1 + x * np.log(y)), x * (x - 1) * y**(x - 2)]]),
    ("2^q1 * q2^-1.5",
     lambda x, y: 2**x * y**-1.5,
     lambda x, y: [np.log(2) * 2**x * y**-1.5, -1.5 * 2**x * y**-2.5],
     lambda x, y: [[np.log(2)**2 * 2**x * y**-1.5, -1.5 * np.log(2) * 2**x * y**-2.5],
                   [-1.5 * np.log(2) * 2**x * y**-2.5, 3.75 * 2**x * y**-3.5]]),
    ("-sin(q1)*cos(q2)",
     lambda x, y: -np.sin(x) * np.cos(y),
     lambda x, y: [-np.cos(x) * np.cos(y), np.sin(x) * np.sin(y)],
     lambda x, y: [[np.sin(x) * np.cos(y), np.cos(x) * np.sin(y)],
                   [np.cos(x) * np.sin(y), np.sin(x) * np.cos(y)]]),
    ("tanh(2*q1 - q2)",
     lambda x, y: np.tanh(2 * x - y),
     lambda x, y: [2 * (1 - np.tanh(2 * x - y)**2), -(1 - np.tanh(2 * x - y)**2)],
     lambda x, y: [[-8 * np.tanh(2 * x - y) * (1 - np.tanh(2 * x - y)**2),
                    4 * np.tanh(2 * x - y) * (1 - np.tanh(2 * x - y)**2)],
                   [4 * np.tanh(2 * x - y) * (1 - np.tanh(2 * x - y)**2),
                    -2 * np.tanh(2 * x - y) * (1 - np.tanh(2 * x - y)**2)]]),
    ("exp(-q1*q2)",
     lambda x, y: np.exp(-x * y),
     lambda x, y: [-y * np.exp(-x * y), -x * np.exp(-x * y)],
     lambda x, y: [[y**2 * np.exp(-x * y), (x * y - 1) * np.exp(-x * y)],
                   [(x * y - 1) * np.exp(-x * y), x**2 * np.exp(-x * y)]]),
    ("-(q1 + 2*q2)^3 / 4",
     lambda x, y: -(x + 2 * y)**3 / 4,
     lambda x, y: [-0.75 * (x + 2 * y)**2, -1.5 * (x + 2 * y)**2],
     lambda x, y: [[-1.5 * (x + 2 * y), -3 * (x + 2 * y)], [-3 * (x + 2 * y), -6 * (x + 2 * y)]]),
    ("cos(sin(q1) * q2)",
     lambda x, y: np.cos(np.sin(x) * y),
     lambda x, y: [-np.sin(np.sin(x) * y) * np.cos(x) * y, -np.sin(np.sin(x) * y) * np.sin(x)],
     lambda x, y: [[-np.cos(np.sin(x) * y) * (np.cos(x) * y)**2
                    + np.sin(np.sin(x) * y) * np.sin(x) * y,
                    -np.cos(np.sin(x) * y) * np.sin(x) * np.cos(x) * y
                    - np.sin(np.sin(x) * y) * np.cos(x)],
                   [-np.cos(np.sin(x) * y) * np.sin(x) * np.cos(x) * y
                    - np.sin(np.sin(x) * y) * np.cos(x),
                    -np.cos(np.sin(x) * y) * np.sin(x)**2]]),
]


def assert_close(actual, expected, rtol):
    expected = np.asarray(expected, dtype=float)
    scale = np.max(np.abs(expected), axis=tuple(range(1, expected.ndim)), keepdims=True)
    assert np.all(np.abs(actual - expected) <= rtol * scale)


@pytest.mark.parametrize("expr,value,grad,hess", CLOSED_FORMS, ids=[c[0] for c in CLOSED_FORMS])
def test_exact_derivatives_match_closed_forms(expr, value, grad, hess, rng):
    pot = parse_potential(expr, 2, c_bound=100.0)
    pts = rng.uniform(0.5, 2.0, (200, 2))
    x, y = pts[:, 0], pts[:, 1]
    assert_close(pot.eval(pts)[:, None], value(x, y)[:, None], 1e-12)
    assert_close(pot.grad(pts), np.moveaxis(np.array(grad(x, y)), 0, -1), 1e-12)
    assert_close(pot.hess(pts), np.moveaxis(np.array(hess(x, y)), (0, 1), (-2, -1)), 1e-12)


@pytest.mark.parametrize("expr", [
    "exp(sin(q1*q2)) / (1 + tanh(q1 - q2)^2)",
    "cos(q1^q2 + exp(-q2)) * (q1 - q2/3)^4",
    "tanh(exp(cos(q1) / q2) - 2^(q1*q2))",
])
def test_nested_derivatives_match_central_differences(expr, rng):
    pot = parse_potential(expr, 2, c_bound=100.0)
    for q in rng.uniform(0.5, 2.0, (8, 2)):
        g_fd = fd_gradient(lambda x: float(pot.eval(x)), q)
        assert np.allclose(pot.grad(q), g_fd, rtol=1e-8, atol=1e-8)
        assert np.allclose(pot.hess(q), fd_jacobian(pot.grad, q), rtol=1e-7, atol=1e-7)


def test_parse_unbounded_flag():
    pot = parse_potential("q1^4", 1)
    assert pot.unbounded_warning
    assert not pot.certified
    # user bound does not remove the flag
    pot = parse_potential("q1^4", 1, c_bound=100.0)
    assert pot.unbounded_warning
    assert not pot.certified


def test_parse_multivariate(rng):
    pot = parse_potential("0.5*q1^2 + cos(q2) - 0.1*q1*q2", 2)
    assert not pot.unbounded_warning
    pts = rng.uniform(-2, 2, (50, 2))
    for q in pts[::10]:
        g_fd = fd_gradient(lambda x: float(pot.eval(x)), q.copy())
        assert np.allclose(pot.grad(q), g_fd, rtol=1e-6, atol=1e-7)
        H_fd = fd_jacobian(pot.grad, q.copy())
        assert np.allclose(pot.hess(q), H_fd, rtol=1e-5, atol=1e-6)
    H = pot.hess(pts)
    assert np.allclose(H, np.swapaxes(H, -1, -2), atol=1e-14)


def test_parse_errors_carry_position():
    with pytest.raises(ExpressionError, match=r"position 5"):
        parse("q1 + * q2", 2)
    with pytest.raises(ExpressionError, match=r"unknown name 'foo'"):
        parse("foo(q1)", 1)
    with pytest.raises(ExpressionError, match=r"out of range"):
        parse("q3", 2)
    with pytest.raises(ExpressionError, match=r"expected '\)'"):
        parse("sin(q1", 1)
    with pytest.raises(ExpressionError):
        parse("", 1)
    with pytest.raises(ExpressionError, match=r"number '1e400' is not finite \(at position 5\)"):
        parse("q1 + 1e400*cos(q1)", 1)
    with pytest.raises(ExpressionError, match=r"unknown name 'log'"):
        parse("log(q1)", 1)  # log occurs in derivatives only


@pytest.mark.parametrize("expr", [
    "0.5*q1^2",
    "cos(q1) - 0.3*sin(q2)",
    "(q1 + q2)^2 / 4 - tanh(q1 - q2)",
    "-q1^2 - -q2",
    "exp(1.5) * q1",
    "2*q1^2 - q1*q2 + 3.0e-1*q2^2",
])
def test_pretty_print_roundtrip(expr, rng):
    ast = parse(expr, 2)
    printed = pretty(ast)
    reparsed = parse(printed, 2)
    pot1 = parse_potential(expr, 2, c_bound=100.0)
    pot2 = parse_potential(pretty(reparsed), 2, c_bound=100.0)
    pts = rng.uniform(-3, 3, (64, 2))
    assert np.allclose(pot1.eval(pts), pot2.eval(pts), rtol=1e-12, atol=1e-12)


def test_growth_degree():
    assert growth_degree(parse("cos(q1)", 1)) == 0.0
    assert growth_degree(parse("0.5*q1^2", 1)) == 2.0
    assert growth_degree(parse("q1^4", 1)) == 4.0
    assert growth_degree(parse("q1*q2*q1", 2)) == 3.0
    assert growth_degree(parse("tanh(q1)", 1)) == 0.0
    assert math.isinf(growth_degree(parse("exp(q1)", 1)))
    assert math.isinf(growth_degree(parse("sin(q1*q2)", 2)))
    assert math.isinf(growth_degree(parse("1/q1", 1)))
    assert growth_degree(parse("q1/2", 1)) == 1.0


def test_sampled_estimate_has_safety_factor():
    # sup |V''| of cos is 1, attained inside the sample box
    pot = parse_potential("cos(q1)", 1)
    assert pot.c_source == "sampled_estimate"
    assert 1.0 <= pot.c_bound <= 1.26
    assert pot.c_bound == pytest.approx(1.25, rel=1e-6)


@pytest.mark.parametrize("expr,dim", [("cos(q1) + q1/0", 1), ("(-2)^q1", 1), ("0^q1", 1),
                                      ("1/0 + q1", 1), ("cos(q1 - q2) + q1*q2/0", 2)])
@pytest.mark.parametrize("c_bound", [1.0, None])
def test_non_finite_constant_is_rejected(expr, dim, c_bound):
    # V, V' or V'' would be inf or nan at every point
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="has a constant part that is not finite"):
            parse_potential(expr, dim, c_bound=c_bound)



# ---------------------------------------------------------------------------
# compiled expressions against the tree walk they replace

_WALK_FUNCS = {"sin": np.sin, "cos": np.cos, "tanh": np.tanh, "exp": np.exp, "log": np.log}
_WALK_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
             "^": operator.pow}


def walk(node, q):
    """The per-call tree walk that exprparse.compile replaces."""
    if isinstance(node, Num):
        return np.float64(node.value)
    if isinstance(node, Var):
        return q[..., node.index]
    if isinstance(node, Neg):
        return -walk(node.arg, q)
    if isinstance(node, Call):
        return _WALK_FUNCS[node.func](walk(node.arg, q))
    return _WALK_OPS[node.op](walk(node.left, q), walk(node.right, q))


def same(a, b):
    return (type(a) is type(b) and np.shape(a) == np.shape(b)
            and np.asarray(a).tobytes() == np.asarray(b).tobytes())


# every node type, function, operator and literal position; derivatives add log
COMPILE_CASES = ["-2.5*cos(q1) + sin(q2)^3 - tanh(q1*q2)/exp(q2)",
                 "q1^q2 + 2^q1 - (q1 + 3)^0.5", "-(q1 - q2) * 4 / (q2 + 1)",
                 "3 + 4*2 - exp(1)", "-q1", "q2", "1.5", "0.5*q1^2 + cos(q2) - 0.1*q1*q2"]


@pytest.mark.parametrize("expr", COMPILE_CASES)
def test_compiled_expression_is_bitwise_the_tree_walk(expr, rng):
    ast = parse(expr, 2)
    nodes = [ast] + [derivative(ast, i) for i in range(2)]
    nodes += [derivative(d, j) for d in nodes[1:] for j in range(2)]
    for q in (rng.uniform(0.5, 2.0, (7, 2)), rng.uniform(-2.0, 2.0, (3, 4, 2)),
              rng.uniform(0.5, 2.0, 2), np.array([[0.0, 1.0], [-0.0, 0.0], [2.0, -0.0]])):
        with np.errstate(all="ignore"):
            for node in nodes:
                assert same(compile(node)(q), walk(node, q)), pretty(node)
    # and a potential's arrays are the walks, broadcast and stacked as they were
    pot = parse_potential(expr, 2, c_bound=100.0)
    q = rng.uniform(0.5, 2.0, (5, 3, 2))
    with np.errstate(all="ignore"):
        stacked = [np.stack([np.broadcast_to(walk(node, q), q.shape[:-1]) for node in group],
                            axis=-1) for group in (nodes[:1], nodes[1:3], nodes[3:])]
        assert pot.eval(q).tobytes() == stacked[0][..., 0].tobytes()
        assert pot.grad(q).tobytes() == stacked[1].tobytes()
        assert pot.hess(q).tobytes() == stacked[2].reshape(q.shape + (2,)).tobytes()
        assert pot.hess(q).shape == (5, 3, 2, 2)


# ---------------------------------------------------------------------------
# a user bound against the sampler

def test_user_bound_is_sampled_once_where_it_would_be_certified(monkeypatch):
    import finred.potentials as potentials

    calls = []
    norms = potentials.hessian_norms
    monkeypatch.setattr(potentials, "hessian_norms", lambda *a: calls.append(1) or norms(*a))
    parse_potential.cache_clear()
    pot = parse_potential("-5*cos(q1)", 1, c_bound=0.5)
    assert pot.certified and pot.c_sampled == 5.0 and len(calls) == 1
    # the same arguments again: the same potential, not sampled again
    assert parse_potential("-5*cos(q1)", 1, c_bound=0.5) is pot and len(calls) == 1
    # an expression flagged unbounded is not certified by a user bound: no sample
    assert parse_potential("q1^4", 1, c_bound=50.0).c_sampled is None and len(calls) == 1
    # without a bound, the estimate is 1.25 times the sample
    pot = parse_potential("cos(q1)", 1)
    assert pot.c_bound == 1.25 * pot.c_sampled and len(calls) == 2
    assert builtin_potential("pendulum", (2.0,)).c_sampled is None
