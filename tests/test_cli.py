"""CLI commands, config validation, artifact determinism."""

import io
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import finred
from finred import core, fourier
from finred import cli
from finred.cli import (_field_coeffs_csv, _field_csv, _path_coeffs_csv,
                        _trajectory_csv, main)
from finred.config import _SCHEMA, ConfigError, RunConfig, load_config, render_config
from finred.dirichlet import DirichletField, EigenMode, RectangleDomain, enumerate_modes
from finred.fourier import SinePath
from tests.conftest import refuse_grids

PENDULUM_CFG = """
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

FREE_CFG = """
[problem]
kind = mechanical

[potential]
builtin = zero
dim = 2

[geometry]
T = 2.0
q0 = 0.0, 1.0
qT = 1.0, -1.0

[multistart]
count = 2

[output]
directory = {out}
"""

HARMONIC_CFG = """
[problem]
kind = mechanical

[potential]
builtin = harmonic
params = 1.0

[geometry]
T = 1.5707963267948966
q0 = 0.0
qT = 1.0

[plan]
M = 512
refine = false

[multistart]
count = 2

[output]
directory = {out}
trajectory_points = 512
"""

DIRICHLET_CFG = """
[problem]
kind = dirichlet

[potential]
expr = cos(q1)
c_bound = 5.0

[geometry]
lengths = 3.141592653589793

[multistart]
count = 4

[output]
directory = {out}
"""


DIRICHLET_2D_CFG = """
[problem]
kind = dirichlet

[potential]
expr = -30*cos(q1)
c_bound = 30

[geometry]
lengths = 1.0, 1.3

[multistart]
count = 4

[output]
directory = {out}
"""


# the curvature bound 0.5 is wrong: V'' reaches 5, so the tail block is indefinite
WRONG_BOUND_CFG = """
[problem]
kind = mechanical

[potential]
expr = -5*cos(q1)
c_bound = 0.5

[geometry]
T = 6
q0 = 0.0
qT = 1.0

[output]
directory = {out}
"""


def write_cfg(tmp_path, template, name="run.cfg"):
    out = tmp_path / "out"
    path = tmp_path / name
    path.write_text(template.format(out=out), encoding="utf-8")
    return path, out


def test_plan_pendulum_output(tmp_path, capsys):
    cfg, _ = write_cfg(tmp_path, PENDULUM_CFG)
    assert main(["plan", "--config", str(cfg)]) == 0
    output = capsys.readouterr().out
    assert "N = 1" in output
    assert "mu = 0.75" in output
    assert "fixedpoint_N = 2" in output
    assert "dim_U = 1" in output


def test_plan_free_particle_notes_empty_system(tmp_path, capsys):
    cfg, _ = write_cfg(tmp_path, FREE_CFG)
    assert main(["plan", "--config", str(cfg)]) == 0
    output = capsys.readouterr().out
    assert "N = 0" in output
    assert "reduced system is empty" in output


def test_plan_dirichlet(tmp_path, capsys):
    cfg, _ = write_cfg(tmp_path, DIRICHLET_CFG)
    assert main(["plan", "--config", str(cfg)]) == 0
    output = capsys.readouterr().out
    assert "N = 2" in output
    assert "mu = 0.4444444444" in output


def test_solve_free_particle_straight_line(tmp_path):
    cfg, out = write_cfg(tmp_path, FREE_CFG)
    assert main(["solve", "--config", str(cfg)]) == 0
    rows = (out / "solutions.csv").read_text().strip().splitlines()
    assert rows[0] == "id,action,index,nullity,head_residual,tail_residual,certified"
    assert len(rows) == 2
    fields = rows[1].split(",")
    assert fields[2] == "0" and fields[3] == "0"  # index, nullity
    traj = np.loadtxt(out / "solution_000_trajectory.csv", delimiter=",", skiprows=1)
    ts = traj[:, 0]
    expect = np.stack([0.0 + ts / 2.0, 1.0 - ts], axis=1)
    assert np.allclose(traj[:, 1:], expect, atol=1e-12)


def test_solve_harmonic_matches_sine(tmp_path):
    cfg, out = write_cfg(tmp_path, HARMONIC_CFG)
    assert main(["solve", "--config", str(cfg)]) == 0
    traj = np.loadtxt(out / "solution_000_trajectory.csv", delimiter=",", skiprows=1)
    assert np.max(np.abs(traj[:, 1] - np.sin(traj[:, 0]))) <= 1e-6


def test_solve_exit_code_two_when_no_solutions(tmp_path):
    template = HARMONIC_CFG.replace("params = 1.0", "params = 2.0").replace(
        "T = 1.5707963267948966", "T = 4.71238898038469").replace(
        "M = 512", "M = 32")  # omega T = 3 pi: insoluble at any truncation
    cfg, out = write_cfg(tmp_path, template)
    assert main(["solve", "--config", str(cfg)]) == 2
    rows = (out / "solutions.csv").read_text().strip().splitlines()
    assert len(rows) == 1  # header only


def test_solve_wrong_curvature_bound_is_clean_error(tmp_path, capsys):
    # the sampler finds |V''| = 5 > 0.5: the bound is rejected at plan time
    cfg, out = write_cfg(tmp_path, WRONG_BOUND_CFG)
    for command in ("plan", "solve"):
        assert main([command, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: c_bound = 0.5 is below max |V''| = 5 found by sampling the potential"]
        assert not out.exists()


def test_solve_tail_not_positive_definite_fails_per_seed(tmp_path, capsys):
    # an uncertified plan (quartic growth, opted in) on a bound that V'' exceeds
    # near the path: the tail block is indefinite at every seed, and each seed
    # stops there on its own, so the solve writes its artifacts and exits 2
    text = WRONG_BOUND_CFG.replace("expr = -5*cos(q1)", "expr = -5*cos(q1) + 0.001*q1^4").replace(
        "c_bound = 0.5", "c_bound = 0.5\nallow_uncertified = true")
    cfg, out = write_cfg(tmp_path, text)
    assert main(["plan", "--config", str(cfg)]) == 0
    assert "certified = false" in capsys.readouterr().out
    assert main(["solve", "--config", str(cfg), "--seeds", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == f"0 solution(s) converged; artifacts in {out}\n"
    assert (out / "solutions.csv").read_text().splitlines() == [
        "id,action,index,nullity,head_residual,tail_residual,certified"]
    seeds = [line for line in (out / "convergence.log").read_text().splitlines()
             if line.startswith("seed ")]
    assert len(seeds) == 8
    assert all(" converged=false " in line and line.endswith(" reason=tail_not_positive_definite")
               for line in seeds)
    # each line says by how much the block failed, and counts the tail step that found it
    margins = []
    for line in seeds:
        *_, tail_iterations, _, _, margin, _ = line.split()
        assert int(tail_iterations.removeprefix("tail_iterations=")) >= 1
        margins.append(float(margin.removeprefix("tail_min_eigenvalue=")))
    assert all(margin < 0.0 for margin in margins)
    assert margins[0] == pytest.approx(-3.278, abs=5e-4)
    assert "count = 8" in (out / "resolved.cfg").read_text()


# keys that once selected something and were removed, with no alias left
@pytest.mark.parametrize("key, value", [("workers", "1"), ("method", "newton")],
                         ids=["workers", "method"])
def test_a_removed_key_is_unknown(tmp_path, capsys, key, value):
    text = PENDULUM_CFG.replace("count = 6", f"count = 6\n{key} = {value}")
    line = text.splitlines().index(f"{key} = {value}") + 1
    cfg, out = write_cfg(tmp_path, text)
    assert main(["solve", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: line {line}: unknown key '{key}' in [multistart]"]
    assert not out.exists()


# --method is read by no command since the tail solver has one path
UNREAD_FLAGS = {"plan": ["--out", "--seeds", "--seed", "--method"],
                "solve": ["--method"],
                "index": ["--seeds", "--seed", "--method"],
                "weyl": ["--out", "--seeds", "--seed", "--method"]}


@pytest.mark.parametrize("command,flag", [(command, flag) for command, flags in
                                          UNREAD_FLAGS.items() for flag in flags])
def test_commands_reject_flags_they_do_not_read(tmp_path, capsys, command, flag):
    cfg, out = write_cfg(tmp_path, PENDULUM_CFG)
    given = f"{flag}={'newton' if flag == '--method' else '3'}"
    with pytest.raises(SystemExit) as exit_:
        main([command, "--config", str(cfg), given, *(["0"] if command == "index" else [])])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {given}" in capsys.readouterr().err
    assert not out.exists()


def test_solve_takes_all_three_overrides(tmp_path, capsys):
    cfg, _ = write_cfg(tmp_path, PENDULUM_CFG)
    alt = tmp_path / "alt"
    assert main(["solve", "--config", str(cfg), "--out", str(alt), "--seeds", "2",
                 "--seed", "0x7"]) == 0
    echo = (alt / "resolved.cfg").read_text().splitlines()
    assert {"count = 2", "seed = 0x7", f"directory = {alt}"} <= set(echo)


def test_solve_non_finite_endpoint_is_clean_error(tmp_path, capsys):
    cfg, _ = write_cfg(tmp_path, PENDULUM_CFG.replace("qT = 1.0", "qT = nan"))
    assert main(["solve", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: endpoint qT must be finite, got [nan]"]


@pytest.mark.parametrize("command", ["plan", "solve"])
def test_truncation_above_cap_is_one_error_line(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(core, "SineGrid", refuse_grids)
    text = PENDULUM_CFG.replace("[multistart]", "[plan]\nN = 100000\n\n[multistart]")
    cfg, out = write_cfg(tmp_path, text)
    assert main([command, "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: truncation M n = 200008 with quad_points = 400017 is above the cap 100000"]
    assert not out.exists()


def test_refined_level_above_cap_is_one_error_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(core, "MODE_CAP", 100)  # the plan (M = 32, 65 points) fits, M = 64 not
    cfg, _ = write_cfg(tmp_path, PENDULUM_CFG)
    assert main(["plan", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["solve", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: truncation M n = 64 with quad_points = 129 is above the cap 100"]


def test_refined_raised_quadrature_above_cap_is_one_error_line(tmp_path, capsys, monkeypatch):
    # the plan (M = 32, 1001 points) fits; its refined level keeps the raised
    # quadrature, 2 * 1001 - 1 = 2001 points, which does not
    monkeypatch.setattr(core, "MODE_CAP", 1500)
    text = PENDULUM_CFG.replace("[multistart]", "[plan]\nquad_points = 1001\n\n[multistart]")
    cfg, out = write_cfg(tmp_path, text)
    assert main(["plan", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["solve", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: truncation M n = 64 with quad_points = 2001 is above the cap 1500"]
    assert not out.exists()


def out_of_memory(*args, **kwargs):
    """Stand-in for core.SineGrid: fails as the (99999, 99999) cosine table would."""
    raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (99999, 99999)")


def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(core, "SineGrid", out_of_memory)
    text = PENDULUM_CFG.replace("[multistart]", "[plan]\nM = 49999\n\n[multistart]")
    cfg, _ = write_cfg(tmp_path, text)
    assert main(["solve", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: out of memory: Unable to allocate 74.5 GiB for an array with shape (99999, 99999)"]


@pytest.mark.parametrize("command", ["plan", "solve"])
def test_non_finite_literal_is_one_error_line(tmp_path, capsys, command):
    text = DIRICHLET_CFG.replace("expr = cos(q1)", "expr = 1e400*cos(q1)").replace(
        "c_bound = 5.0", "c_bound = 1")
    cfg, out = write_cfg(tmp_path, text)
    assert main([command, "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: number '1e400' is not finite (at position 0)"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["plan", "solve"])
@pytest.mark.parametrize("expr,keys,bad", [("cos(q1) + q1/0", "c_bound = 1", "inf"),
                                           ("(-2)^q1", "allow_uncertified = true", "log(-2.0)"),
                                           ("0^q1", "allow_uncertified = true", "-inf")])
def test_non_finite_potential_is_one_error_line(tmp_path, capsys, command, expr, keys, bad):
    text = DIRICHLET_CFG.replace("expr = cos(q1)", f"expr = {expr}").replace("c_bound = 5.0", keys)
    cfg, out = write_cfg(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        assert main([command, "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: expression {expr!r} or a derivative of it has a constant part "
        f"that is not finite: {bad}"]
    assert not out.exists()


BOUNDARY_ERROR = ("error: V' of the boundary part is not finite "
                  "(V' at the endpoints of a path, V'(0) for a field)")


@pytest.mark.parametrize("template,expr", [
    (DIRICHLET_CFG, "q1^0.5"), (DIRICHLET_CFG, "cos(q1) + 1/q1"),
    (PENDULUM_CFG, "cos(q1) + 1/q1")],
    ids=["field-sqrt", "field-reciprocal", "path-reciprocal"])
def test_non_finite_boundary_gradient_is_one_error_line(tmp_path, capsys, template, expr):
    # V' is infinite at 0: the field's boundary value, the path's left endpoint
    text = re.sub(r"(builtin = pendulum\nparams = 1.0|expr = cos\(q1\)\nc_bound = 5.0)",
                  f"expr = {expr}\nc_bound = 1\nallow_uncertified = true", template)
    cfg, out = write_cfg(tmp_path, text)
    for command in ("solve", "index"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            assert main([command, "--config", str(cfg), *(["0"] if command == "index" else [])]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [BOUNDARY_ERROR]
        assert not out.exists()


def test_expressions_load_no_computer_algebra(tmp_path):
    # derivatives come from the parsed expression, so sympy is never imported
    cfg, out = write_cfg(tmp_path, DIRICHLET_CFG)
    script = (
        "import sys, finred, finred.cli\n"
        "assert finred.cli.main(['solve', '--config', sys.argv[1]]) == 0\n"
        "assert 'sympy' not in sys.modules, 'sympy was imported'\n")
    env = {**os.environ, "PYTHONPATH": str(Path(finred.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", script, str(cfg)], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert (out / "solutions.csv").exists()


# scipy subpackages (and what their __init__ imports) that finred's two kernels do without
HEAVY_MODULES = ("scipy.linalg", "scipy.fft", "scipy.special", "numpy.f2py")
FLAPACK, POCKETFFT = "scipy.linalg._flapack", "scipy.fft._pocketfft.pypocketfft"


def _python(script, *args):
    env = {**os.environ, "PYTHONPATH": str(Path(finred.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_commands_load_no_scipy_subpackage(tmp_path):
    cfg, out = write_cfg(tmp_path, DIRICHLET_2D_CFG)
    script = (
        "import sys, finred, finred.cli\n"
        "from finred import core\n"
        "assert finred.cli.main(['solve', '--config', sys.argv[1]]) == 0\n"
        "assert finred.cli.main(['index', '--config', sys.argv[1], '0']) == 0\n"
        f"print(sorted(set({HEAVY_MODULES!r}) & set(sys.modules)), len(core.openblas_setters()))\n")
    light = _python(script, cfg).splitlines()[-1]
    assert (out / "solutions.csv").exists()
    # the pin reaches as many OpenBLAS libraries as after a full scipy.linalg import
    full = _python("import scipy.linalg\nfrom finred import core\n"
                   "print(len(core.openblas_setters()))\n")
    assert light == f"[] {full.strip()}"


@pytest.mark.parametrize("first", ["finred", "scipy"])
def test_kernels_are_scipys_in_either_import_order(first):
    imports = ["from finred import core, fourier", "import scipy.fft, scipy.linalg.lapack"]
    script = "\n".join(imports if first == "finred" else imports[::-1]) + (
        "\nimport sys, scipy.integrate, scipy.optimize\n"
        "assert core.dpotrf is scipy.linalg.lapack.dpotrf\n"
        "assert core.dpotrs is scipy.linalg.lapack.dpotrs\n"
        f"assert core._flapack is sys.modules[{FLAPACK!r}]\n"
        f"assert fourier._pocketfft is sys.modules[{POCKETFFT!r}]\n"
        "assert fourier._pocketfft is scipy.fft._pocketfft.realtransforms.pfft\n"
        # the package attributes, bound after the packages' import in either order
        "assert scipy.linalg._flapack is core._flapack\n"
        "assert scipy.fft._pocketfft.pypocketfft is fourier._pocketfft\n")
    _python(script)


def test_a_missed_kernel_file_falls_back_to_the_full_import(tmp_path):
    # with no file found, the kernels come from scipy's own packages, and a
    # solve writes the same bytes
    cfg, out = write_cfg(tmp_path, DIRICHLET_2D_CFG)
    outputs = []
    for miss, loaded in (("", "[]"), ("['.missing']", "['scipy.fft', 'scipy.linalg']")):
        script = (
            "import importlib.machinery, sys\n"
            + (f"importlib.machinery.EXTENSION_SUFFIXES = {miss}\n" if miss else "")
            + "from finred import cli, core, fourier\n"
            "loaded = sorted({'scipy.fft', 'scipy.linalg'} & set(sys.modules))\n"
            "import scipy.fft, scipy.linalg.lapack\n"
            "assert core.dpotrf is scipy.linalg.lapack.dpotrf\n"
            "assert fourier._pocketfft is scipy.fft._pocketfft.realtransforms.pfft\n"
            "assert cli.main(['solve', '--config', sys.argv[1]]) == 0\n"
            "print(loaded)\n")
        assert _python(script, cfg).splitlines()[-1] == loaded
        outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]


def test_convergence_log_has_per_seed_records(tmp_path):
    cfg, out = write_cfg(tmp_path, PENDULUM_CFG)
    assert main(["solve", "--config", str(cfg)]) == 0
    log = (out / "convergence.log").read_text()
    for i in range(6):  # count = 6 in the config
        assert f"seed {i:03d} " in log
    assert "head_residual_history" in log
    assert "solution 000" in log


@pytest.mark.parametrize("template", [PENDULUM_CFG, DIRICHLET_CFG], ids=["mechanical", "dirichlet"])
def test_convergence_log_names_the_seed_of_every_solution(tmp_path, template):
    cfg, out = write_cfg(tmp_path, template)  # refine defaults to true
    assert main(["solve", "--config", str(cfg)]) == 0
    lines = (out / "convergence.log").read_text().splitlines()
    seeds = {int(line.split()[1]): line for line in lines if line.startswith("seed ")}
    solutions = [line for line in lines if line.startswith("solution ")]
    assert solutions
    for line in solutions:
        assert " seed=-1 " not in line
        seed = int(line.split(" seed=")[1].split()[0])
        assert " converged=true " in seeds[seed]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
def test_bad_multistart_radius_is_config_error(tmp_path, capsys, value):
    for template in (PENDULUM_CFG, DIRICHLET_CFG):
        text = template.replace("[multistart]\n", f"[multistart]\nradius = {value}\n")
        line = text.splitlines().index(f"radius = {value}") + 1
        with pytest.raises(ConfigError, match=f"line {line}: radius must be a positive real"):
            load_config(text.format(out=tmp_path / "out"))
        cfg, out = write_cfg(tmp_path, text)
        assert main(["solve", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: line {line}: radius must be a positive real, got {float(value)}"]
        assert not out.exists()


@pytest.mark.parametrize("key,value", [("field_points", -3), ("field_points", 0),
                                       ("field_points", 1), ("trajectory_points", -2),
                                       ("trajectory_points", 1)])
def test_output_points_below_two_is_config_error(tmp_path, capsys, key, value):
    for template in (PENDULUM_CFG, DIRICHLET_CFG):
        text = template.replace("[output]\n", f"[output]\n{key} = {value}\n")
        line = text.splitlines().index(f"{key} = {value}") + 1
        message = f"line {line}: {key} must be at least 2, got {value}"
        with pytest.raises(ConfigError, match=message):
            load_config(text.format(out=tmp_path / "out"))
        cfg, out = write_cfg(tmp_path, text)
        assert main(["solve", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]
        assert not out.exists()


def fmt(x):
    return format(float(x), ".16e")


def field_csv_reference(sol, points):
    """The per-point formatting loop that cli._field_csv replaces, on the values
    of the field's grid evaluator (``DirichletField.on_grid``)."""
    dom = sol.field.domain
    axes = [np.linspace(0.0, L, points) for L in dom.lengths]
    vals = sol.field.on_grid(axes).ravel()
    if dom.m == 1:
        rows = ["x,phi"] + [f"{fmt(x)},{fmt(v)}" for x, v in zip(axes[0], vals)]
    else:
        X, Y = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([X.ravel(), Y.ravel()], axis=-1)
        rows = ["x,y,phi"] + [f"{fmt(x)},{fmt(y)},{fmt(v)}" for (x, y), v in zip(pts, vals)]
    return "\n".join(rows) + "\n"


def field_csv_values(text):
    """Coordinates and values of a written field CSV, as floats."""
    table = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    return table[:, :-1], table[:, -1]


@pytest.mark.parametrize("lengths", [(1.3,), (1.0, 1.0), (0.9, 1.6)])
def test_field_csv_values_are_evaluate_s(lengths):
    """The written values are DirichletField.evaluate's at the written points, to
    1e-14, on O(1) fields of every refinement level's mode count."""
    rng = np.random.default_rng(13)
    dom = RectangleDomain(lengths)
    for lam in (300.0, 1200.0, 4800.0):
        modes = tuple(enumerate_modes(dom, lam))
        lams = np.array([em.lam for em in modes])
        coeffs = rng.normal(size=len(modes)) * (lams[0] / lams)  # smooth
        grid = np.stack(np.meshgrid(*[np.linspace(0.0, L, 65) for L in lengths],
                                    indexing="ij"), axis=-1).reshape(-1, dom.m)
        coeffs = coeffs / np.max(np.abs(DirichletField(dom, modes, coeffs).evaluate(grid)))
        field = DirichletField(dom, modes, coeffs)  # max |phi| = 1
        for points in (2, 17, 65):
            xy, phi = field_csv_values(_field_csv(SimpleNamespace(field=field), points))
            assert xy.shape == (points ** dom.m, dom.m)
            assert np.max(np.abs(phi - field.evaluate(xy))) <= 1e-14


def test_field_csv_of_a_refined_root_is_evaluate_s(tmp_path, capsys):
    # -56.49 cos(phi) on the unit square, twice refined: 380 modes per root
    text = (DIRICHLET_2D_CFG.replace("-30*", "-56.49*").replace("c_bound = 30", "c_bound = 56.49")
            .replace("1.0, 1.3", "1.0, 1.0").replace("count = 4", "count = 3"))
    cfg, out = write_cfg(tmp_path, text)
    assert main(["solve", "--config", str(cfg)]) == 0
    capsys.readouterr()
    dom = RectangleDomain((1.0, 1.0))
    roots = len((out / "solutions.csv").read_text().splitlines()) - 1
    assert roots >= 2
    sizes = []
    for i in range(roots):
        table = np.loadtxt(out / f"solution_{i:03d}_coeffs.csv", delimiter=",", skiprows=1)
        sizes.append(len(table))
        field = DirichletField(dom, tuple(EigenMode(lam, (int(a), int(b)))
                                          for a, b, lam in table[:, :3]), table[:, 3])
        xy, phi = field_csv_values((out / f"solution_{i:03d}_field.csv").read_text())
        assert np.max(np.abs(phi - field.evaluate(xy))) <= 1e-14
    assert 380 in sizes


def trajectory_csv_reference(bp, rep, points):
    """The per-value formatting loop that cli._trajectory_csv replaces."""
    ts = np.linspace(0.0, bp.T, points)
    gamma = bp.drift(ts) + rep.path.evaluate(ts)
    rows = ["t," + ",".join(f"gamma_{j + 1}" for j in range(bp.n))]
    for i, t in enumerate(ts):
        rows.append(",".join([fmt(t)] + [fmt(g) for g in gamma[i]]))
    return "\n".join(rows) + "\n"


def path_coeffs_csv_reference(rep):
    """The per-value formatting loop that cli._path_coeffs_csv replaces."""
    n = rep.path.n
    rows = ["k," + ",".join(f"c_{j + 1}" for j in range(n))]
    for k in range(rep.path.M):
        rows.append(",".join([str(k + 1)] + [fmt(v) for v in rep.path.coeffs[k]]))
    return "\n".join(rows) + "\n"


def field_coeffs_csv_reference(rep):
    """The per-mode formatting loop that cli._field_coeffs_csv replaces."""
    rows = ["k1,lambda,coeff" if rep.field.domain.m == 1 else "k1,k2,lambda,coeff"]
    for em, cm in zip(rep.field.modes, rep.field.coeffs):
        idx = ",".join(str(k) for k in em.indices)
        rows.append(f"{idx},{fmt(em.lam)},{fmt(cm)}")
    return "\n".join(rows) + "\n"


# signed zero, subnormal, tiny, huge and ordinary values
SPECIAL = np.array([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e-300, 1.7976931348623157e308,
                    -1e300, 0.1, -1.0 / 3.0, 123456789.0])


@pytest.mark.parametrize("lengths", [(1.3,), (1.0, 1.0), (0.9, 1.6)])
def test_field_csv_bytes_match_the_formatting_loop(lengths):
    """Every CSV writer gives the bytes of the per-value formatting loop it replaces."""
    rng = np.random.default_rng(11)
    dom = RectangleDomain(lengths)
    modes = tuple(enumerate_modes(dom, 2000.0))
    coeffs = rng.normal(size=len(modes)) * 10.0 ** rng.integers(-12, 3, len(modes))
    sol = SimpleNamespace(field=DirichletField(dom, modes, coeffs))
    for points in (2, 17, 65):
        assert _field_csv(sol, points) == field_csv_reference(sol, points)
    # a stub field whose values are the special ones, nan and infinities too,
    # pins the writer's value template against format(x, ".16e")
    values = np.concatenate([SPECIAL, [np.nan, np.inf, -np.inf]])
    stub = SimpleNamespace(field=SimpleNamespace(
        domain=dom, on_grid=lambda axes: np.resize(values, [len(x) for x in axes])))
    for points in (2, 17):  # 17 points or more per axis hold every value
        assert _field_csv(stub, points) == field_csv_reference(stub, points)
    assert ",nan\n" in _field_csv(stub, 17) and ",-inf\n" in _field_csv(stub, 17)
    special = np.resize(SPECIAL, len(modes))
    sol = SimpleNamespace(field=DirichletField(dom, modes, special))
    assert _field_coeffs_csv(sol) == field_coeffs_csv_reference(sol)
    # paths with one component per side length; trajectory values are the
    # special values (the drift) plus -0.0 (the path), which keeps their signs
    n, T = len(lengths), lengths[-1]
    for points in (2, 17):
        drift = np.resize(SPECIAL, (points, n))
        bp = SimpleNamespace(T=T, n=n, drift=lambda ts: drift)
        rep = SimpleNamespace(path=SimpleNamespace(evaluate=lambda ts: np.full((len(ts), n), -0.0)))
        assert _trajectory_csv(bp, rep, points) == trajectory_csv_reference(bp, rep, points)
    rep = SimpleNamespace(path=SinePath(T, np.resize(SPECIAL, (len(SPECIAL) + 3, n))))
    assert _path_coeffs_csv(rep) == path_coeffs_csv_reference(rep)


@pytest.mark.parametrize("template", [PENDULUM_CFG, DIRICHLET_2D_CFG],
                         ids=["mechanical", "dirichlet-2d"])
def test_solve_deterministic_bytes(tmp_path, template):
    # two solves in one process: nothing carried between them changes a byte
    cfg, out = write_cfg(tmp_path, template)
    assert main(["solve", "--config", str(cfg)]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["solve", "--config", str(cfg)]) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def test_resolved_config_roundtrip(tmp_path):
    cfg, out = write_cfg(tmp_path, PENDULUM_CFG)
    assert main(["solve", "--config", str(cfg)]) == 0
    baseline = (out / "solutions.csv").read_bytes()
    out2 = tmp_path / "out2"
    assert main(["solve", "--config", str(out / "resolved.cfg"), "--out", str(out2)]) == 0
    assert (out2 / "solutions.csv").read_bytes() == baseline


def test_index_command_agrees(tmp_path, capsys):
    cfg, out = write_cfg(tmp_path, PENDULUM_CFG)
    assert main(["solve", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["index", "--config", str(cfg), "0"]) == 0
    output = capsys.readouterr().out
    assert "AGREE" in output
    assert "schur=0 full=0 jacobi=0" in output


def test_index_command_nontrivial_count(tmp_path, capsys):
    # one conjugate point for omega = 1 on a horizon of 3 pi / 2
    template = HARMONIC_CFG.replace("T = 1.5707963267948966", "T = 4.71238898038469") \
                           .replace("M = 512", "M = 64")
    cfg, out = write_cfg(tmp_path, template)
    assert main(["solve", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["index", "--config", str(cfg), "0"]) == 0
    assert "schur=1 full=1 jacobi=1 AGREE" in capsys.readouterr().out


def test_index_degenerate_endpoint_warning(tmp_path, capsys):
    template = HARMONIC_CFG.replace("T = 1.5707963267948966", "T = 3.141592653589793") \
                           .replace("qT = 1.0", "qT = 0.0").replace("M = 512", "M = 32")
    cfg, out = write_cfg(tmp_path, template)
    assert main(["solve", "--config", str(cfg)]) == 0
    capsys.readouterr()
    main(["index", "--config", str(cfg), "0"])
    output = capsys.readouterr().out
    assert "nullity" in output
    assert "endpoint" in output


def test_index_missing_artifacts(tmp_path, capsys):
    cfg, out = write_cfg(tmp_path, PENDULUM_CFG)
    assert main(["index", "--config", str(cfg), "0"]) == 1
    assert "missing artifact" in capsys.readouterr().err


def test_index_dirichlet(tmp_path, capsys):
    # a 1-D field is the n = 1 path with zero endpoints: three counts
    cfg, out = write_cfg(tmp_path, DIRICHLET_CFG)
    assert main(["solve", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["index", "--config", str(cfg), "0"]) == 0
    output = capsys.readouterr().out
    assert re.fullmatch(r"schur=(\d+) full=\1 jacobi=\1 AGREE", output.splitlines()[0])


def test_index_dirichlet_2d_has_no_jacobi_count(tmp_path, capsys):
    cfg, out = write_cfg(tmp_path, DIRICHLET_2D_CFG)
    assert main(["solve", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["index", "--config", str(cfg), "0"]) == 0
    output = capsys.readouterr().out
    assert re.fullmatch(r"schur=(\d+) full=\1 jacobi=n/a AGREE", output.splitlines()[0])


def test_index_assembles_on_the_grid_of_the_solve(tmp_path, capsys, monkeypatch):
    # quad_points = 129 puts the solve's Hessian on 129 nodes, not the 2M + 1 = 65 default
    text = PENDULUM_CFG.replace("T = 3.141592653589793", "T = 9.42477796076938").replace(
        "[multistart]", "[plan]\nquad_points = 129\nrefine = false\n\n[multistart]")
    cfg, out = write_cfg(tmp_path, text)
    assert main(["solve", "--config", str(cfg)]) == 0
    capsys.readouterr()
    grids, blocks_at = [], cli.blocks_at

    def spy(system, head_dim, c):
        grids.append(system.grid.P)
        return blocks_at(system, head_dim, c)

    monkeypatch.setattr(cli, "blocks_at", spy)
    assert main(["index", "--config", str(cfg), "0"]) == 0
    assert grids == [(129,)]
    assert capsys.readouterr().out.endswith(" AGREE\n")


# (D, D) float arrays at the tracemalloc peak of `finred index` after `finred
# solve` in one process, on a twice-refined root of -56.49 cos(phi) on the unit
# square (D = 380), before the geometry tables were shared (numpy 2.4, scipy 1.17)
INDEX_PEAK_ARRAYS = 4.382


def test_index_peak_memory_on_a_refined_2d_root(tmp_path, capsys):
    text = (DIRICHLET_2D_CFG.replace("-30*", "-56.49*").replace("c_bound = 30", "c_bound = 56.49")
            .replace("1.0, 1.3", "1.0, 1.0").replace("count = 4", "count = 3"))
    cfg, out = write_cfg(tmp_path, text)
    fourier._cosine_rows.cache_clear()
    core.gauss_sine_rule.cache_clear()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert main(["solve", "--config", str(cfg)]) == 0
        tracemalloc.reset_peak()
        assert main(["index", "--config", str(cfg), "0"]) == 0
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    D = 380
    assert len((out / "solution_000_coeffs.csv").read_text().splitlines()) == D + 1
    array = 8 * D * D
    assert peak - start <= 1.01 * INDEX_PEAK_ARRAYS * array
    assert end - start < 0.5 * array  # no (D, D) array outlives the two commands


@pytest.mark.parametrize("template", [PENDULUM_CFG, DIRICHLET_CFG], ids=["mechanical", "dirichlet"])
def test_index_coefficient_count_of_no_level_is_one_error_line(tmp_path, capsys, template):
    cfg, out = write_cfg(tmp_path, template)
    assert main(["solve", "--config", str(cfg)]) == 0
    capsys.readouterr()
    coeff_file = out / "solution_000_coeffs.csv"
    rows = coeff_file.read_text(encoding="utf-8").splitlines()
    coeff_file.write_text("\n".join(rows[:-1]) + "\n", encoding="utf-8")
    assert main(["index", "--config", str(cfg), "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: artifact {coeff_file} has ")


def test_weyl_table(tmp_path, capsys):
    cfg, _ = write_cfg(tmp_path, DIRICHLET_CFG)
    assert main(["weyl", "--config", str(cfg), "--c-values", "100,1000"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "C,exact_count,weyl_count,relative_error"
    assert len(rows) == 3
    assert rows[1].startswith("100,10,")  # L = pi: exactly 10 modes below 100


def test_weyl_requires_dirichlet(tmp_path, capsys):
    cfg, _ = write_cfg(tmp_path, PENDULUM_CFG)
    assert main(["weyl", "--config", str(cfg)]) == 1
    assert "dirichlet" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "nan", "-1"])
def test_weyl_bad_threshold_is_clean_error(tmp_path, capsys, value):
    cfg, _ = write_cfg(tmp_path, DIRICHLET_CFG)
    assert main(["weyl", "--config", str(cfg), "--c-values", f"100,{value}"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: threshold must be finite and positive, got {float(value)}"]


def test_cli_overrides(tmp_path):
    cfg, out = write_cfg(tmp_path, PENDULUM_CFG)
    alt = tmp_path / "alt"
    assert main(["solve", "--config", str(cfg), "--out", str(alt),
                 "--seeds", "3", "--seed", "0xBEEF"]) == 0
    resolved = (alt / "resolved.cfg").read_text()
    assert "count = 3" in resolved
    assert "seed = 0xBEEF" in resolved
    assert "method" not in resolved


def test_parser_is_built_once_and_parses_each_call_afresh(tmp_path):
    assert cli._build_parser() is cli._build_parser()
    cfg, out = write_cfg(tmp_path, PENDULUM_CFG)
    assert main(["solve", "--config", str(cfg), "--seeds", "3", "--seed", "0x7"]) == 0
    assert main(["solve", "--config", str(cfg)]) == 0  # the overrides above do not stay
    resolved = (out / "resolved.cfg").read_text()
    assert "count = 6" in resolved and "seed = 0xAC21" in resolved


def test_config_error_messages(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[problem]\nkind = mechanical\n[potential]\nbuiltin = zero\nbogus = 1\n")
    assert main(["plan", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 5" in err and "bogus" in err


CONFIG_ERRORS = [
    ("malformed-header", PENDULUM_CFG.replace("[geometry]", "[geometry"),
     "line 9: malformed section header '[geometry'"),
    ("no-equals", PENDULUM_CFG.replace("T = 3.14", "T 3.14"),
     "line 10: expected 'key = value', got 'T 3.141592653589793'"),
    ("key-outside-section", "kind = mechanical\n" + PENDULUM_CFG,
     "line 1: key outside of any [section]"),
    ("no-potential", PENDULUM_CFG.replace("builtin = pendulum\nparams = 1.0\n", ""),
     "section [potential] needs 'builtin' or 'expr'"),
    ("mechanical-without-T", PENDULUM_CFG.replace("T = 3.141592653589793\n", ""),
     "mechanical problems need geometry key 'T'"),
    ("endpoint-entries", PENDULUM_CFG.replace("params = 1.0", "params = 1.0\ndim = 2")
     .replace("qT = 1.0", "qT = 1.0, 2.0, 3.0"),
     "line 13: endpoints must have dim = 2 entries, got 2 and 3"),
    ("dirichlet-without-lengths", DIRICHLET_2D_CFG.replace("lengths = 1.0, 1.3\n", ""),
     "dirichlet problems need geometry key 'lengths'"),
    ("dirichlet-dim", DIRICHLET_2D_CFG.replace("c_bound = 30", "c_bound = 30\ndim = 2"),
     "line 8: dirichlet problems take scalar potentials (dim = 1)"),
    ("key-twice", PENDULUM_CFG.replace("count = 6", "count = 6\ncount = 7"),
     "line 16: key 'count' in [multistart] is also given on line 15"),
    ("key-twice-under-repeated-header", PENDULUM_CFG + "\n[multistart]\ncount = 7\n",
     "line 21: key 'count' in [multistart] is also given on line 15"),
    ("quad-points-zero",
     PENDULUM_CFG.replace("[multistart]", "[plan]\nquad_points = 0\n\n[multistart]"),
     "quadrature needs at least 2M+1 = 65 points, got 0"),
]


@pytest.mark.parametrize("text,message", [case[1:] for case in CONFIG_ERRORS],
                         ids=[case[0] for case in CONFIG_ERRORS])
def test_config_errors_are_one_line_and_write_nothing(tmp_path, capsys, text, message):
    cfg, out = write_cfg(tmp_path, text)
    assert main(["solve", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {message}"]
    assert captured.out == ""
    assert not out.exists()


def test_config_type_errors():
    with pytest.raises(ConfigError, match="line 2.*mechanical"):
        load_config("[problem]\nkind = quantum\n")
    with pytest.raises(ConfigError, match="must be a real number"):
        load_config("[problem]\nkind = mechanical\n[potential]\nbuiltin = zero\n"
                    "[geometry]\nT = abc\n")
    with pytest.raises(ConfigError, match="unknown section"):
        load_config("[wormhole]\n")
    with pytest.raises(ConfigError, match="either 'builtin' or 'expr'"):
        load_config("[problem]\nkind = mechanical\n[potential]\nbuiltin = zero\nexpr = q1\n")


def test_config_accepts_inline_comments():
    cfg = load_config(
        "[problem]                # comment after header\n"
        "kind = mechanical        # and after values\n"
        "[potential]\n"
        "builtin = zero\n"
        "[geometry]\n"
        "T = 2.0\n")
    assert cfg.kind == "mechanical" and cfg.T == 2.0


def test_render_parse_roundtrip():
    cfg = load_config(PENDULUM_CFG.format(out="somewhere"))
    text = render_config(cfg)
    cfg2 = load_config(text)
    assert render_config(cfg2) == text
    assert cfg2.T == cfg.T and cfg2.count == cfg.count and cfg2.seed == cfg.seed


def test_schema_keys_are_the_run_config_fields():
    assert [key for keys in _SCHEMA.values() for key in keys] == \
        [f.name for f in fields(RunConfig)]


def with_key(template, section, key, value):
    """The template with ``key = value`` in place of the key's line, or else
    first in [section] (added if missing)."""
    lines = template.splitlines()
    for i, line in enumerate(lines):
        if line.startswith(f"{key} = "):
            lines[i] = f"{key} = {value}"
            return "\n".join(lines) + "\n"
    header = f"[{section}]\n"
    if header not in template:
        template += "\n" + header
    return template.replace(header, f"{header}{key} = {value}\n")


RULES = (
    [(section, key, value, f"{key} must be a positive real, got {float(value)}")
     for section, key in (("plan", "tail_tol"), ("plan", "head_tol"), ("plan", "lambda_cut"))
     for value in ("nan", "inf", "0", "-1")]
    + [("potential", "c_bound", value, f"c_bound must be finite and nonnegative, got {float(value)}")
       for value in ("nan", "inf", "-1")]
    + [("multistart", "seed", "-5", "seed must be at least 0, got -5"),
       ("multistart", "seed", "abc", "seed must be an integer, got 'abc'"),
       ("multistart", "count", "0", "count must be from 1 to 100000, got 0"),
       ("multistart", "count", "-3", "count must be from 1 to 100000, got -3"),
       ("multistart", "count", "100001", "count must be from 1 to 100000, got 100001"),
       ("multistart", "count", "abc", "count must be an integer, got 'abc'")]
)
FLAGS = {"seed": "--seed", "count": "--seeds"}


@pytest.mark.parametrize("section,key,value,message", RULES,
                         ids=[f"{key}={value}" for _, key, value, _ in RULES])
@pytest.mark.parametrize("template", [PENDULUM_CFG, DIRICHLET_2D_CFG],
                         ids=["mechanical", "dirichlet-2d"])
def test_config_rules_hold_for_file_keys_and_overrides(tmp_path, capsys, template,
                                                       section, key, value, message):
    # from the file: a line-anchored ConfigError, one error line, exit 1, no output
    text = with_key(template, section, key, value)
    line = text.splitlines().index(f"{key} = {value}") + 1
    with pytest.raises(ConfigError, match=f"^line {line}: {message}$"):
        load_config(text.format(out=tmp_path / "out"))
    cfg, out = write_cfg(tmp_path, text)
    assert main(["solve", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [f"error: line {line}: {message}"]
    assert not out.exists()
    # from an override: the same rule, without a line
    good, out = write_cfg(tmp_path, template, name="good.cfg")
    with pytest.raises(ConfigError, match=f"^{message}$") as caught:
        load_config(good.read_text(), {(section, key): value})
    assert caught.value.line is None
    if key in FLAGS:
        assert main(["solve", "--config", str(good), FLAGS[key], value]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]
        assert not out.exists()


def test_overrides_replace_file_values():
    text = PENDULUM_CFG.format(out="out")
    cfg = load_config(text, {("multistart", "count"): "9", ("multistart", "seed"): "0x1F",
                             ("output", "directory"): "elsewhere"})
    assert (cfg.count, cfg.seed, cfg.directory) == (9, 31, "elsewhere")
    with pytest.raises(ConfigError, match="unknown key 'bogus' in \\[plan\\]"):
        load_config(text, {("plan", "bogus"): "1"})


def test_keys_of_the_other_kind_are_checked_but_not_echoed():
    for template, key, other in ((DIRICHLET_2D_CFG, "T", "2.5"), (PENDULUM_CFG, "lengths", "2, 3")):
        text = with_key(template, "geometry", key, "abc").format(out="out")
        with pytest.raises(ConfigError, match=f"^line [0-9]+: {key} must be"):
            load_config(text)
        text = with_key(template, "geometry", key, other).format(out="out")
        assert render_config(load_config(text)) == \
            render_config(load_config(template.format(out="out")))


@pytest.mark.parametrize("lengths", ["nan, 1", "1, inf", "0", "1, 2, 3"])
def test_dirichlet_lengths_rule(lengths):
    text = DIRICHLET_2D_CFG.replace("lengths = 1.0, 1.3", f"lengths = {lengths}")
    line = text.splitlines().index(f"lengths = {lengths}") + 1
    with pytest.raises(ConfigError, match=f"^line {line}: lengths must be 1 or 2 positive reals"):
        load_config(text.format(out="out"))


@pytest.mark.parametrize("template", [PENDULUM_CFG, DIRICHLET_2D_CFG],
                         ids=["mechanical", "dirichlet-2d"])
def test_resolved_config_reproduces_an_overridden_run(tmp_path, template):
    cfg, out = write_cfg(tmp_path, template)
    assert main(["solve", "--config", str(cfg), "--seeds", "3", "--seed", "0xBEEF"]) == 0
    out2 = tmp_path / "out2"
    assert main(["solve", "--config", str(out / "resolved.cfg"), "--out", str(out2)]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    second = {p.name: p.read_bytes() for p in out2.iterdir()}
    echo1 = first.pop("resolved.cfg").decode().splitlines()
    echo2 = second.pop("resolved.cfg").decode().splitlines()
    assert [(a, b) for a, b in zip(echo1, echo2) if a != b] == \
        [(f"directory = {out}", f"directory = {out2}")]
    assert len(echo1) == len(echo2)
    assert {"count = 3", "seed = 0xBEEF"} <= set(echo1)
    assert first == second
