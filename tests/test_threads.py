"""One BLAS thread inside finred's numerical entry points (core.single_blas_thread)."""

import logging
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import finred
from finred import cli, core, morse, reduction
from finred.fourier import BoundaryProblem
from finred.functional import blocks_at
from finred.potentials import builtin_potential


def _count(setter) -> int:
    """The count a setter holds, left as it was."""
    count = setter(1)
    setter(count)
    return count


def _counts() -> list[int]:
    return [_count(setter) for setter in core.openblas_setters()]


@pytest.fixture
def setters():
    found = core.openblas_setters()
    if not found:
        pytest.skip("the pin found no OpenBLAS thread setter, so it pins nothing here")
    saved = [setter(1) for setter in found]
    yield found
    for setter, count in zip(reversed(found), reversed(saved)):
        setter(count)


class _Probe(Exception):
    pass


def _probe(seen: list):
    """Stand-in for a callee of an entry point: records the counts, then raises."""
    def probe(*args, **kwargs):
        seen.append(_counts())
        raise _Probe
    return probe


def _entry_points(monkeypatch, probe):
    """Each pinned entry point, called so that its first callee is ``probe``."""
    monkeypatch.setattr(core, "draw_seeds", probe)
    monkeypatch.setattr(morse, "reduced_hessian", probe)
    monkeypatch.setattr(morse, "_jacobi_states", probe)
    plan = SimpleNamespace(N=1)
    cfg = SimpleNamespace(build_plan=probe)
    return {
        "solve_system": lambda: reduction.solve_system(
            SimpleNamespace(n=1), plan, count=1, radius=1.0, seed=0, refine=False,
            with_oracles=False, seed_records=None),
        "index_schur": lambda: morse.index_schur(None),
        "index_full": lambda: morse.index_full(SimpleNamespace(full=probe)),
        "index_jacobi": lambda: morse.index_jacobi(None, None),
        "cmd_solve": lambda: cli.cmd_solve(cfg),
        "cmd_index": lambda: cli.cmd_index(cfg, 0),
    }


@pytest.mark.parametrize("caller", [1, 2])
def test_pin_restores_the_callers_count(setters, caller, monkeypatch):
    for setter in setters:
        setter(caller)
    ones, callers = [1] * len(setters), [caller] * len(setters)

    with core.single_blas_thread:
        assert _counts() == ones
        with core.single_blas_thread:
            assert _counts() == ones
        assert _counts() == ones  # the outer scope still holds
    assert _counts() == callers

    # an exception inside the scope: a tail block below the certified cutoff,
    # which a solve keeps with its seed, so the Schur index raises it
    bp = BoundaryProblem(builtin_potential("pendulum", (50.0,)), 3.0, [0.0], [0.0])
    plan = replace(reduction.make_plan(bp), N=1, certified=False)
    blocks = blocks_at(core.MechanicalSystem(bp, plan.M), plan.N, np.zeros(plan.M))
    with pytest.raises(core.TruncationError):
        morse.index_schur(blocks)
    assert _counts() == callers
    with core.single_blas_thread:
        with pytest.raises(core.TruncationError):
            morse.index_schur(blocks)
        assert _counts() == ones
    assert _counts() == callers

    # every numerical entry point runs inside the pin and restores on the way out
    seen: list = []
    for name, call in _entry_points(monkeypatch, _probe(seen)).items():
        with pytest.raises(_Probe):
            call()
        assert seen.pop() == ones, name
        assert _counts() == callers, name


def test_pin_restores_one_library_seen_twice_in_reverse():
    # numpy and scipy may load the same OpenBLAS: its second setter returns the
    # first one's 1, so only a restore in reverse order ends at the caller's count
    library = {"count": 2}
    calls = []

    def setter(count):
        calls.append(count)
        previous, library["count"] = library["count"], count
        return previous

    pin = core.BlasThreadPin(lambda: (setter, setter))
    with pin:
        assert library["count"] == 1
        with pin:
            assert library["count"] == 1
        assert library["count"] == 1
    assert library["count"] == 2
    assert calls == [1, 1, 1, 2]  # nested scopes set nothing

    with pytest.raises(ZeroDivisionError):
        with pin:
            1 / 0
    assert library["count"] == 2

    @pin
    def pinned():
        return library["count"]

    assert pinned() == 1 and library["count"] == 2


def test_pin_holds_across_threads():
    # pthreads builds of OpenBLAS keep one count per process: while any thread is
    # inside a scope the count is 1, and the last scope to leave restores it
    library = {"count": 2}

    def setter(count):
        time.sleep(0)  # a ctypes call releases the interpreter lock
        previous, library["count"] = library["count"], count
        return previous

    pin = core.BlasThreadPin(lambda: (setter,))
    wrong = []

    def work():
        for _ in range(2000):
            with pin:
                if library["count"] != 1:
                    wrong.append(library["count"])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert library["count"] == 2


def test_pin_logs_its_libraries_once(caplog, monkeypatch):
    core.openblas_setters.cache_clear()
    try:
        with caplog.at_level(logging.DEBUG, logger="finred.core"):
            with core.single_blas_thread:
                pass
            with core.single_blas_thread:
                pass
        (line,) = [r.getMessage() for r in caplog.records if "BLAS thread pin" in r.getMessage()]
        found = len(core.openblas_setters())
        if found:
            assert line == f"single BLAS thread pin holds {found} OpenBLAS libraries"

        caplog.clear()
        core.openblas_setters.cache_clear()
        monkeypatch.setattr(core, "BLAS_HOSTS", ("finred.no_such_module",))
        with caplog.at_level(logging.DEBUG, logger="finred.core"):
            with core.single_blas_thread:
                pass
        assert core.openblas_setters() == ()
        (line,) = [r.getMessage() for r in caplog.records]
        assert line.startswith("single BLAS thread pin found no OpenBLAS thread setter, so "
                               "it does nothing: finred.no_such_module: No module named")
    finally:
        monkeypatch.undo()
        core.openblas_setters.cache_clear()


# ---------------------------------------------------------------------------
# artifacts at 1 and 2 BLAS threads

REFINED_FIELD_CFG = """\
[problem]
kind = dirichlet

[potential]
expr = -{g}*cos(q1)
c_bound = {g}

[geometry]
lengths = 1, 1

[multistart]
count = 4

[output]
directory = {out}
"""

# finred solve, then finred index for each root, through the command-line entry point
RUN_CLI = """\
import sys
from finred.cli import main
for cfg, out in zip(sys.argv[1::2], sys.argv[2::2]):
    assert main(["solve", "--config", cfg]) == 0
    roots = len(open(out + "/solutions.csv").read().splitlines()) - 1
    for i in range(roots):
        main(["index", "--config", cfg, str(i)])
"""

# refined 2-D fields whose artifacts differ between 1 and 2 threads without the pin
FIELD_G = (50, 62)


def _run_at(tmp_path: Path, threads: str, log: str) -> tuple[dict, str, str]:
    args = []
    for g in FIELD_G:
        out = tmp_path / f"threads_{threads}" / f"g{g}"
        cfg = tmp_path / f"g{g}_{threads}.cfg"
        cfg.write_text(REFINED_FIELD_CFG.format(g=g, out=out), encoding="utf-8")
        args += [str(cfg), str(out)]
    env = {**os.environ, "PYTHONPATH": str(Path(finred.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": threads, "FINRED_LOG": log}
    run = subprocess.run([sys.executable, "-c", RUN_CLI, *args], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    root = tmp_path / f"threads_{threads}"
    files = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "resolved.cfg":
                data = b"".join(line for line in data.splitlines(keepends=True)
                                if not line.startswith(b"directory"))
            files[str(path.relative_to(root))] = data
    return files, run.stdout, run.stderr


def test_artifacts_do_not_depend_on_the_thread_count(tmp_path):
    if not core.openblas_setters():
        pytest.skip("the pin found no OpenBLAS thread setter, so the thread count is not pinned")
    one, one_out, _ = _run_at(tmp_path, "1", "warning")
    two, two_out, two_err = _run_at(tmp_path, "2", "debug")
    assert sum(name.endswith("_coeffs.csv") for name in one) >= 2 * len(FIELD_G)
    assert sorted(one) == sorted(two)
    for name in one:
        assert one[name] == two[name], name
    index_lines = [line for line in one_out.splitlines() if line.startswith("schur=")]
    assert len(index_lines) >= 2 * len(FIELD_G)
    assert ([line for line in two_out.splitlines() if line.startswith("schur=")]
            == index_lines)
    # the debug log goes to stderr, once per process, and moved no byte above
    assert two_err.count("single BLAS thread pin holds") == 1
