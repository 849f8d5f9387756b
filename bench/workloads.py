"""The three benchmark workloads: inputs from a seed, set-up, and one op.

Each op solves one problem and returns a JSON-ready summary of what the
program reported; ``gate.check_op`` decides whether it is correct.  The
program only ever sees the generated inputs (potential, horizon,
endpoints, config text); the workload seed never reaches finred, so
multistart draws use the library's own default seed.

finred is reached through module attributes (``reduction.solve_reduced``
rather than a name imported once), so that the tracer's rebinding is seen.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
import shutil
from pathlib import Path

# Per size: problems per op set (one op each) and multistart seeds per solve.
SIZES = {
    "pendulum_sweep": {"full": {"problems": 20, "count": 3},
                       "tiny": {"problems": 2, "count": 2}},
    "coupled_chain": {"full": {"problems": 10, "count": 2},
                      "tiny": {"problems": 1, "count": 1}},
    "dirichlet_cli": {"full": {"problems": 6, "count": 4},
                      "tiny": {"problems": 1, "count": 2}},
}

PENDULUM_G = 1.0
PENDULUM_T = 3.0 * math.pi
PENDULUM_QT = (-1.2, 1.2)
CHAIN_PARAMS = (1.0, 0.5)
CHAIN_N = 4
CHAIN_T = 4.0
CHAIN_TWIST = (1.0, 1.0 / 3.0, -1.0 / 3.0, -1.0)  # qT = a * CHAIN_TWIST
CHAIN_A = (-0.3, 0.5)
DIRICHLET_G = (50.0, 62.0)  # head = 3 modes over the whole range on the unit square


def stratified(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """One draw from the middle 80% of each of k equal strata of [lo, hi].

    Strata keep every op set spread over the whole range, so op sets from
    different seeds cost about the same; the margins keep draws off the
    stratum edges (qT = 0 is one, and there the pendulum problem is
    degenerate).
    """
    w = (hi - lo) / k
    return [lo + (i + 0.1 + 0.8 * rng.random()) * w for i in range(k)]


def make_inputs(workload: str, seed: int, size: str) -> list[dict]:
    """Plain-data problem list for one op set; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    k = SIZES[workload][size]["problems"]
    if workload == "pendulum_sweep":
        return [{"qT": qT} for qT in stratified(rng, *PENDULUM_QT, k)]
    if workload == "coupled_chain":
        return [{"qT": [a * x for x in CHAIN_TWIST]} for a in stratified(rng, *CHAIN_A, k)]
    if workload == "dirichlet_cli":
        return [{"g": g} for g in stratified(rng, *DIRICHLET_G, k)]
    raise KeyError(workload)


def root(action, index, nullity, head_residual, tail_residual, **indices) -> dict:
    return {"action": float(action), "index": int(index), "nullity": int(nullity),
            "head_residual": float(head_residual), "tail_residual": float(tail_residual),
            "indices": {k: int(v) for k, v in indices.items() if v is not None}}


# ---------------------------------------------------------------------------
# mechanical workloads: library calls

class MechanicalWorkload:
    """Library-level solves of fixed-endpoint problems from q0 = 0."""

    name = ""
    oracles = False  # Morse cross-checks: full matrix in the solve, then Jacobi per root

    def __init__(self, inputs, size, workdir):
        import numpy as np
        from finred import fourier, reduction
        self.count = SIZES[self.name][size]["count"]
        pot = self.potential()
        self.problems = []
        for p in inputs:
            qT = np.atleast_1d(np.array(p["qT"], dtype=float))
            bp = fourier.BoundaryProblem(pot, self.T, np.zeros(pot.dim), qT)
            self.problems.append((bp, reduction.make_plan(bp)))

    def op(self, i: int) -> dict:
        from finred import morse, reduction
        bp, plan = self.problems[i]
        records: list = []
        sols = reduction.solve_reduced(bp, plan, count=self.count, with_oracles=self.oracles,
                                       seed_records=records)
        roots = []
        for s in sols:
            indices = {"schur": s.index}
            if self.oracles:
                indices["full"] = s.oracle_index
                indices["jacobi"] = morse.index_jacobi(bp, s.path).index
            roots.append(root(s.action, s.index, s.nullity, s.head_residual,
                              s.tail_residual, **indices))
        return {"roots": roots, "seeds": len(records),
                "seeds_converged": sum(1 for r in records if r.converged),
                "head_tol": plan.head_tol, "tail_tol": plan.tail_tol}

    def after_op(self, i: int):
        pass

    def close(self):
        pass


class PendulumSweep(MechanicalWorkload):
    """n = 1 pendulum, Morse oracles on, then the Jacobi oracle on every root."""

    name = "pendulum_sweep"
    oracles = True
    T = PENDULUM_T

    def potential(self):
        from finred import potentials
        return potentials.builtin_potential("pendulum", (PENDULUM_G,))


class CoupledChain(MechanicalWorkload):
    """coupled_pendula(1, 0.5), n = 4: dense curvature assembly and tail solves."""

    name = "coupled_chain"
    T = CHAIN_T

    def potential(self):
        from finred import potentials
        return potentials.builtin_potential("coupled_pendula", CHAIN_PARAMS, dim=CHAIN_N)


# ---------------------------------------------------------------------------
# Dirichlet workload: the command-line front end, in process

DIRICHLET_CONFIG = """\
[problem]
kind = dirichlet

[potential]
expr = -{g!r}*cos(q1)
c_bound = {g!r}

[geometry]
lengths = 1, 1

[multistart]
count = {count}
"""

_INDEX_LINE = re.compile(r"schur=(\d+) full=(\d+) jacobi=n/a (AGREE|DISAGREE)")
_SEED_LINE = re.compile(r"^seed \d+ converged=(true|false)", re.M)


class DirichletCli:
    """2-D Dirichlet pendulum on the unit square through ``finred solve``/``index``."""

    def __init__(self, inputs, size, workdir: Path):
        from finred import config
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        count = SIZES["dirichlet_cli"][size]["count"]
        self.configs = []
        self.tols = []
        for i, p in enumerate(inputs):
            text = DIRICHLET_CONFIG.format(g=p["g"], count=count)
            path = self.workdir / f"problem_{i}.cfg"
            path.write_text(text, encoding="utf-8")
            cfg = config.load_config(text)
            cfg.build_plan()  # parses the expression and plans, as solve will
            self.configs.append(path)
            self.tols.append((cfg.head_tol, cfg.tail_tol))

    def _cli(self, *argv) -> tuple[int, str]:
        from finred import cli
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        return code, out.getvalue()

    def op(self, i: int) -> dict:
        cfg = str(self.configs[i])
        out = self.workdir / f"out_{i}"
        code, _ = self._cli("solve", "--config", cfg, "--out", str(out))
        if code != 0:
            raise RuntimeError(f"finred solve exited with {code}")
        rows = (out / "solutions.csv").read_text(encoding="utf-8").strip().splitlines()[1:]
        roots = []
        for row in rows:
            sid, action, index, nullity, head_res, tail_res, _ = row.split(",")
            code, text = self._cli("index", "--config", cfg, "--out", str(out), str(int(sid)))
            m = _INDEX_LINE.search(text)
            if m is None:
                raise RuntimeError(f"finred index {sid} printed {text!r} (exit {code})")
            roots.append(root(action, index, nullity, head_res, tail_res,
                              solve=int(index), schur=int(m.group(1)),
                              full=int(m.group(2))))
        seeds = _SEED_LINE.findall((out / "convergence.log").read_text(encoding="utf-8"))
        written = sum(f.stat().st_size for f in out.iterdir())
        head_tol, tail_tol = self.tols[i]
        return {"roots": roots, "seeds": len(seeds),
                "seeds_converged": seeds.count("true"),
                "head_tol": head_tol, "tail_tol": tail_tol, "bytes": written}

    def after_op(self, i: int):
        shutil.rmtree(self.workdir / f"out_{i}", ignore_errors=True)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {
    "pendulum_sweep": PendulumSweep,
    "coupled_chain": CoupledChain,
    "dirichlet_cli": DirichletCli,
}
