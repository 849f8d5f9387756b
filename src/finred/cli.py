"""Command-line front end: plan, solve, index, weyl.

Input is a sectioned key=value config file (see config module and README);
outputs are CSV artifacts plus a convergence log and a resolved-config
echo, all byte-deterministic for a fixed config and seed.  Verbosity is
controlled by the FINRED_LOG environment variable (debug|info|warning).

Each command takes one path for both problem kinds; only the solver and
the per-solution writers depend on the kind.  ``index`` rebuilds the
solved level as the solve built it, the plan's system refined until it
holds the artifact's coefficients, and counts the Morse index there.
"""

from __future__ import annotations

import argparse
import itertools
import logging
import math
import os
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, load_config, render_config
from .core import MechanicalSystem, TruncationError, single_blas_thread
from .dirichlet import DirichletSystem, solve_dirichlet, weyl_estimate
from .fourier import BoundaryProblem, SinePath, affine_embed
from .functional import blocks_at
from .morse import index_full, index_jacobi, index_schur
from .reduction import fixed_point_cutoff, solve_reduced

log = logging.getLogger(__name__)

FLOAT_FMT = ".16e"  # 17 significant digits


def _fmt(x: float) -> str:
    return format(float(x), FLOAT_FMT)


# ---------------------------------------------------------------------------
# plan

def cmd_plan(cfg: RunConfig) -> int:
    plan = cfg.build_plan()
    mechanical = cfg.kind == "mechanical"
    lines = [f"kind = {cfg.kind}", f"N = {plan.N}", f"mu = {plan.mu:.10g}",
             f"kappa = {plan.contraction:.10g}"]
    if mechanical:
        lines += [f"M = {plan.M}", f"quad_points = {plan.quad_points}",
                  f"fixedpoint_N = {fixed_point_cutoff(max(1.0, plan.c_bound), cfg.T)}"]
    else:
        lines += [f"modes = {len(plan.modes)}", f"lambda_cut = {plan.lambda_cut:.10g}"]
    lines += [f"dim_U = {plan.N * cfg.dim}", f"certified = {str(plan.certified).lower()}"]
    if plan.N == 0:
        lines.append("note: reduced system is empty; " + (
            "the straight line is the unique solution candidate" if mechanical
            else "the tail contraction solves the whole problem"))
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# solve

def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")
    log.info("wrote %s", path)


def _csv(header: str, columns) -> str:
    """One row per entry of the columns: floats with FLOAT_FMT, the rest as they are."""
    columns = [np.asarray(col) for col in columns]
    row = ",".join("{:" + FLOAT_FMT + "}" if col.dtype.kind == "f" else "{}"
                   for col in columns).format
    rows = [header] + [row(*values) for values in zip(*(col.tolist() for col in columns))]
    return "\n".join(rows) + "\n"


def _solutions_csv(reports) -> str:
    rows = [(f"{i:03d}", rep.action, rep.index, rep.nullity, rep.head_residual,
             rep.tail_residual, str(rep.certified).lower()) for i, rep in enumerate(reports)]
    return _csv("id,action,index,nullity,head_residual,tail_residual,certified", zip(*rows))


def _trajectory_csv(bp, rep, points: int) -> str:
    ts = np.linspace(0.0, bp.T, points)
    gamma = affine_embed(bp, rep.path, ts)
    return _csv("t," + ",".join(f"gamma_{j + 1}" for j in range(bp.n)), [ts, *gamma.T])


def _path_coeffs_csv(rep) -> str:
    path = rep.path
    return _csv("k," + ",".join(f"c_{j + 1}" for j in range(path.n)),
                [np.arange(1, path.M + 1), *path.coeffs.T])


def _field_csv(rep, points: int) -> str:
    """The field on the grid of `points` per axis, the last axis fastest: the
    values from the field's per-axis sine tables (``DirichletField.on_grid``),
    each coordinate formatted once per axis, the values by one "%.16e"
    template (the bytes of FLOAT_FMT, nan and inf included)."""
    dom = rep.field.domain
    axes = [np.linspace(0.0, L, points) for L in dom.lengths]
    values = rep.field.on_grid(axes).ravel()
    coords = [[_fmt(x) + "," for x in axis.tolist()] for axis in axes]
    items = [None] * (2 * values.size)
    items[0::2] = map("".join, itertools.product(*coords))
    items[1::2] = values.tolist()
    header = "x,phi\n" if dom.m == 1 else "x,y,phi\n"
    return header + ("%s%.16e\n" * values.size) % tuple(items)


def _field_coeffs_csv(rep) -> str:
    field = rep.field
    indices = np.array([em.indices for em in field.modes])
    return _csv("".join(f"k{axis + 1}," for axis in range(field.domain.m)) + "lambda,coeff",
                [*indices.T, [em.lam for em in field.modes], field.coeffs])


def _convergence_log(reports, seed_records) -> str:
    lines = ["# per-seed solves (seed order)"]
    for i, res in enumerate(seed_records):
        lines.append(
            f"seed {i:03d} converged={str(res.converged).lower()} "
            f"newton_iterations={res.iterations} tail_iterations={res.tail_iterations} "
            f"head_residual={_fmt(res.head_residual)} tail_residual={_fmt(res.tail_residual)}"
            + (f" tail_min_eigenvalue={_fmt(res.tail_min_eigenvalue)}"
               if res.tail_min_eigenvalue is not None else "")
            + (f" reason={res.reason}" if res.reason else ""))
        if res.head_history:
            lines.append("  head_residual_history: " + " ".join(_fmt(r) for r in res.head_history))
    lines.append("# deduplicated solutions (sorted by action)")
    for i, rep in enumerate(reports):
        lines.append(
            f"solution {i:03d} seed={rep.seed_index} converged={str(rep.converged).lower()} "
            f"newton_iterations={rep.newton_iterations} tail_iterations={rep.tail_iterations} "
            f"head_residual={_fmt(rep.head_residual)} tail_residual={_fmt(rep.tail_residual)}"
            + (f" truncation_drift={_fmt(rep.truncation_drift)}" if rep.truncation_drift is not None else ""))
    return "\n".join(lines) + "\n"


@single_blas_thread
def cmd_solve(cfg: RunConfig) -> int:
    plan = cfg.build_plan()
    seed_records: list = []
    options = dict(count=cfg.count, radius=cfg.radius, seed=cfg.seed, method=cfg.method,
                   refine=cfg.refine, seed_records=seed_records)
    if cfg.kind == "mechanical":
        bp = cfg.boundary_problem()
        cfg.N, cfg.M, cfg.quad_points = plan.N, plan.M, plan.quad_points
        reports = solve_reduced(bp, plan, **options)
        writers = {"trajectory": lambda rep: _trajectory_csv(bp, rep, cfg.trajectory_points),
                   "coeffs": _path_coeffs_csv}
    else:
        cfg.N, cfg.lambda_cut = plan.N, plan.lambda_cut
        reports = solve_dirichlet(cfg.domain(), cfg.potential(), plan, **options)
        writers = {"field": lambda rep: _field_csv(rep, cfg.field_points),
                   "coeffs": _field_coeffs_csv}

    out = Path(cfg.directory)
    out.mkdir(parents=True, exist_ok=True)
    _write(out / "solutions.csv", _solutions_csv(reports))
    for i, rep in enumerate(reports):
        for name, csv in writers.items():
            _write(out / f"solution_{i:03d}_{name}.csv", csv(rep))
    _write(out / "convergence.log", _convergence_log(reports, seed_records))
    _write(out / "resolved.cfg", render_config(cfg))

    converged = sum(1 for r in reports if r.converged)
    print(f"{converged} solution(s) converged; artifacts in {out}")
    return 0 if converged >= 1 else 2


# ---------------------------------------------------------------------------
# index

@single_blas_thread
def cmd_index(cfg: RunConfig, solution_id: int) -> int:
    plan = cfg.build_plan()
    if cfg.kind == "mechanical":
        bp = cfg.boundary_problem()
        system = MechanicalSystem(bp, plan.M, plan.quad_points)
    else:
        dom = cfg.domain()
        system = DirichletSystem(dom, cfg.potential(), plan)
        # a 1-D field is the n = 1 path with zero endpoints; a 2-D one has no time to shoot along
        bp = BoundaryProblem(system.potential, dom.lengths[0], [0.0], [0.0]) if dom.m == 1 else None

    coeff_file = Path(cfg.directory) / f"solution_{solution_id:03d}_coeffs.csv"
    if not coeff_file.exists():
        print(f"error: missing artifact {coeff_file}; run 'solve' first", file=sys.stderr)
        return 1
    rows = coeff_file.read_text(encoding="utf-8").strip().splitlines()[1:]
    first = 1 if cfg.kind == "mechanical" else -1  # a path's c_1..c_n, a field's coeff
    coeffs = np.array([float(v) for row in rows for v in row.split(",")[first:]])
    while len(system.eigenvalues) < len(coeffs):
        system = system.refined()
    if len(system.eigenvalues) != len(coeffs):
        print(f"error: artifact {coeff_file} has {len(coeffs)} coefficients, and no "
              f"refinement level of the config has that many", file=sys.stderr)
        return 1
    blocks = blocks_at(system, plan.N * system.n, coeffs)
    # frees the grid's (D, D) gather index pairs before the signatures are
    # computed; the shared cosine rows stay in their bounded cache
    del system

    schur = index_schur(blocks)
    full = index_full(blocks)
    jacobi = None if bp is None else index_jacobi(bp, SinePath(bp.T, coeffs.reshape(-1, bp.n)))
    agree = len({schur.index, full.index} | ({jacobi.index} if jacobi is not None else set())) == 1
    print(f"schur={schur.index} full={full.index} "
          f"jacobi={'n/a' if jacobi is None else jacobi.index} "
          f"{'AGREE' if agree else 'DISAGREE'}")
    if schur.nullity or full.nullity:
        print(f"nullity: schur={schur.nullity} full={full.nullity} (degenerate solution)")
    if jacobi is not None and jacobi.nullity:
        print(f"warning: variation matrix nearly singular at the right endpoint "
              f"(margin {jacobi.min_abs_eigenvalue:.3e})")
    return 0 if agree else 1


# ---------------------------------------------------------------------------
# weyl

def cmd_weyl(cfg: RunConfig, c_values: list[float]) -> int:
    dom = cfg.domain() if cfg.kind == "dirichlet" else None
    if dom is None:
        print("error: the weyl command needs a dirichlet config", file=sys.stderr)
        return 1
    print("C,exact_count,weyl_count,relative_error")
    for C in c_values:
        exact, weyl, rel = weyl_estimate(dom, C)
        print(f"{C:g},{exact},{_fmt(weyl)},{_fmt(rel) if math.isfinite(rel) else 'inf'}")
    return 0


# ---------------------------------------------------------------------------
# entry point

@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it as it is)."""
    parser = argparse.ArgumentParser(
        prog="finred",
        description="Stationary paths and fields by exact finite-dimensional reduction, "
                    "with certified Morse indices.",
        epilog="Set FINRED_LOG=debug|info|warning for log verbosity.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # each command declares the flags it reads, and only those
    p_plan = sub.add_parser("plan", help="print the certified reduction parameters")
    p_solve = sub.add_parser("solve", help="run the solver and write CSV artifacts")
    p_index = sub.add_parser("index", help="cross-check Morse indices of a stored solution")
    p_weyl = sub.add_parser("weyl", help="print the eigenvalue-count table")
    for p in (p_plan, p_solve, p_index, p_weyl):
        p.add_argument("--config", required=True, help="path to the config file")
    for p in (p_solve, p_index):
        p.add_argument("--out", help="override [output] directory")
    p_solve.add_argument("--seeds", help="override [multistart] count")
    p_solve.add_argument("--seed", help="override [multistart] seed (accepts hex, e.g. 0xAC21)")
    p_solve.add_argument("--method", choices=("newton", "picard"), help="override tail solver")
    p_index.add_argument("solution_id", type=int, help="solution id from solutions.csv")
    p_weyl.add_argument("--c-values", default="100,1000,10000",
                        help="comma-separated thresholds (default 100,1000,10000)")
    return parser


def main(argv=None) -> int:
    level = {"debug": logging.DEBUG, "info": logging.INFO}.get(
        os.environ.get("FINRED_LOG", "").lower(), logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")

    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        flags = {("output", "directory"): "out", ("multistart", "count"): "seeds",
                 ("multistart", "seed"): "seed", ("multistart", "method"): "method"}
        given = vars(args)  # only the flags of the parsed command
        cfg = load_config(Path(args.config).read_text(encoding="utf-8"),
                          {key: given[flag] for key, flag in flags.items()
                           if given.get(flag) is not None})

        if args.command == "plan":
            return cmd_plan(cfg)
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "index":
            return cmd_index(cfg, args.solution_id)
        return cmd_weyl(cfg, [float(v) for v in args.c_values.split(",")])
    except (ConfigError, ValueError, OSError, TruncationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a plan under the mode cap can still outgrow memory
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
