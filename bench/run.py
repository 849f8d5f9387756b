"""finred benchmark: one workload, closed loop with one client, measured end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]

Every measurement runs in a fresh ``worker.py`` subprocess.  With
``--trace 0`` one worker solves op sets until ``--seconds`` have passed
and four more workers only set up, for the set-up time; the end-to-end
metrics are printed.  With ``--trace 1`` one worker alternates untraced and
traced op sets until ``--seconds`` have passed, and the per-layer metrics
of the traced op sets are printed, with the tracing overhead between the
two kinds.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The line before it, starting ``report:``, carries the run environment,
the bases of every ratio and per-op details.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("pendulum_sweep", "coupled_chain", "dirichlet_cli")
SETUP_PROBES = 4  # set-up only workers, besides the measuring one
DEADLINE_S = 170.0  # every run ends within 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "solve_s_p50": "s",
    "peak_rss_mb": "MB",
    "roots_found": "count",
    "seeds_converged_frac": "frac",
    "ok_frac": "frac",
}

# span name -> per-layer metric prefix; self time and call counts per op set
SELF_TIMED = (
    "core.residual", "core.curvature", "core.tail", "core.newton", "core.schur",
    "fourier.dst", "potentials.grad", "potentials.hess", "potentials.parse",
    "reduction.solve", "reduction.refine", "morse.schur", "morse.full", "morse.jacobi",
    "dirichlet.plan", "dirichlet.enumerate_modes", "dirichlet.residual",
    "dirichlet.curvature", "dirichlet.refine", "dirichlet.solve", "functional.action",
    "cli.main", "cli.solve", "cli.index",
)
COUNTED = {
    "core.residual.calls": "core.residual", "core.curvature.calls": "core.curvature",
    "core.tail.calls": "core.tail", "core.newton.seeds": "core.newton",
    "core.schur.calls": "core.schur", "fourier.dst.calls": "fourier.dst",
    "fourier.affine_coeffs.calls": "fourier.affine_coeffs",
    "reduction.refine.newton_calls": "reduction.refine",
    "morse.jacobi.calls": "morse.jacobi",
    "dirichlet.residual.calls": "dirichlet.residual",
    "dirichlet.curvature.calls": "dirichlet.curvature",
    "dirichlet.refine.newton_calls": "dirichlet.refine",
    "functional.action.calls": "functional.action",
}
ATTR_COUNTS = (
    "core.tail.iterations", "core.tail.fallbacks", "core.newton.converged",
    "core.newton.iterations", "core.newton.halvings", "core.newton.stalls",
    "potentials.grad.points", "potentials.hess.points",
)
SETUP_SPANS = {  # metric -> span name, total time during set-up
    "potentials.parse.s": "potentials.parse", "reduction.plan.s": "reduction.plan",
    "dirichlet.plan.s": "dirichlet.plan", "config.load.s": "config.load",
}


def per_layer_units() -> dict:
    units = {f"{name}.self_s": "s" for name in SELF_TIMED}
    units.update({name: "count" for name in COUNTED})
    units.update({name: "count" for name in ATTR_COUNTS})
    units.update({name: "s" for name in SETUP_SPANS})
    units.update({
        "core.dedup.roots_per_converged_seed": "ratio",
        "morse.agree_frac": "frac",
        "cli.write.bytes": "bytes",
        "bench.self_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.traced_wall_s": "s",
        "trace.overhead_frac": "frac",
        "trace.coverage_frac": "frac",
    })
    return units


class WorkerError(RuntimeError):
    pass


def worker(args, seconds: float, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--size", args.size, *extra]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {' '.join(extra)} did not finish in time")
    if proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(extra)} exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready_at"] - spawned
    return out


def op_stats(run: dict) -> dict:
    ops = [op for ops in run["rounds"] for op in ops]
    first = run["rounds"][0]
    checked = [ix for op in first for ix in op["indices"] if len(ix) > 1]
    return {
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op["problems"]),
        "round_wall": [sum(op["seconds"] for op in ops) for ops in run["rounds"]],
        # each op's median over rounds, summed: one op set's wall time, robust to
        # bursts of host slowness shorter than a round
        "op_set_wall": sum(median(ops[i]["seconds"] for ops in run["rounds"])
                           for i in range(len(first))),
        "op_seconds": [op["seconds"] for op in ops],
        "roots": sum(op["roots"] for op in first),
        "seeds": sum(op["seeds"] for op in first),
        "seeds_converged": sum(op["seeds_converged"] for op in first),
        "bytes": sum(op["bytes"] for op in first),
        "index_checked": len(checked),
        "index_agree": sum(1 for ix in checked if len(set(ix.values())) == 1),
        "problems": [p for op in ops for p in op["problems"]][:20],
    }


def end_to_end(run: dict, setups: list[float]) -> tuple[dict, dict]:
    st = op_stats(run)
    values = {
        "setup_s": median(setups),
        "wall_s": st["op_set_wall"],
        "solve_s_p50": median(st["op_seconds"]),
        "peak_rss_mb": run["peak_rss_mb"],
        "roots_found": st["roots"],
        "seeds_converged_frac": st["seeds_converged"] / max(st["seeds"], 1),
        "ok_frac": (st["attempted"] - st["failed"]) / st["attempted"],
    }
    return values, st


def per_layer(run: dict) -> tuple[dict, dict]:
    rounds = run["trace_rounds"]
    first = rounds[0]
    setup = run["trace_setup"]
    st = op_stats({"rounds": run["traced_rounds"]})
    values = {}
    for name in SELF_TIMED:
        values[f"{name}.self_s"] = median(r["self_s"].get(name, 0.0) for r in rounds)
    for metric, name in COUNTED.items():
        values[metric] = first["calls"].get(name, 0)
    for key in ATTR_COUNTS:
        values[key] = first["attrs"].get(key, 0)
    for metric, name in SETUP_SPANS.items():
        values[metric] = setup["total_s"].get(name, 0.0)
    kept = first["attrs"].get("core.dedup.kept", 0)
    converged = first["attrs"].get("core.dedup.converged", 0)
    values["core.dedup.roots_per_converged_seed"] = kept / converged if converged else 0.0
    values["morse.agree_frac"] = (st["index_agree"] / st["index_checked"]
                                  if st["index_checked"] else 1.0)
    values["cli.write.bytes"] = st["bytes"]
    values["bench.self_s"] = median(
        sum(v for k, v in r["self_s"].items() if k.startswith("bench.")) for r in rounds)
    # share of each traced op set's time inside finred's layers; the rest is
    # the benchmark's own loop and gate
    layer_share = median(
        sum(v for k, v in r["self_s"].items() if not k.startswith("bench.")) / wall
        for r, wall in zip(rounds, st["round_wall"]))
    untraced = op_stats(run)["op_set_wall"]
    values["trace.untraced_wall_s"] = untraced
    values["trace.traced_wall_s"] = st["op_set_wall"]
    values["trace.overhead_frac"] = values["trace.traced_wall_s"] / untraced - 1.0
    values["trace.coverage_frac"] = layer_share
    st.update(converged_seeds=converged, spans_file=run["spans_file"])
    return values, st


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="finred benchmark, one workload per run")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "finred" / "__init__.py").is_file():
        print(f"error: no finred source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    load_1min = os.getloadavg()[0]

    try:
        if args.trace == 0:
            run = worker(args, args.seconds, deadline)
            setups = [run["setup_s"]]
            for _ in range(SETUP_PROBES):
                setups.append(worker(args, 0, deadline, "--setup-only")["setup_s"])
            values, st = end_to_end(run, setups)
            units = END_TO_END
            st["setup_samples"] = setups
        else:
            run = worker(args, args.seconds, deadline, "--trace")
            values, st = per_layer(run)
            units = per_layer_units()
    except (WorkerError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ops = [op for ops in run["rounds"] + run.get("traced_rounds", []) for op in ops]
    attempted = len(ops)
    failed = sum(1 for op in ops if op["problems"])
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "size": args.size, "trace": args.trace, "load_1min": load_1min,
        "env": run["env"], "inputs": run["inputs"],
        "rounds": len(run["rounds"]), "ops_per_round": len(run["rounds"][0]),
        "failed_frac": failed / attempted, **st,
    }
    print("report: " + json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
