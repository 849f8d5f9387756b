"""One benchmark process: set up a workload, then run op sets until time is up.

Started by ``run.py`` in a fresh interpreter, so its set-up time and peak
memory belong to this workload alone.  It imports finred from the
checkout's ``src`` directory, never from an installed copy, and prints one
JSON object as the last line of its standard output.

    python3 bench/worker.py --workload NAME --seed N --seconds S
                            [--size full|tiny] [--trace] [--setup-only]

With ``--trace`` it alternates untraced and traced op sets, so that the
tracing overhead is measured under the same host conditions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN_DIR = ROOT / ".bench_run"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_finred():
    sys.path.insert(0, str(ROOT / "src"))
    import finred
    if Path(finred.__file__).resolve().parent != ROOT / "src" / "finred":
        raise ImportError(f"finred imported from {finred.__file__}, not from {ROOT / 'src'}")
    return finred


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ.get(v, "default") for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_round(workload, inputs, reference, tracer=None) -> list[dict]:
    """Every op of the op set once, each timed and checked; a failed op never stops it."""
    from gate import check_op
    span = tracer.span if tracer else (lambda name: nullcontext())
    ops = []
    for i in range(len(inputs)):
        if tracer:
            tracer.op = i
        t0 = time.perf_counter()
        with span("bench.op"):
            try:
                result = workload.op(i)
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                result = {"error": f"{type(exc).__name__}: {exc}", "roots": [],
                          "seeds": 0, "seeds_converged": 0}
            result["input"] = inputs[i]
            with span("bench.check"):
                problems = check_op(result, reference[i] if reference else None)
        seconds = time.perf_counter() - t0
        workload.after_op(i)
        ops.append({"seconds": seconds, "result": result, "problems": problems})
    return ops


def op_records(rounds: list[list[dict]]) -> list[list[dict]]:
    return [[{"seconds": op["seconds"], "problems": op["problems"],
              "roots": len(op["result"]["roots"]),
              "seeds": op["result"]["seeds"],
              "seeds_converged": op["result"]["seeds_converged"],
              "bytes": op["result"].get("bytes", 0),
              "indices": [r["indices"] for r in op["result"]["roots"]]}
             for op in ops] for ops in rounds]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--trace", action="store_true",
                        help="alternate untraced and traced op sets")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_finred()
    from gate import DEFAULT_SEED, load_reference, reference_key
    from spans import Tracer, round_summary
    from workloads import WORKLOADS, make_inputs

    inputs = make_inputs(args.workload, args.seed, args.size)
    # a relative path of fixed length: the CLI echoes the output directory into
    # its artifacts, whose sizes are work counts that must repeat exactly
    os.chdir(ROOT)
    workdir = RUN_DIR.relative_to(ROOT) / f"{args.workload}-{os.getpid():07d}"
    workload = WORKLOADS[args.workload](inputs, args.size, workdir)
    ready_at = time.monotonic()
    if args.setup_only:
        workload.close()
        print(json.dumps({"ready_at": ready_at}))
        return 0

    tracer = traced = None
    if args.trace:
        # a second copy of the workload, set up under the tracer (its potentials
        # carry traced V' and V''); tracing is installed only around its op sets
        tracer = Tracer()
        tracer.install()
        with tracer.span("bench.setup"):
            traced = WORKLOADS[args.workload](inputs, args.size, workdir.with_name(
                workdir.name + "-traced"))
        tracer.uninstall()

    reference = None
    if args.seed == DEFAULT_SEED:
        reference = load_reference().get(reference_key(args.workload, args.size), [])
        # ops without a reference entry fail the gate
        reference += [{"input": None}] * (len(inputs) - len(reference))

    rounds, traced_rounds = [], []
    start = time.perf_counter()
    try:
        while not rounds or time.perf_counter() - start < args.seconds:
            if not tracer:
                rounds.append(run_round(workload, inputs, reference))
                continue
            # untraced and traced op sets alternate, in alternating order, so that
            # neither the host's drift nor warm-up enters the overhead estimate
            for kind in (("plain", "traced") if len(rounds) % 2 == 0 else ("traced", "plain")):
                if kind == "plain":
                    rounds.append(run_round(workload, inputs, reference))
                    continue
                tracer.round = len(traced_rounds)
                tracer.install()
                try:
                    traced_rounds.append(run_round(traced, inputs, reference, tracer))
                finally:
                    tracer.uninstall()
    finally:
        workload.close()
        if traced:
            traced.close()

    out = {
        "ready_at": ready_at,
        "inputs": inputs,
        "rounds": op_records(rounds),
        "results": [op["result"] for op in rounds[0]],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer:
        out["traced_rounds"] = op_records(traced_rounds)
        out["trace_setup"] = round_summary(tracer.spans, -1)
        out["trace_rounds"] = [round_summary(tracer.spans, r) for r in range(len(traced_rounds))]
        spans_dir = RUN_DIR / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        out["spans_file"] = str(spans_dir / f"{args.workload}-{args.size}-seed{args.seed}.jsonl.gz")
        tracer.write(out["spans_file"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
