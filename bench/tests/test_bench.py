"""Tests of the benchmark itself (not collected by the repository's tier-1 run).

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from gate import check_op, summarize  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180)
    return proc


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_twice():
    return {w: [last_json(run_bench(w, 1)) for _ in range(2)] for w in WORKLOADS}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_end_to_end(workload):
    out = last_json(run_bench(workload, 0))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_per_layer(workload, traced_twice):
    out = traced_twice[workload][0]
    assert out["correct"] and out["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_work_counts_repeat_exactly(workload, traced_twice):
    first, second = (o["metrics"] for o in traced_twice[workload])
    counts = {k for k, v in first.items() if v["unit"] in ("count", "bytes")}
    assert counts
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}
    residuals = first["core.residual.calls"]["value"] + first["dirichlet.residual.calls"]["value"]
    assert residuals > 0 and first["fourier.dst.calls"]["value"] > 0


def test_inputs_depend_only_on_seed():
    for w in WORKLOADS:
        assert make_inputs(w, 3, "full") == make_inputs(w, 3, "full")
        assert make_inputs(w, 3, "full") != make_inputs(w, 4, "full")


def sample_result() -> dict:
    return {"input": {"qT": 0.5}, "head_tol": 1e-9, "tail_tol": 1e-10, "seeds": 4,
            "seeds_converged": 4,
            "roots": [{"action": 8.25, "index": 2, "nullity": 0, "head_residual": 1e-14,
                       "tail_residual": 1e-16,
                       "indices": {"schur": 2, "full": 2, "jacobi": 2}}]}


def test_gate_passes_a_matching_result():
    result = sample_result()
    assert check_op(result, summarize(result)) == []


@pytest.mark.parametrize("perturb", [
    lambda r: r["roots"][0].update(action=r["roots"][0]["action"] * (1 + 1e-6)),
    lambda r: r["roots"][0].update(head_residual=2e-9),
    lambda r: r["roots"][0].update(tail_residual=2e-10),
    lambda r: r["roots"][0]["indices"].update(jacobi=3),
    lambda r: r["roots"].append(copy.deepcopy(r["roots"][0])),
    lambda r: r["roots"][0].update(nullity=1),
    lambda r: r.update(error="TruncationError: tail curvature block is not positive definite"),
], ids=["action", "head_residual", "tail_residual", "index", "root_count", "nullity", "raised"])
def test_gate_trips_on_perturbed_result(perturb):
    result = sample_result()
    reference = summarize(result)
    perturb(result)
    assert check_op(result, reference)


def test_gate_trips_on_live_result_with_shifted_action():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", "pendulum_sweep",
         "--seed", "0", "--seconds", "0", "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])["results"][0]
    reference = summarize(result)
    assert check_op(result, reference) == []
    result["roots"][0]["action"] += 1e-6 * max(abs(result["roots"][0]["action"]), 1.0)
    assert any("action" in p for p in check_op(result, reference))


def test_refuses_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("pendulum_sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
