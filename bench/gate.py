"""Correctness gate applied to every op the benchmark runs.

An op fails when it raised, when a root misses the plan's residual
tolerances, when the Morse indices that were computed for a root
disagree (Schur, full matrix and Jacobi for mechanical roots; the
solve's Schur index and the ``index`` command's Schur and full indices
for Dirichlet roots), or, for the default seed, when the op's roots
differ from ``reference.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")
DEFAULT_SEED = 0
ACTION_RTOL = 1e-9  # relative to max(|reference action|, 1)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}


def reference_key(workload: str, size: str) -> str:
    return f"{workload}/{size}"


def summarize(result: dict) -> dict:
    """What the reference pins down for one op: roots in action order."""
    roots = sorted(result["roots"], key=lambda r: r["action"])
    return {"input": result["input"], "roots": len(roots),
            "index_nullity": sorted([r["index"], r["nullity"]] for r in roots),
            "actions": [r["action"] for r in roots]}


def check_op(result: dict, reference: dict | None = None) -> list[str]:
    """Problems found in one op's result; empty when the op is correct."""
    if result.get("error"):
        return [f"raised {result['error']}"]
    problems = []
    for k, r in enumerate(result["roots"]):
        if not r["head_residual"] <= result["head_tol"]:
            problems.append(f"root {k}: head residual {r['head_residual']:.3e} "
                            f"above {result['head_tol']:.1e}")
        if not r["tail_residual"] <= result["tail_tol"]:
            problems.append(f"root {k}: tail residual {r['tail_residual']:.3e} "
                            f"above {result['tail_tol']:.1e}")
        if len(set(r["indices"].values())) > 1:
            problems.append(f"root {k}: Morse indices disagree {r['indices']}")
    if reference is not None:
        got = summarize(result)
        if got["input"] != reference["input"]:
            problems.append(f"reference is for input {reference['input']}, not {got['input']}")
        elif got["roots"] != reference["roots"]:
            problems.append(f"{got['roots']} roots, reference has {reference['roots']}")
        elif got["index_nullity"] != reference["index_nullity"]:
            problems.append(f"indices/nullities {got['index_nullity']}, "
                            f"reference {reference['index_nullity']}")
        else:
            for a, b in zip(got["actions"], reference["actions"]):
                if abs(a - b) > ACTION_RTOL * max(abs(b), 1.0):
                    problems.append(f"action {a!r} differs from reference {b!r}")
    return problems
