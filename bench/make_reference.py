"""Write reference.json: the default seed's roots for every workload and size.

    python3 bench/make_reference.py

Run it only when a change is meant to alter the solutions (and say so);
the gate compares every default-seed op against this file.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from gate import DEFAULT_SEED, REFERENCE, reference_key, summarize
from workloads import SIZES

BENCH = Path(__file__).resolve().parent


def main() -> int:
    reference = {}
    for workload, sizes in SIZES.items():
        for size in sizes:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
                 "--seed", str(DEFAULT_SEED), "--seconds", "0", "--size", size],
                cwd=BENCH.parent, stdout=subprocess.PIPE, text=True, check=True)
            results = json.loads(proc.stdout.strip().splitlines()[-1])["results"]
            errors = [r["error"] for r in results if r.get("error")]
            if errors:
                raise SystemExit(f"{workload}/{size}: ops raised {errors}")
            reference[reference_key(workload, size)] = [summarize(r) for r in results]
            print(f"{workload}/{size}: {[len(r['roots']) for r in results]} roots per op")
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
