"""Check that traced runs repeat their work counts exactly.

For every workload, runs the traced benchmark twice at SEED and once at
OTHER_SEED.  Fails when a work count (calls, terms, pairs, chars and the
ratios built from them) differs between the two SEED runs, when any run
reports a failed case, or when BENCHMARK.json lists other workloads than
workloads.py defines.

    python3 perfbench/check_counts.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import SPEC
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED, OTHER_SEED = 1, 2
WORK_FIELDS = {
    "calls", "terms_in", "terms_out", "pairs", "chars",
    "reuse", "exact_share", "draws_per_accept", "spans",
}


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    problems = []
    if sorted(w["name"] for w in SPEC["workloads"]) != sorted(WORKLOADS):
        problems.append("workloads in BENCHMARK.json differ from workloads.py")
    for name in sorted(WORKLOADS):
        first, second = traced_run(name, SEED), traced_run(name, SEED)
        other = traced_run(name, OTHER_SEED)
        for label, run in (("first", first), ("second", second), ("other seed", other)):
            if not run["correct"] or run["failed"]:
                problems.append(f"{name}: {label} run failed {run['failed']} of {run['attempted']}")
        work = sorted(k for k in first["metrics"] if k.rpartition(".")[2] in WORK_FIELDS)
        differ = [
            k for k in work if first["metrics"][k]["value"] != second["metrics"][k]["value"]
        ]
        if differ:
            problems.append(f"{name}: counts differ between two runs at seed {SEED}: {differ}")
        print(f"{name}: {len(work)} work counts compared, {len(differ)} differ; "
              f"seed {OTHER_SEED} failed {other['failed']} of {other['attempted']}")
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
