"""Run-to-run spread of every end-to-end metric, next to its bound.

Usage, from the checkout root::

    python3 perfbench/spread.py --runs 10 --first-seed 1

Runs the benchmark ``--runs`` times on every workload of ``BENCHMARK.json``
for its ``run_seconds`` (seeds ``--first-seed`` onward, one at a time;
another first seed gives a second, independent set), then prints per
workload and metric the median, the interquartile range over the median
(``statistics.quantiles`` with ``n=4``) and the metric's bound from
``BENCHMARK.json``.  A spread at or
above a third of its bound is flagged; ``setup_s`` is exempt from the
spread rule but still listed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench.stats import spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, float]:
    """One benchmark run; its end-to-end metrics by name."""
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if completed.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{completed.stderr}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def report(spec: Dict, results: Dict[str, List[Dict[str, float]]]) -> bool:
    """Print the spread table; whether every bounded spread is below bound/3."""
    steady = True
    for workload, runs in results.items():
        print(f"{workload} ({len(runs)} runs)")
        print(f"  {'metric':<14} {'median':>12} {'spread':>8} {'bound':>6}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [run[name] for run in runs]
            value = spread(values)
            flag = ""
            if name != "setup_s" and value >= bound / 3:
                flag = "  above bound/3"
                steady = False
            print(f"  {name:<14} {statistics.median(values):>12.4f} {value:>8.4f} "
                  f"{bound:>6.3f}{flag}")
    return steady


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    results = {
        workload["name"]: [
            run_once(workload["name"], args.first_seed + index, spec["run_seconds"])
            for index in range(args.runs)
        ]
        for workload in spec["workloads"]
    }
    return 0 if report(spec, results) else 1


if __name__ == "__main__":
    sys.exit(main())
