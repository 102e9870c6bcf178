#!/usr/bin/env python3
"""Compact a pytest-benchmark JSON file into the committed-baseline format.

Raw ``--benchmark-json`` output stores every per-round timing sample plus
full machine/commit metadata -- ~20k lines for the benchmark suite, almost
all of it noise for the regression gate, which compares medians and checks
each gate against the recorded interquartile range.  This tool strips a run
down to per-benchmark summary statistics::

    {
      "format": "bench-baseline-compact/1",
      "datetime": "...",
      "machine": {"cpu": "...", "cpu_count": 1, "python": "3.11.7"},
      "benchmarks": {
        "test_bench_sweep_grid_cached": {
          "group": "sweep",
          "mean": 0.0123, "median": 0.0121, "iqr": 0.0003,
          "stddev": 0.0004, "min": 0.0119, "max": 0.0182, "rounds": 57
        },
        ...
      }
    }

``tools/check_bench_regression.py`` reads both this format and the raw one.

Usage::

    PYTHONPATH=src python -m pytest benchmarks -q \
        --benchmark-json /tmp/BENCH_full.json
    python tools/compact_bench_baseline.py /tmp/BENCH_full.json \
        -o benchmarks/baseline/BENCH_sweep.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: The summary statistics kept per benchmark, in output order.
SUMMARY_STATS = ("mean", "median", "iqr", "stddev", "min", "max", "rounds")

FORMAT_TAG = "bench-baseline-compact/1"


def compact(payload: dict) -> dict:
    """Reduce a raw pytest-benchmark payload to the compact baseline form."""
    entries = payload.get("benchmarks")
    if isinstance(entries, dict):  # already compact -- pass through
        return payload
    if not entries:
        raise SystemExit("error: no benchmarks in the input JSON")
    machine = payload.get("machine_info", {})
    benchmarks = {}
    for entry in sorted(entries, key=lambda e: e.get("name", "")):
        name = entry.get("name")
        stats = entry.get("stats", {})
        if not isinstance(name, str) or not isinstance(stats, dict):
            continue
        benchmarks[name] = {"group": entry.get("group")}
        benchmarks[name].update(
            {key: stats[key] for key in SUMMARY_STATS if key in stats}
        )
    return {
        "format": FORMAT_TAG,
        "datetime": payload.get("datetime"),
        "machine": {
            "cpu": machine.get("cpu", {}).get("brand_raw"),
            "cpu_count": machine.get("cpu", {}).get("count"),
            "python": machine.get("python_version"),
        },
        "benchmarks": benchmarks,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("input", type=Path, help="raw --benchmark-json output")
    parser.add_argument(
        "-o",
        "--output",
        type=Path,
        default=Path("benchmarks/baseline/BENCH_sweep.json"),
        help="compact baseline to write (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    try:
        payload = json.loads(args.input.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        raise SystemExit(f"error: cannot read {args.input}: {error}")
    compacted = compact(payload)
    args.output.write_text(
        json.dumps(compacted, indent=1, sort_keys=False) + "\n", encoding="utf-8"
    )
    print(
        f"wrote {args.output}: {len(compacted['benchmarks'])} benchmarks",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
