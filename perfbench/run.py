"""Run one benchmark workload against the program in this checkout.

Usage, from the checkout root::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 30 --trace 0

The workloads, metric names, units and bounds are those of
``BENCHMARK.json``.  The program is imported from ``src/`` of the checkout
that holds this file.  The run prints a report (every metric with its unit
and sample count), then, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
End-to-end times are scaled to the reference host speed of
:mod:`perfbench.hostspeed`; the report also prints them as measured
(``wall.*``).  It exits 1 if any output was wrong and 2 if the program
cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench.stats import percentile  # noqa: E402 - needs the root on the path

WORKLOADS = ("sweep-cold", "simulate-cold", "serve-mixed")


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(outcome) -> Dict[str, float]:
    """The end-to-end metrics of one run (failed ops read as infinite)."""
    op_ms = [seconds * 1e3 for seconds in outcome.op_s]
    return {
        "setup_s": _median([sample["total_s"] for sample in outcome.setup]),
        "op_ms_p50": percentile(op_ms, 50),
        "op_ms_p90": percentile(op_ms, 90),
        "units_per_s": _median(outcome.rates),
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def wall_clock(outcome) -> Dict[str, float]:
    """The timings as measured, before scaling to the reference host speed,
    and the median host-speed factor that scaled them."""
    op_ms = [seconds * 1e3 for seconds in outcome.wall_op_s]
    return {
        "wall.setup_s": _median([sample["wall_s"] for sample in outcome.setup]),
        "wall.op_ms_p50": percentile(op_ms, 50),
        "wall.op_ms_p90": percentile(op_ms, 90),
        "host_speed_factor": _median(outcome.host_factors),
    }


def sample_counts(outcome) -> Dict[str, int]:
    """How many samples each end-to-end metric of ``outcome`` rests on."""
    return {
        "setup_s": len(outcome.setup),
        "op_ms_p50": len(outcome.op_s),
        "op_ms_p90": len(outcome.op_s),
        "units_per_s": len(outcome.rates),
        "peak_rss_mb": 1,
    }


def per_layer(outcome, names: List[str], serve: bool) -> Dict[str, float]:
    """Every per-layer metric named in ``BENCHMARK.json``; 0 where a layer
    does not run in this workload."""
    computed = dict(outcome.layers)
    for phase in ("import", "engine", "calibrate"):
        computed[f"setup.{phase}_ms"] = _median(
            [sample[f"{phase}_ms"] for sample in outcome.setup_split]
        )
    if serve:
        computed["setup.server_ready_ms"] = 1e3 * _median(
            [sample["wall_s"] for sample in outcome.setup]
        )
    computed["obs.overhead_ratio"] = _median(outcome.traced_op_s) / _median(outcome.op_s)
    unknown = sorted(set(computed) - set(names))
    if unknown:
        raise KeyError(f"layers missing from BENCHMARK.json: {', '.join(unknown)}")
    return {name: float(computed.get(name, 0.0)) for name in names}


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is not at {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(src))
    from perfbench import workloads

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    ctx = workloads.Context(root=ROOT, work=work, env=env)
    try:
        if args.workload == "serve-mixed":
            outcome = workloads.run_serve_mixed(ctx, args.seed, args.seconds, bool(args.trace))
        else:
            outcome = workloads.run_closed_loop(
                ctx, args.workload, args.seed, args.seconds, bool(args.trace)
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    e2e = end_to_end(outcome)
    samples = sample_counts(outcome)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, value in e2e.items():
        print(f"  {name:<28} {value:>14.4f} {units[name]:<8} samples={samples[name]}")
    wall_units = {"wall.setup_s": "s", "host_speed_factor": "ratio"}
    wall_samples = {"wall.setup_s": len(outcome.setup),
                    "host_speed_factor": len(outcome.host_factors)}
    for name, value in wall_clock(outcome).items():
        print(f"  {name:<28} {value:>14.4f} {wall_units.get(name, 'ms'):<8} "
              f"samples={wall_samples.get(name, len(outcome.wall_op_s))}")
    error_ratio = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"  {'error_ratio':<28} {error_ratio:>14.4f} {'ratio':<8} "
          f"samples={outcome.attempted}")
    for name, value in outcome.notes.items():
        print(f"  {name:<28} {value:>14.4f} {'ratio':<8} samples={len(outcome.op_s)}")
    if args.trace:
        layers = per_layer(
            outcome, [m["name"] for m in spec["per_layer"]], args.workload == "serve-mixed"
        )
        for name, value in layers.items():
            print(f"  {name:<28} {value:>14.4f} {units[name]:<8} "
                  f"samples={len(outcome.traced_op_s)}")
        metrics = layers
    else:
        metrics = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
    for problem in outcome.problems[:10]:
        print(f"wrong output: {problem}", file=sys.stderr)
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }, allow_nan=False))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
