#!/usr/bin/env python3
"""Gate CI on the cross-run warm-start contract of the disk cache.

Runs the same workloads twice against one cache directory:

1. **Cold pass** -- real ``python -m repro`` subprocesses (``simulate``,
   and ``optimize`` with the simulation-backed ``energy`` objective)
   populate the directory and write their JSON output to files, exactly as
   a user or CI job would.
2. **Warm pass** -- *this* process rebuilds fresh engines on the same
   directory, re-runs the identical workloads through the library, and
   asserts that (a) every simulation is served from disk (zero
   recomputation; the disk tier reports hits covering the whole grid) and
   (b) the rendered output is byte-identical to the cold subprocess's.

Exits non-zero with a diagnostic when either property fails.  Usage (what
.github/workflows/ci.yml runs)::

    PYTHONPATH=src python tools/check_disk_cache_warm.py

An explicit ``--cache-dir`` keeps the directory around for inspection.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

SIM_SCENARIOS = ["duty-cycled-background", "race-to-idle"]
OPTIMIZE_PDNS = ["IVR", "LDO", "FlexWatts"]
OPTIMIZE_OBJECTIVES = ["etee", "bom", "energy"]


def run_cli(arguments: List[str], output: Path) -> None:
    """Run one cold ``python -m repro`` pass in a genuine subprocess."""
    command = [sys.executable, "-m", "repro", *arguments, "--output", str(output)]
    completed = subprocess.run(
        command, env=os.environ.copy(), capture_output=True, text=True
    )
    if completed.returncode != 0:
        raise SystemExit(
            f"error: cold pass {' '.join(arguments)} failed "
            f"({completed.returncode}):\n{completed.stderr}"
        )


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def compare(label: str, warm_text: str, cold_file: Path) -> None:
    cold_text = cold_file.read_text(encoding="utf-8").rstrip("\n")
    expect(
        warm_text.rstrip("\n") == cold_text,
        f"{label}: warm output differs from the cold subprocess output",
    )
    print(f"  {label}: warm output byte-identical to cold run")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--cache-dir", default=None,
        help="cache directory to use (default: a fresh temporary directory)",
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as scratch:
        cache_dir = args.cache_dir or str(Path(scratch) / "cache")
        outputs = Path(scratch) / "outputs"
        outputs.mkdir()

        print(f"disk-cache warm-start gate (cache dir: {cache_dir})")
        print("cold pass: populating via python -m repro subprocesses ...")
        run_cli(
            ["simulate", "--scenario", *SIM_SCENARIOS, "--format", "json",
             "--cache-dir", cache_dir],
            outputs / "simulate.json",
        )
        run_cli(
            ["optimize", "--pdns", *OPTIMIZE_PDNS, "--objectives",
             *OPTIMIZE_OBJECTIVES, "--format", "json", "--cache-dir", cache_dir],
            outputs / "optimize.json",
        )

        print("warm pass: fresh engines in this process ...")
        from repro.cli import build_simulate_study
        from repro.sim.study import SimEngine

        # Simulate: every simulation replayed from the sim namespace.
        engine = SimEngine(disk_cache=cache_dir)
        sim_resultset = engine.run(build_simulate_study(SIM_SCENARIOS))
        sim_info, sim_disk = engine.cache_info(), engine.disk_cache.stats()
        expect(sim_info.misses == 0, f"simulate recomputed {sim_info.misses} runs")
        expect(
            sim_disk.hits == sim_info.hits > 0,
            f"simulate: disk hits {sim_disk.hits} do not cover "
            f"the {sim_info.hits} lookups",
        )
        print(f"  simulate: {sim_disk.hits} simulations replayed from disk")
        from repro.cli import _render  # the CLI's own JSON writer

        compare("simulate", _render(sim_resultset, "json"), outputs / "simulate.json")

        # Optimize: rebuild the CLI's exact search with an inspectable
        # evaluator so the disk-hit assertion covers the simulations behind
        # its energy objective.
        from repro.cli import build_optimize_space
        from repro.optimize import CandidateEvaluator, resolve_objectives
        from repro.optimize.runner import run_optimization

        evaluator = CandidateEvaluator(
            resolve_objectives(OPTIMIZE_OBJECTIVES), cache_dir=cache_dir
        )
        outcome = run_optimization(
            build_optimize_space(OPTIMIZE_PDNS),
            objectives=OPTIMIZE_OBJECTIVES,
            evaluator=evaluator,
        )
        opt_info = evaluator.sim_engine.cache_info()
        opt_disk = evaluator.sim_engine.disk_cache.stats()
        expect(
            opt_info.misses == 0, f"optimize recomputed {opt_info.misses} simulations"
        )
        expect(
            opt_disk.hits == opt_info.hits > 0,
            f"optimize: disk hits {opt_disk.hits} do not cover "
            f"the {opt_info.hits} lookups",
        )
        print(f"  optimize: {opt_disk.hits} simulations replayed from disk")
        compare("optimize", _render(outcome.results, "json"), outputs / "optimize.json")

    print("OK: second pass served from disk with identical results")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
