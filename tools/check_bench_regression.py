#!/usr/bin/env python3
"""Gate CI on pytest-benchmark results: fail on a >Nx cached-grid regression.

Compares a fresh ``--benchmark-json`` output against the committed baseline
(``benchmarks/baseline/BENCH_sweep.json``) and exits non-zero when the gated
benchmark's median time regressed by more than ``--threshold`` (default 2x).
Medians, not means: one slow round (a page fault, a noisy neighbour) moves
a mean of a few rounds far more than it moves their median.

Because absolute timings differ between the machine that produced the
baseline and the CI runner, the gate can instead be expressed relative to a
reference benchmark from the *same* run with ``--relative-to``: the gated
quantity becomes ``median(gated) / median(reference)`` in both runs, which
cancels machine speed and isolates genuine efficiency regressions (for the
cached-grid benchmark: cache hits suddenly costing like misses).

The normalised gate has one deliberate blind spot: it moves when *either*
side of the ratio moves, so a PR that intentionally changes model evaluation
speed (the uncached reference) shifts the cached/uncached ratio without any
cache regression -- a big model speed-up can even trip the gate.  That is the
signal to **refresh the committed baseline in the same PR**::

    PYTHONPATH=src python -m pytest benchmarks -q \
        --benchmark-json /tmp/BENCH_full.json
    python tools/compact_bench_baseline.py /tmp/BENCH_full.json \
        -o benchmarks/baseline/BENCH_sweep.json

and commit the regenerated file alongside the model change, which re-anchors
the ratio.  A genuine cache regression (hits suddenly costing like misses)
moves only the numerator and fails the gate on an unchanged baseline.

The committed baseline uses the *compact* format (per-benchmark summary
stats only, no raw per-round samples); this script reads both the compact
format and raw ``--benchmark-json`` output interchangeably.

A gate must clear the noise it measures.  When the baseline records each
benchmark's interquartile range, the tool takes the gated quantity's
relative spread (IQR / median, summed over both sides of a ratio) and
refuses to run -- exit status 1 with an error -- a ``--threshold`` whose
allowed regression is smaller than that spread, or a ``--max-ratio`` that
the baseline's own value, widened by that spread, would cross.  Baselines
compacted before the IQR was kept are reported as unchecked.

``--max-ratio`` adds a baseline-independent gate on the current run: with
``--relative-to`` it asserts ``median(gated) / median(reference) <= max-ratio``
on the CI machine itself.  CI uses it to require the vectorized columnar
path to beat the per-point path by at least 10x (``--max-ratio 0.1``).

Usage (what .github/workflows/ci.yml runs)::

    python tools/check_bench_regression.py BENCH_sweep.json \
        --baseline benchmarks/baseline/BENCH_sweep.json \
        --benchmark test_bench_sweep_grid_cached \
        --relative-to test_bench_sweep_grid_uncached \
        --threshold 2.0
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Optional, Tuple


#: Per-benchmark summary: ``median`` seconds and, when recorded, the
#: interquartile range ``iqr`` (``None`` in baselines that predate it).
Summary = Dict[str, Optional[float]]


def load_stats(path: Path) -> Dict[str, Summary]:
    """Benchmark name -> median seconds and IQR from a benchmark JSON file.

    Accepts both supported layouts:

    * the raw ``pytest-benchmark --benchmark-json`` output, where
      ``benchmarks`` is a *list* of entries with full per-round ``stats``
      (including every raw timing sample), and
    * the compact committed-baseline format written by
      ``tools/compact_bench_baseline.py``, where ``benchmarks`` is a *dict*
      mapping benchmark name to per-group summary stats only.
    """
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        raise SystemExit(f"error: cannot read benchmark JSON {path}: {error}")
    benchmarks = payload.get("benchmarks", [])
    if isinstance(benchmarks, dict):
        entries = benchmarks.items()
    else:
        entries = ((entry.get("name"), entry.get("stats")) for entry in benchmarks)
    summaries: Dict[str, Summary] = {}
    for name, stats in entries:
        if not isinstance(name, str) or not isinstance(stats, dict):
            continue
        median = stats.get("median")
        if isinstance(median, (int, float)):
            iqr = stats.get("iqr")
            summaries[name] = {
                "median": float(median),
                "iqr": float(iqr) if isinstance(iqr, (int, float)) else None,
            }
    if not summaries:
        raise SystemExit(f"error: no benchmarks found in {path}")
    return summaries


def _summary(summaries: Dict[str, Summary], name: str, label: str) -> Summary:
    if name not in summaries:
        raise SystemExit(
            f"error: benchmark {name!r} not in the {label} run; "
            f"available: {', '.join(sorted(summaries))}"
        )
    if summaries[name]["median"] <= 0.0:
        raise SystemExit(f"error: median of {name!r} in the {label} run is not positive")
    return summaries[name]


def gated_quantity(
    summaries: Dict[str, Summary], benchmark: str, relative_to: Optional[str], label: str
) -> Tuple[float, Optional[float]]:
    """The gated median (seconds, or a ratio of medians) and its relative spread.

    The spread is the IQR over the median, summed over the two benchmarks
    of a ratio; ``None`` when a run does not record the IQR.
    """
    gated = _summary(summaries, benchmark, label)
    parts = [gated]
    value = gated["median"]
    if relative_to is not None:
        reference = _summary(summaries, relative_to, label)
        parts.append(reference)
        value /= reference["median"]
    if any(part["iqr"] is None for part in parts):
        return value, None
    return value, sum(part["iqr"] / part["median"] for part in parts)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", type=Path, help="fresh --benchmark-json output")
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path("benchmarks/baseline/BENCH_sweep.json"),
        help="committed baseline JSON (default: %(default)s)",
    )
    parser.add_argument(
        "--benchmark",
        default="test_bench_sweep_grid_cached",
        help="benchmark name the gate applies to (default: %(default)s)",
    )
    parser.add_argument(
        "--relative-to",
        default=None,
        help="normalise the gated median by this benchmark's median from the "
        "same run (cancels machine speed between baseline and CI)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=2.0,
        help="maximum allowed current/baseline ratio (default: %(default)s)",
    )
    parser.add_argument(
        "--max-ratio",
        type=float,
        default=None,
        help="absolute ceiling on the gated quantity in the CURRENT run "
        "(requires --relative-to). E.g. --relative-to per_point "
        "--max-ratio 0.1 asserts the gated benchmark runs at least 10x "
        "faster than the reference on this very machine, independent of "
        "the committed baseline.",
    )
    args = parser.parse_args(argv)
    if args.threshold <= 0.0:
        parser.error("--threshold must be positive")
    if args.max_ratio is not None:
        if args.max_ratio <= 0.0:
            parser.error("--max-ratio must be positive")
        if args.relative_to is None:
            parser.error("--max-ratio needs --relative-to (it gates a ratio)")

    current_stats = load_stats(args.current)
    baseline_stats = load_stats(args.baseline)
    current, _ = gated_quantity(current_stats, args.benchmark, args.relative_to, "current")
    baseline, spread = gated_quantity(
        baseline_stats, args.benchmark, args.relative_to, "baseline"
    )
    ratio = current / baseline

    unit = "x vs reference" if args.relative_to else " s"
    print(f"benchmark-regression gate: {args.benchmark} (medians)")
    if args.relative_to:
        print(f"  normalised by:   {args.relative_to}")
    print(f"  baseline:        {baseline:.6g}{unit}")
    print(f"  current:         {current:.6g}{unit}")
    print(f"  ratio:           {ratio:.3f} (threshold {args.threshold:g})")

    # Informational comparison of every benchmark the two runs share.
    shared = sorted(set(current_stats) & set(baseline_stats))
    if shared:
        print("  shared benchmarks (current/baseline median):")
        for name in shared:
            if baseline_stats[name]["median"] > 0.0:
                print(
                    f"    {name}: "
                    f"{current_stats[name]['median'] / baseline_stats[name]['median']:.3f}"
                )

    # A gate whose margin lies inside the baseline's own run-to-run spread
    # would pass or fail on noise: refuse it rather than report either.
    if spread is None:
        print("  spread:          not recorded in the baseline (no IQR); unchecked")
    else:
        print(f"  spread:          {spread:.3f} (IQR / median in the baseline)")
        if args.threshold - 1.0 < spread:
            raise SystemExit(
                f"error: --threshold {args.threshold:g} allows {args.threshold - 1.0:.3g} "
                f"of regression, inside the recorded spread {spread:.3g}: the gate "
                "cannot tell a regression from noise"
            )
        if args.max_ratio is not None and args.max_ratio < baseline * (1.0 + spread):
            raise SystemExit(
                f"error: --max-ratio {args.max_ratio:g} is within the recorded spread "
                f"{spread:.3g} of the baseline's {baseline:.3g}: the gate cannot tell "
                "a regression from noise"
            )

    failed = False
    if args.max_ratio is not None:
        print(f"  max-ratio gate:  {current:.6g} <= {args.max_ratio:g} required")
        if current > args.max_ratio:
            print(
                f"FAIL: {args.benchmark} is {current:.3g}x the reference "
                f"{args.relative_to} (> {args.max_ratio:g}x allowed)",
                file=sys.stderr,
            )
            failed = True

    if ratio > args.threshold:
        print(
            f"FAIL: {args.benchmark} regressed {ratio:.2f}x "
            f"(> {args.threshold:g}x allowed)",
            file=sys.stderr,
        )
        failed = True
    if failed:
        return 1
    print("OK: within threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
