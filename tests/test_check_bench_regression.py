"""The benchmark-regression gate compares medians and refuses noisy gates."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_bench_regression.py"


def write_baseline(path: Path, stats: dict) -> Path:
    """A compact baseline with per-benchmark ``stats``."""
    path.write_text(json.dumps({"format": "bench-baseline-compact/1", "benchmarks": stats}))
    return path


def gate(current: Path, baseline: Path, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), str(current), "--baseline", str(baseline),
         "--benchmark", "gated", "--relative-to", "reference", *flags],
        capture_output=True, text=True, timeout=60,
    )


def test_gate_reads_medians_not_means(tmp_path):
    # One slow round doubles the current mean but leaves the median alone.
    baseline = write_baseline(tmp_path / "baseline.json", {
        "gated": {"mean": 1.0, "median": 1.0},
        "reference": {"mean": 10.0, "median": 10.0},
    })
    current = write_baseline(tmp_path / "current.json", {
        "gated": {"mean": 3.0, "median": 1.1},
        "reference": {"mean": 10.0, "median": 10.0},
    })
    completed = gate(current, baseline, "--threshold", "2.0")
    assert completed.returncode == 0, completed.stderr
    assert "ratio:           1.100" in completed.stdout
    assert "not recorded" in completed.stdout


def test_gate_fails_a_median_regression(tmp_path):
    baseline = write_baseline(tmp_path / "baseline.json", {
        "gated": {"median": 1.0, "iqr": 0.05},
        "reference": {"median": 10.0, "iqr": 0.5},
    })
    current = write_baseline(tmp_path / "current.json", {
        "gated": {"median": 2.5},
        "reference": {"median": 10.0},
    })
    completed = gate(current, baseline, "--threshold", "2.0")
    assert completed.returncode == 1
    assert "regressed 2.50x" in completed.stderr


def test_threshold_inside_the_recorded_spread_is_refused(tmp_path):
    # IQR / median: 0.04 + 0.02 = 0.06 > the 0.05 a 1.05 threshold allows.
    baseline = write_baseline(tmp_path / "baseline.json", {
        "gated": {"median": 1.0, "iqr": 0.04},
        "reference": {"median": 10.0, "iqr": 0.2},
    })
    completed = gate(baseline, baseline, "--threshold", "1.05")
    assert completed.returncode == 1
    assert "inside the recorded spread" in completed.stderr
    assert gate(baseline, baseline, "--threshold", "1.1").returncode == 0


def test_max_ratio_inside_the_recorded_spread_is_refused(tmp_path):
    # The baseline's 0.08, widened by its 0.3 spread, crosses a 0.1 ceiling.
    baseline = write_baseline(tmp_path / "baseline.json", {
        "gated": {"median": 0.8, "iqr": 0.2},
        "reference": {"median": 10.0, "iqr": 0.5},
    })
    completed = gate(baseline, baseline, "--threshold", "2.0", "--max-ratio", "0.1")
    assert completed.returncode == 1
    assert "--max-ratio 0.1 is within the recorded spread" in completed.stderr
    assert gate(baseline, baseline, "--threshold", "2.0", "--max-ratio", "0.2").returncode == 0
