"""Tests of the benchmark's own machinery: inputs, statistics, reducer, checks."""

import math
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

from perfbench import checks, hostspeed, inputs
from perfbench.run import end_to_end, sample_counts
from perfbench.stats import (
    Span,
    coverage,
    histogram_quantile,
    percentile,
    self_times,
    spread,
    unspanned,
)
from perfbench.workloads import (
    Outcome, _window_delta, disk_latency_layers, scaled_launches, span_layers,
)

SCENARIOS = ("a", "b", "c", "d", "e", "f", "g", "h")


# --------------------------------------------------------------------------- #
# Seeded inputs
# --------------------------------------------------------------------------- #
def _inputs_bytes(seed: int) -> bytes:
    return b"".join([
        inputs.canonical([inputs.sweep_op(seed, index) for index in range(4)]),
        inputs.canonical([inputs.simulate_op(seed, index) for index in range(4)]),
        inputs.canonical(inputs.serve_schedule(seed, 180, "measured", SCENARIOS)),
        inputs.canonical(inputs.serve_schedule(seed, 128, "warm-up", SCENARIOS)),
    ])


def test_same_seed_gives_identical_inputs():
    assert _inputs_bytes(7) == _inputs_bytes(7)
    assert _inputs_bytes(7) != _inputs_bytes(8)


def test_inputs_are_identical_across_processes_and_hash_seeds():
    code = (
        "import hashlib, sys; sys.path.insert(0, sys.argv[1]);"
        "from perfbench.tests.test_perfbench import _inputs_bytes;"
        "print(hashlib.sha256(_inputs_bytes(7)).hexdigest())"
    )
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), root])
        digests.add(subprocess.run(
            [sys.executable, "-c", code, root], env=env, capture_output=True,
            text=True, check=True,
        ).stdout)
    assert len(digests) == 1


def test_sweep_op_is_a_5040_unit_grid_without_repeats():
    spec = inputs.sweep_op(3, 1)
    assert len(set(spec["tdps"])) == inputs.SWEEP_TDP_COUNT
    assert len(set(spec["ars"])) == inputs.SWEEP_AR_COUNT
    assert all(4.0 <= tdp <= 50.0 for tdp in spec["tdps"])
    assert all(0.4 <= ar <= 0.8 for ar in spec["ars"])
    active = len(spec["tdps"]) * len(spec["ars"]) * len(spec["workloads"])
    idle = len(spec["tdps"]) * len(spec["power_states"])
    assert (active + idle) * checks.PDN_COUNT == 5040


def test_serve_schedule_deals_the_mix_exactly():
    schedule = inputs.serve_schedule(5, 600, "measured", SCENARIOS)
    assert Counter(r.endpoint for r in schedule) == {
        "sweep": 450, "simulate": 120, "optimize": 30,
    }
    simulations = [r.body for r in schedule if r.endpoint == "simulate"]
    every = inputs.SERVE_SIM_MISS_EVERY
    new = [body for index, body in enumerate(simulations) if index % every == 0]
    pairs = {(b["scenarios"][0], b["tdps"][0]) for b in new}
    assert len(pairs) == len(SCENARIOS) * len(inputs.SERVE_SIM_TDPS) == len(new)
    assert all(simulations[index] in simulations[:index]
               for index in range(len(simulations)) if index % every)
    seeds = Counter(r.body["seed"] for r in schedule if r.endpoint == "optimize")
    assert sorted(seeds.values()) == [7, 7, 8, 8]


# --------------------------------------------------------------------------- #
# Percentiles, spread and sample counts
# --------------------------------------------------------------------------- #
def test_percentile_interpolates_between_ranks():
    values = [float(v) for v in range(10, 0, -1)]
    assert percentile(values, 50) == pytest.approx(5.5)
    assert percentile(values, 90) == pytest.approx(9.1)
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 10.0
    assert percentile([4.2], 90) == 4.2


def test_percentile_counts_failed_ops_as_missing_the_limit():
    values = [1.0] * 8 + [math.inf] * 2
    assert percentile(values, 50) == 1.0
    assert percentile(values, 90) == math.inf
    with pytest.raises(ValueError):
        percentile([], 50)


def test_spread_is_interquartile_range_over_median():
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)
    assert spread([10.0] * 10) == 0.0


def test_end_to_end_metrics_and_sample_counts():
    outcome = Outcome(
        op_s=[0.001 * v for v in range(1, 101)],
        rates=[100.0, 200.0, 300.0],
        setup=[{"total_s": 0.5}, {"total_s": 0.3}, {"total_s": 0.4}],
        peak_rss_mb=70.0,
    )
    metrics = end_to_end(outcome)
    assert metrics["op_ms_p50"] == pytest.approx(50.5)
    assert metrics["op_ms_p90"] == pytest.approx(90.1)
    assert metrics["setup_s"] == 0.4
    assert metrics["units_per_s"] == 200.0
    assert metrics["peak_rss_mb"] == 70.0
    assert sample_counts(outcome) == {
        "setup_s": 3, "op_ms_p50": 100, "op_ms_p90": 100, "units_per_s": 3,
        "peak_rss_mb": 1,
    }


# --------------------------------------------------------------------------- #
# Host-speed scaling
# --------------------------------------------------------------------------- #
def test_reference_scales_by_the_mean_of_the_bracketing_kernel_runs(monkeypatch):
    times = iter([0.030, 0.060, 0.090])
    monkeypatch.setattr(hostspeed, "time_kernel", lambda cpus=None: next(times))
    reference = hostspeed.Reference()
    assert reference.speed == pytest.approx(1.0)
    assert reference.scale() == pytest.approx(hostspeed.REFERENCE_S / 0.045)
    assert reference.speed == pytest.approx(0.5)
    assert reference.scale() == pytest.approx(hostspeed.REFERENCE_S / 0.075)
    assert len(reference.factors) == 2


def test_scaled_launches_report_wall_and_scaled_time(monkeypatch):
    times = iter([0.030, 0.060])
    monkeypatch.setattr(hostspeed, "time_kernel", lambda cpus=None: next(times))
    [sample] = scaled_launches(lambda: {"wall_s": 0.9}, 1)
    assert sample["wall_s"] == 0.9
    assert sample["total_s"] == pytest.approx(0.9 * hostspeed.REFERENCE_S / 0.045)


# --------------------------------------------------------------------------- #
# The self-time reducer
# --------------------------------------------------------------------------- #
def test_self_time_of_a_nested_span_tree():
    spans = [
        Span("run", 0.0, 100.0, "main"),
        Span("dedupe", 10.0, 40.0, "main"),
        Span("chunk", 20.0, 30.0, "main"),
        Span("merge", 50.0, 60.0, "main"),
        Span("merge", 60.0, 65.0, "main"),  # adjacent sibling, not a child
        Span("worker", 55.0, 70.0, "other"),  # another thread: no parent
    ]
    assert self_times(spans) == {
        "run": 100.0 - 30.0 - 15.0,
        "dedupe": 30.0 - 10.0,
        "chunk": 10.0,
        "merge": 15.0,
        "worker": 15.0,
    }


def test_interleaved_children_are_counted_once():
    spans = [
        Span("request", 0.0, 100.0),
        Span("flush", 10.0, 50.0),
        Span("flush", 30.0, 70.0),  # overlaps its sibling without nesting
    ]
    selfs = self_times(spans)
    assert selfs["request"] == pytest.approx(100.0 - 60.0)
    assert selfs["flush"] == pytest.approx(80.0)


def test_clock_rounding_within_eps_still_nests():
    spans = [Span("outer", 0.0, 100.0), Span("inner", 50.0, 100.4)]
    assert self_times(spans)["outer"] == pytest.approx(50.0)


def test_unspanned_time_includes_the_engine_run_wrapper():
    spans = [
        Span("bench.op", -50.0, 250.0, "main"),  # an ancestor is no cover
        Span("pdnspot.run", 0.0, 200.0, "main"),  # bench span: 10 us around engine.run
        Span("engine.run", 5.0, 195.0, "main"),  # 50 us of its own
        Span("executor.dedupe", 10.0, 60.0, "main"),
        Span("engine.columnar_block", 70.0, 100.0, "main"),
        Span("executor.merge_back", 120.0, 170.0, "main"),
        Span("executor.chunk", 80.0, 90.0, "main"),
        Span("engine.run", 300.0, 400.0, "main"),  # outside pdnspot.run
    ]
    assert unspanned(spans, "pdnspot.run", "engine.run") == pytest.approx(200.0 - 130.0)
    layers = span_layers(spans, per=2.0, phases=0)
    assert layers["pdnspot.unspanned_ms"] == pytest.approx(70.0 / 1e3 / 2)
    assert layers["pdnspot.run_ms"] == pytest.approx(200.0 / 1e3 / 2)
    assert layers["executor.dedupe_ms"] == pytest.approx(50.0 / 1e3 / 2)
    assert layers["engine.columnar_block_ms"] == pytest.approx(20.0 / 1e3 / 2)


def test_disk_latency_is_the_mean_of_the_window():
    before = {"metrics": {"counters": {}, "histograms": {"cache.disk.get_latency_s": {
        "count": 2, "sum": 0.004, "buckets": {"0.001": 0, "0.01": 2, "inf": 0}}}}}
    after = {"metrics": {"counters": {}, "histograms": {
        "cache.disk.get_latency_s": {
            "count": 6, "sum": 0.0048, "buckets": {"0.001": 4, "0.01": 2, "inf": 0}},
        "cache.disk.put_latency_s": {
            "count": 1, "sum": 0.0003, "buckets": {"0.001": 1, "0.01": 0, "inf": 0}},
    }}}
    layers = disk_latency_layers(_window_delta(after, before)["histograms"])
    assert layers["cache.disk.get_ms_mean"] == pytest.approx(0.2)
    assert layers["cache.disk.put_ms_mean"] == pytest.approx(0.3)
    assert layers["cache.disk.get_ms_p50"] == pytest.approx(0.5)  # bucket-bound


def test_coverage_and_histogram_quantile():
    op = Span("op", 0.0, 10.0)
    assert coverage(op, [Span("a", 1.0, 4.0), Span("b", 3.0, 6.0), Span("c", 9.0, 12.0)]) == 0.6
    buckets = {"0.001": 0, "0.01": 10, "0.1": 10, "inf": 0}
    assert histogram_quantile(buckets, 0.5) == pytest.approx(0.01)
    assert histogram_quantile(buckets, 0.25) == pytest.approx(0.0055)
    assert histogram_quantile({"0.1": 0, "inf": 0}, 0.5) == 0.0


# --------------------------------------------------------------------------- #
# Output checks
# --------------------------------------------------------------------------- #
def _with_cell(resultset, column, index, value):
    from repro.analysis.resultset import ResultSet

    columns = {name: list(resultset.column(name)) for name in resultset.columns}
    columns[column][index] = value
    return ResultSet(columns, name=resultset.name)


@pytest.fixture(scope="module")
def sweep():
    from repro import PdnSpot
    from repro.power.domains import WorkloadType
    from repro.power.power_states import PackageCState
    from repro.serve.protocol import build_sweep_study

    study = build_sweep_study(
        [4.0, 18.0], [0.5, 0.7], [WorkloadType.GRAPHICS], [PackageCState.C8]
    )
    return PdnSpot().run(study), PdnSpot(enable_cache=False, columnar=False)


def test_sweep_check_accepts_the_program_output(sweep):
    resultset, oracle = sweep
    assert checks.check_sweep(resultset, 30, oracle, random.Random(0), 30) == []


@pytest.mark.parametrize("column,value", [
    ("etee", 1.5), ("etee", 0.0), ("etee", math.nan), ("supply_power_w", None),
])
def test_sweep_check_rejects_a_corrupted_resultset(sweep, column, value):
    resultset, oracle = sweep
    if value is None:
        value = math.nextafter(resultset.column(column)[7], math.inf)
    corrupted = _with_cell(resultset, column, 7, value)
    assert checks.check_sweep(corrupted, 30, oracle, random.Random(0), 30)


def test_sweep_check_rejects_a_wrong_row_count(sweep):
    resultset, oracle = sweep
    assert checks.check_sweep(resultset, 35, oracle, random.Random(0), 4)


@pytest.fixture(scope="module")
def simulation():
    from repro import run_sim
    from repro.serve.protocol import build_simulate_study

    return run_sim(build_simulate_study(["race-to-idle"], (18.0,), 2020))


def test_simulate_check_accepts_the_program_output(simulation):
    assert checks.check_simulate(simulation, 5, random.Random(0), 5) == []


def test_simulate_check_rejects_a_corrupted_resultset(simulation):
    flexwatts = simulation.column("pdn").index("FlexWatts")
    energy = simulation.column("total_energy_j")[flexwatts]
    corrupted = _with_cell(simulation, "total_energy_j", flexwatts, energy * 1.5)
    problems = checks.check_simulate(corrupted, 5)
    assert any("power x time" in problem for problem in problems)
    assert any("worse of I+MBVR/LDO" in problem for problem in problems)


def test_served_check_rejects_a_partial_response(simulation):
    class Response:
        status = "partial"
        resultset = simulation

    body = {"scenarios": ["race-to-idle"], "tdps": [18.0], "seed": 2020}
    assert checks.check_served("simulate", body, Response())
    Response.status = "ok"
    assert checks.check_served("simulate", body, Response()) == []
