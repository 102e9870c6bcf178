"""The three workloads, measured from outside the library.

``sweep-cold`` and ``simulate-cold`` are closed loops with one caller in
this process; ``serve-mixed`` is a closed loop of two connections against
a ``repro serve`` child process.  Each returns an :class:`Outcome`: op latencies, failures,
set-up samples and, for traced runs, the per-layer values.

Benchmark-side spans (category ``bench``) wrap the public calls each op
makes; they land on the program's own :mod:`repro.obs` tracer next to the
program's spans, so one reducer attributes the whole op.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro import METRICS, PdnSpot, SimEngine, Tracer, install_tracer, run_sim, uninstall_tracer
from repro.obs import trace as obs_trace
from repro.optimize import run_optimization
from repro.power.domains import WorkloadType
from repro.power.power_states import PackageCState
from repro.serve.client import ServeClient, ServerUnavailable
from repro.serve.protocol import build_optimize_space, build_simulate_study, build_sweep_study
from repro.workloads.scenarios import available_scenarios

from perfbench import checks, hostspeed, inputs
from perfbench.stats import (
    Span, coverage, histogram_quantile, percentile, self_times, unspanned,
)

#: Fresh set-up launches per run; their median is ``setup_s``.
SETUP_REPEATS = 7
#: Rows sampled per op for the bit-equality check against the scalar oracle.
SWEEP_ORACLE_SAMPLE = 8
#: Simulation rows per op whose trace-level ETEE is recomputed.
SIMULATE_ETEE_SAMPLE = 2
#: Untimed warm-up requests before each served window, sent back to back.
SERVE_WARMUP_REQUESTS = 128
#: Connections of the ``serve-mixed`` closed loop, each sending its next
#: request as soon as its previous one is answered.
SERVE_CONNECTIONS = 2
#: Served responses per endpoint compared with a local run of the request.
SERVE_LOCAL_SAMPLE = 4
#: The p90 latency limit of ``serve-mixed``.
SERVE_P90_LIMIT_MS = 250.0
#: Requests of a ``serve-mixed`` window per second of ``--seconds``.  The
#: count is fixed, not the duration, so every run at a seed sends the same
#: requests and the daemon's caches (and peak RSS) grow alike.  A host at
#: 0.6 of the reference speed sends them in ~60% of the window; one below
#: ~0.4 runs out of window and sends a prefix.
SERVE_REQUESTS_PER_S = 80
#: Seconds of ``serve-mixed`` traffic between two reference kernel runs.
SERVE_SLICE_S = 1.0
#: Responses compared with a local run are drawn from this many first
#: requests of the window, which every run sends.
SERVE_LOCAL_SAMPLE_FROM = 200

#: Program spans whose self time is a per-layer metric (metric = name + _ms).
SELF_TIME_SPANS = (
    "executor.dedupe", "executor.dispatch", "executor.chunk", "executor.merge_back",
    "executor.reassemble", "engine.columnar_block", "sim.run", "sim.phase_batch",
    "flexwatts.calibrate", "serve.request", "serve.parse", "serve.dispatch",
    "serve.coalescer.flush", "serve.reassemble", "optimize.search",
)
#: Benchmark-side spans whose whole duration is a per-layer metric.
TOTAL_TIME_SPANS = (
    "pdnspot.run", "study.build", "simstudy.build", "simengine.run", "resultset.to_json",
)
#: Program counters reported as per-op deltas under their own names.
COUNTERS = (
    "cache.lookup.misses", "cache.memory.hits", "cache.installs",
    "engine.columnar.block_units", "engine.scalar_fallback.units",
    "sim.phases", "sim.mode_switches", "sim.residency_guard_hits", "sim.prefill_batches",
    "flexwatts.calibrations",
)

_span = obs_trace.span
_SIM_PHASES = METRICS.counter("sim.phases")


@dataclass
class Context:
    """Where a run lives: the checkout root, a scratch dir and child env."""

    root: Path
    work: str
    env: Dict[str, str]
    #: CPUs ``repro serve`` children are pinned to (``None``: not pinned).
    daemon_cpus: Optional[Set[int]] = None


@dataclass
class Outcome:
    """What one workload run measured."""

    #: Op latencies scaled to the reference host speed (see
    #: :mod:`perfbench.hostspeed`); ``wall_op_s`` holds them as measured.
    op_s: List[float] = field(default_factory=list)
    wall_op_s: List[float] = field(default_factory=list)
    traced_op_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Evaluation units per second of each correct op that evaluates a grid,
    #: at the reference host speed (the source of ``units_per_s``).
    rates: List[float] = field(default_factory=list)
    #: Launch-to-ready samples: ``total_s`` at the reference host speed (the
    #: source of ``setup_s``) and ``wall_s`` as measured.
    setup: List[Dict[str, float]] = field(default_factory=list)
    #: Every host-speed factor applied (reference time / kernel time).
    host_factors: List[float] = field(default_factory=list)
    #: Fresh-interpreter probes split into import, engine and calibration.
    setup_split: List[Dict[str, float]] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    layers: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, float] = field(default_factory=dict)

    def record(self, problems: Sequence[str], label: str) -> None:
        """Count one attempted op and whether its output was wrong."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {problem}" for problem in problems[:3])


# --------------------------------------------------------------------------- #
# Set-up: fresh child interpreters, one at a time
# --------------------------------------------------------------------------- #
def measure_setup(ctx: Context, kind: str, repeats: int) -> List[Dict[str, float]]:
    """Launch ``repeats`` fresh interpreters in turn and time their set-up.

    ``wall_s`` runs from the launch until the child reports it could take
    its first op, ``total_s`` is that at the reference host speed; the
    child splits the launch into import, engine and calibration.
    """
    return scaled_launches(lambda: _setup_probe(ctx, kind), repeats)


def scaled_launches(launch, repeats: int,
                    cpus: Optional[Set[int]] = None) -> List[Dict[str, float]]:
    """Run ``launch()`` ``repeats`` times, each between two kernel runs.

    ``launch`` returns a sample with its measured ``wall_s``; each sample
    gains ``total_s``, the launch time at the reference host speed of
    ``cpus`` (default: this thread's).
    """
    reference = hostspeed.Reference(cpus)
    samples = []
    for _ in range(repeats):
        sample = launch()
        sample["factor"] = reference.scale()
        sample["total_s"] = sample["wall_s"] * sample["factor"]
        samples.append(sample)
    return samples


def _setup_probe(ctx: Context, kind: str) -> Dict[str, float]:
    """One fresh set-up child, timed from launch to its report."""
    script = str(ctx.root / "perfbench" / "setup_child.py")
    workdir = tempfile.mkdtemp(dir=ctx.work)
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, script, kind, workdir],
        stdout=subprocess.PIPE, env=ctx.env, cwd=ctx.root, text=True,
    )
    try:
        line = child.stdout.readline()
        wall_s = time.perf_counter() - started
        child.communicate(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.communicate()
    if child.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe {kind!r} exited {child.returncode}")
    sample = json.loads(line)
    sample["wall_s"] = wall_s
    return sample


# --------------------------------------------------------------------------- #
# Per-op layer reduction (shared by the in-process workloads)
# --------------------------------------------------------------------------- #
def _spans(
    events: Sequence[Tuple[str, str, float, float, object]],
) -> Tuple[List[Span], List[Span]]:
    """(all spans, program spans) from ``(name, category, ts, dur, lane)``."""
    spans, program = [], []
    for name, category, ts_us, dur_us, lane in events:
        span = Span(name, ts_us, ts_us + dur_us, lane)
        spans.append(span)
        if category != "bench":
            program.append(span)
    return spans, program


def span_layers(spans: Sequence[Span], per: float, phases: float) -> Dict[str, float]:
    """Self and total span times in ms per op, over ``per`` ops.

    ``phases`` is the number of phases simulated under these spans, the
    denominator of ``sim.us_per_phase``.
    """
    selfs = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += span.end - span.start
    layers = {f"{name}_ms": selfs.get(name, 0.0) / 1e3 / per for name in SELF_TIME_SPANS}
    layers.update({f"{name}_ms": totals.get(name, 0.0) / 1e3 / per for name in TOTAL_TIME_SPANS})
    layers["pdnspot.unspanned_ms"] = unspanned(spans, "pdnspot.run", "engine.run") / 1e3 / per
    layers["sim.us_per_phase"] = totals.get("sim.run", 0.0) / phases if phases else 0.0
    return layers


def counter_layers(delta: Dict[str, float], per: float, units: float) -> Dict[str, float]:
    """Per-op counter deltas plus the ratios derived from them.

    ``units`` is the evaluation work the op asked for: the columnar share's
    denominator.
    """
    layers = {name: delta.get(name, 0) / per for name in COUNTERS}
    lookups = (
        delta.get("cache.memory.hits", 0) + delta.get("cache.disk.hits", 0)
        + delta.get("cache.lookup.misses", 0)
    )
    layers["cache.memory.hit_ratio"] = (
        delta.get("cache.memory.hits", 0) / lookups if lookups else 0.0
    )
    layers["engine.columnar_share"] = (
        delta.get("engine.columnar.block_units", 0) / units if units else 0.0
    )
    layers["cache.disk.self_heal"] = delta.get("cache.disk.self_heal", 0) / per
    return layers


def _counters() -> Dict[str, float]:
    return dict(METRICS.snapshot()["counters"])


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {name: value - before.get(name, 0) for name, value in after.items()}


# --------------------------------------------------------------------------- #
# Closed-loop workloads
# --------------------------------------------------------------------------- #
@dataclass
class OpResult:
    """One op's output, kept only until it is checked."""

    resultset: object
    text: str
    engine: object


def sweep_op(spec: Dict[str, list]) -> OpResult:
    """One ``repro sweep --format json`` after import: engine, grid, run, JSON."""
    with _span("bench.op", "bench"):
        with _span("pdnspot.build", "bench"):
            spot = PdnSpot()
        with _span("study.build", "bench"):
            study = build_sweep_study(
                spec["tdps"], spec["ars"], spec["workloads"], spec["power_states"]
            )
        with _span("pdnspot.run", "bench"):
            resultset = spot.run(study)
        with _span("resultset.to_json", "bench"):
            text = resultset.to_json(indent=2)
    return OpResult(resultset, text, spot)


def simulate_op(spec: Dict[str, object]) -> OpResult:
    """One ``repro simulate --tdps 4 18 50 --format json`` at a fresh seed."""
    with _span("bench.op", "bench"):
        with _span("simengine.build", "bench"):
            engine = SimEngine()
        with _span("simstudy.build", "bench"):
            study = build_simulate_study(None, spec["tdps"], spec["seed"])
        with _span("simengine.run", "bench"):
            resultset = run_sim(study, engine=engine)
        with _span("resultset.to_json", "bench"):
            text = resultset.to_json(indent=2)
    return OpResult(resultset, text, engine)


def _sweep_spec(seed: int, index: int) -> Dict[str, list]:
    spec = inputs.sweep_op(seed, index)
    spec["workloads"] = [WorkloadType(name) for name in spec["workloads"]]
    spec["power_states"] = [PackageCState(name) for name in spec["power_states"]]
    return spec


def _sweep_rows(spec: Dict[str, list]) -> int:
    active = len(spec["tdps"]) * len(spec["ars"]) * len(spec["workloads"])
    return (active + len(spec["tdps"]) * len(spec["power_states"])) * checks.PDN_COUNT


def run_closed_loop(
    ctx: Context, workload: str, seed: int, seconds: float, trace: bool
) -> Outcome:
    """Run ``sweep-cold`` or ``simulate-cold`` for ``seconds``.

    One untimed warm-up op runs first.  Every op is bracketed by reference
    kernel runs that scale it to the reference host speed.  With ``trace``
    every second op runs under an installed tracer; the others give the
    untraced baseline of ``obs.overhead_ratio``.
    """
    sweep = workload == "sweep-cold"
    setup = measure_setup(ctx, "sweep" if sweep else "simulate", SETUP_REPEATS)
    outcome = Outcome(setup=setup, setup_split=setup)
    check_rng = random.Random(f"checks:{workload}:{seed}")
    oracle = PdnSpot(enable_cache=False, columnar=False)

    def spec_for(index: int):
        return _sweep_spec(seed, index) if sweep else inputs.simulate_op(seed, index)

    def check(spec, result: OpResult) -> List[str]:
        if sweep:
            return checks.check_sweep(
                result.resultset, _sweep_rows(spec), oracle, check_rng, SWEEP_ORACLE_SAMPLE
            )
        rows = len(inputs.SIMULATE_TDPS) * len(available_scenarios()) * checks.PDN_COUNT
        return checks.check_simulate(
            result.resultset, rows, check_rng, SIMULATE_ETEE_SAMPLE
        )

    run_op = sweep_op if sweep else simulate_op
    warm_spec = spec_for(0)
    problems = check(warm_spec, run_op(warm_spec))
    if problems:
        outcome.record(problems, "warm-up op")
    per_op: Dict[str, List[float]] = defaultdict(list)
    reference = hostspeed.Reference()
    started = time.perf_counter()
    index = 1
    while time.perf_counter() - started < seconds:
        spec = spec_for(index)
        traced = trace and index % 2 == 0
        gc.collect()
        phases_before = _SIM_PHASES.value
        if traced:
            tracer = install_tracer(Tracer())
            before = _counters()
        op_started = time.perf_counter()
        result = run_op(spec)
        wall = time.perf_counter() - op_started
        if traced:
            uninstall_tracer()
            delta = _delta(_counters(), before)
        phases = _SIM_PHASES.value - phases_before
        units = len(result.resultset) if sweep else phases
        elapsed = wall * reference.scale()
        problems = check(spec, result)
        outcome.record(problems, f"op {index}")
        if traced:
            outcome.traced_op_s.append(elapsed)
            for name, value in _op_layers(tracer, delta, result, units, sweep).items():
                per_op[name].append(value)
        else:
            outcome.op_s.append(elapsed if not problems else float("inf"))
            outcome.wall_op_s.append(wall if not problems else float("inf"))
            if not problems:
                outcome.rates.append(units / elapsed)
        index += 1
    outcome.host_factors = reference.factors
    outcome.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        outcome.layers = {name: statistics.median(values) for name, values in per_op.items()}
    return outcome


def _op_layers(
    tracer: Tracer, delta: Dict[str, float], result: OpResult, units: float, sweep: bool
) -> Dict[str, float]:
    """Every per-layer value one traced in-process op yields."""
    events = [
        (r.name, r.category, r.ts_us, r.dur_us, (r.pid, r.tid))
        for r in tracer.records() if r.phase == "X"
    ]
    spans, program = _spans(events)
    layers = span_layers(spans, per=1.0, phases=delta.get("sim.phases", 0))
    layers.update(counter_layers(delta, per=1.0, units=units))
    op = next(span for span in spans if span.name == "bench.op")
    layers["obs.span_coverage"] = coverage(op, program)
    layers["resultset.json_kb"] = len(result.text) / 1024.0
    if not sweep:
        info = result.engine.spot.cache_info()
        lookups = info.hits + info.misses
        layers["sim.phase_hit_ratio"] = info.hits / lookups if lookups else 0.0
    return layers


# --------------------------------------------------------------------------- #
# serve-mixed: a closed loop against a daemon child process
# --------------------------------------------------------------------------- #
@dataclass
class Sent:
    """One request of the closed loop: timing and outcome."""

    endpoint: str
    body: Dict[str, object]
    sent: float = 0.0
    done: float = 0.0
    problems: List[str] = field(default_factory=list)
    response: object = None
    #: Host-speed factor of the slice the request was sent in.
    factor: float = 1.0

    @property
    def wall_s(self) -> float:
        """Time from the send to the answer (inf when failed)."""
        return float("inf") if self.problems else self.done - self.sent

    @property
    def latency_s(self) -> float:
        """:attr:`wall_s` at the reference host speed."""
        return self.wall_s * self.factor


def launch_daemon(ctx: Context, trace_path: Optional[str] = None):
    """Start ``repro serve`` on a fresh cache dir; wait for ``/v1/healthz``.

    Returns ``(process, base_url, seconds from launch to healthy)``.
    """
    cache_dir = tempfile.mkdtemp(dir=ctx.work)
    command = [sys.executable, "-m", "repro", "serve", "--port", "0", "--cache-dir", cache_dir]
    if trace_path is not None:
        command += ["--trace", trace_path]
    with open(os.path.join(ctx.work, "daemon.log"), "ab") as log:
        started = time.perf_counter()
        daemon = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=log, env=ctx.env, cwd=ctx.root, text=True
        )
    try:
        if ctx.daemon_cpus:
            os.sched_setaffinity(daemon.pid, ctx.daemon_cpus)
        line = daemon.stdout.readline()
        if "listening on" not in line:
            raise RuntimeError(f"repro serve did not start: {line!r}")
        base_url = line.rsplit(" ", 1)[1].strip()
        client = ServeClient(base_url)
        while True:
            try:
                client.healthz()
                break
            except ServerUnavailable:
                if time.perf_counter() - started > 60:
                    raise
                time.sleep(0.002)
        return daemon, base_url, time.perf_counter() - started
    except BaseException:
        stop_daemon(daemon)
        raise


def stop_daemon(daemon: subprocess.Popen) -> None:
    """Ask the daemon to drain and exit; kill it if it does not."""
    if daemon.poll() is None:
        daemon.send_signal(signal.SIGTERM)
    try:
        daemon.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        daemon.kill()
        daemon.communicate()


def serve_cpus() -> Set[int]:
    """The one CPU the load generator and the daemon share.

    Every request's client and daemon work then runs at the speed of the
    CPU the reference kernel is timed on; the CPUs of a shared host change
    speed independently of each other.
    """
    return {max(os.sched_getaffinity(0))}


def _daemon_ready_s(ctx: Context) -> float:
    """Launch a daemon, stop it, and return its launch-to-healthy time."""
    daemon, _, ready_s = launch_daemon(ctx)
    stop_daemon(daemon)
    return ready_s


def _peak_rss_mb(pid: int) -> float:
    """A live process's peak resident set (``VmHWM``), in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def closed_loop(client: ServeClient, requests: Iterator[inputs.Request],
                until: float = float("inf")) -> List[Sent]:
    """Send ``requests`` over :data:`SERVE_CONNECTIONS` connections, each
    sending its next one as soon as its previous one is answered, until
    ``requests`` ends or ``until`` (a ``perf_counter`` time) passes.

    Returns the requests taken, in the order taken.  Responses are kept for
    :func:`check_sent`, so no check shares the CPU with requests in flight.
    """
    sent: List[Sent] = []
    lock = threading.Lock()

    def connection() -> None:
        while time.perf_counter() < until:
            with lock:
                request = next(requests, None)
                if request is None:
                    return
                item = Sent(request.endpoint, request.body)
                sent.append(item)
            item.sent = time.perf_counter()
            try:
                item.response = getattr(client, item.endpoint)(**item.body)
            except Exception as error:  # noqa: BLE001 - a failed request is a result
                item.problems = [f"{type(error).__name__}: {error}"]
            item.done = time.perf_counter()

    threads = [threading.Thread(target=connection) for _ in range(SERVE_CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sent


def check_sent(sent: Sequence[Sent], keep: Sequence[int] = ()) -> None:
    """Check every answered request; keep only the ``keep`` indices'
    responses, for the local-equality check."""
    keep = set(keep)
    for index, item in enumerate(sent):
        if item.response is None:
            continue
        item.problems = checks.check_served(item.endpoint, item.body, item.response)
        if index not in keep:
            item.response = None


@dataclass
class Phase:
    """One daemon lifetime: warm-up, then a measured closed-loop window."""

    sent: List[Sent]
    stats: Dict[str, Dict]
    metrics: Dict[str, Dict]
    rss_mb: float
    spans: List[Span]
    factors: List[float]


def _window_delta(after: Dict, before: Dict) -> Dict[str, object]:
    """Counter and histogram deltas of two ``/v1/metrics`` snapshots.

    A histogram's delta keeps its ``count``, ``sum`` and ``buckets`` keys.
    """
    counters = _delta(after["metrics"]["counters"], before["metrics"]["counters"])
    histograms = {}
    for name, hist in after["metrics"]["histograms"].items():
        old = before["metrics"]["histograms"].get(name, {"count": 0, "sum": 0.0, "buckets": {}})
        histograms[name] = {
            "count": hist["count"] - old["count"],
            "sum": hist["sum"] - old["sum"],
            "buckets": {
                label: count - old["buckets"].get(label, 0)
                for label, count in hist["buckets"].items()
            },
        }
    return {"counters": counters, "histograms": histograms}


def disk_latency_layers(histograms: Dict[str, Dict]) -> Dict[str, float]:
    """Disk-tier get/put latency in ms from windowed histogram deltas.

    The mean is the histogram's sum over its count.  The p50 is
    interpolated inside a bucket, so it is bound to the bucket layout: with
    every call under the first bound (1 ms) it reads half that bound.
    """
    layers = {}
    for op in ("get", "put"):
        hist = histograms.get(f"cache.disk.{op}_latency_s", {"count": 0, "sum": 0.0, "buckets": {}})
        layers[f"cache.disk.{op}_ms_mean"] = (
            hist["sum"] / hist["count"] * 1e3 if hist["count"] else 0.0
        )
        layers[f"cache.disk.{op}_ms_p50"] = histogram_quantile(hist["buckets"], 0.5) * 1e3
    return layers


def scaled_closed_loop(client: ServeClient, requests: Iterator[inputs.Request],
                       reference: hostspeed.Reference, seconds: float) -> List[Sent]:
    """:func:`closed_loop` until ``requests`` ends or ``seconds`` pass, in
    slices of :data:`SERVE_SLICE_S` with a reference kernel run after each;
    a slice's requests take the host-speed factor of the kernel runs around
    it."""
    sent: List[Sent] = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        part = closed_loop(client, requests, min(end, time.perf_counter() + SERVE_SLICE_S))
        if not part:
            break
        factor = reference.scale()
        for item in part:
            item.factor = factor
        sent.extend(part)
    return sent


def serve_phase(ctx: Context, seed: int, seconds: float, label: str, traced: bool) -> Phase:
    """Launch a fresh daemon, warm it, and measure ``seconds`` of traffic."""
    trace_path = os.path.join(ctx.work, f"{label}.trace.json") if traced else None
    scenarios = available_scenarios()
    daemon, base_url, _ = launch_daemon(ctx, trace_path)
    try:
        client = ServeClient(base_url)
        warm = closed_loop(client, iter(inputs.serve_schedule(
            seed, SERVE_WARMUP_REQUESTS, "warm-up", scenarios)))
        check_sent(warm)
        warm_problems = [p for item in warm for p in item.problems]
        if warm_problems:
            raise RuntimeError(f"warm-up request failed: {warm_problems[0]}")
        keep = _local_sample(seed, inputs.serve_schedule(
            seed, SERVE_LOCAL_SAMPLE_FROM, "measured", scenarios))
        requests = itertools.islice(inputs.serve_requests(seed, "measured", scenarios),
                                    round(SERVE_REQUESTS_PER_S * seconds))
        stats_before, metrics_before = client.stats(), client.metrics()
        reference = hostspeed.Reference(ctx.daemon_cpus)
        window_start_us = time.time() * 1e6
        sent = scaled_closed_loop(client, requests, reference, seconds)
        window_end_us = time.time() * 1e6
        stats_after, metrics_after = client.stats(), client.metrics()
        rss_mb = _peak_rss_mb(daemon.pid)
    finally:
        stop_daemon(daemon)
    check_sent(sent, keep)
    spans: List[Span] = []
    if traced:
        with open(trace_path, encoding="utf-8") as handle:
            events = json.load(handle)["traceEvents"]
        spans = [
            Span(e["name"], e["ts"], e["ts"] + e["dur"], (e["pid"], e["tid"]))
            for e in events
            if e["ph"] == "X"
            and window_start_us <= e["ts"] and e["ts"] + e["dur"] <= window_end_us
        ]
    return Phase(
        sent=sent,
        stats={"before": stats_before, "after": stats_after},
        metrics=_window_delta(metrics_after, metrics_before),
        rss_mb=rss_mb,
        spans=spans,
        factors=reference.factors,
    )


def _local_sample(seed: int, schedule: Sequence[inputs.Request]) -> List[int]:
    """Seeded indices of up to :data:`SERVE_LOCAL_SAMPLE` requests per endpoint."""
    rng = random.Random(f"local-sample:{seed}")
    chosen: List[int] = []
    for endpoint in ("sweep", "simulate", "optimize"):
        indices = [i for i, r in enumerate(schedule) if r.endpoint == endpoint]
        chosen.extend(rng.sample(indices, min(SERVE_LOCAL_SAMPLE, len(indices))))
    return sorted(chosen)


def local_resultset(endpoint: str, body: Dict[str, object], engines: Dict[str, object]):
    """The result set a local run of one served request gives."""
    if endpoint == "sweep":
        study = build_sweep_study(
            body["tdps"], body["ars"], [WorkloadType(name) for name in body["workloads"]]
        )
        return engines["spot"].run(study)
    if endpoint == "simulate":
        study = build_simulate_study(body["scenarios"], body["tdps"], body["seed"])
        return run_sim(study, engine=engines["sim"])
    space = build_optimize_space(None, list(body["params"].items()))
    return run_optimization(
        space, objectives=body["objectives"], strategy=body["strategy"],
        budget=body["budget"], seed=body["seed"],
    ).results


def check_against_local(phase: Phase) -> None:
    """Sampled responses must be ``to_json``-equal to a local run."""
    engines = {"spot": PdnSpot(), "sim": SimEngine()}
    for item in phase.sent:
        if item.response is None:
            continue
        local = local_resultset(item.endpoint, item.body, engines)
        if item.response.resultset.to_json() != local.to_json():
            item.problems.append(f"{item.endpoint} response differs from a local run")
        item.response = None


def run_serve_mixed(ctx: Context, seed: int, seconds: float, trace: bool) -> Outcome:
    """Run ``serve-mixed``; with ``trace``, an untraced and a traced half."""
    outcome = Outcome()
    ctx.daemon_cpus = serve_cpus()
    os.sched_setaffinity(0, ctx.daemon_cpus)
    if trace:
        outcome.setup_split = measure_setup(ctx, "serve", 3)
    outcome.setup = scaled_launches(
        lambda: {"wall_s": _daemon_ready_s(ctx)}, SETUP_REPEATS, ctx.daemon_cpus)
    if trace:
        phases = [
            serve_phase(ctx, seed, seconds / 2, "untraced", traced=False),
            serve_phase(ctx, seed, seconds / 2, "traced", traced=True),
        ]
    else:
        phases = [serve_phase(ctx, seed, seconds, "measured", traced=False)]
    for phase in phases:
        check_against_local(phase)
    base = phases[0]
    for item in base.sent:
        outcome.record(item.problems, f"{item.endpoint} request")
        outcome.op_s.append(item.latency_s)
        outcome.wall_op_s.append(item.wall_s)
        if item.endpoint == "sweep" and not item.problems:
            outcome.rates.append(
                checks.expected_serve_rows("sweep", item.body) / item.latency_s
            )
    outcome.host_factors = base.factors
    outcome.peak_rss_mb = base.rss_mb
    misses = sum(1 for item in base.sent if item.wall_s * 1e3 > SERVE_P90_LIMIT_MS)
    outcome.notes["limit_miss_ratio"] = misses / len(base.sent)
    if trace:
        traced = phases[1]
        for item in traced.sent:
            outcome.record(item.problems, f"traced {item.endpoint} request")
            outcome.traced_op_s.append(item.latency_s)
        outcome.layers = serve_layers(base, traced)
    return outcome


def serve_layers(base: Phase, traced: Phase) -> Dict[str, float]:
    """Per-layer values of ``serve-mixed``.

    Client timings and daemon counters come from the untraced window;
    span self times (per request, averaged over the mix) from the traced
    one.
    """
    requests = len(base.sent)
    counters = base.metrics["counters"]
    sweep_units = sum(
        checks.expected_serve_rows("sweep", item.body) for item in base.sent
        if item.endpoint == "sweep"
    )
    layers = counter_layers(counters, per=requests, units=sweep_units)
    layers.update(span_layers(
        traced.spans, per=len(traced.sent),
        phases=traced.metrics["counters"].get("sim.phases", 0),
    ))

    for endpoint in ("sweep", "simulate", "optimize"):
        latencies = [item.latency_s * 1e3 for item in base.sent if item.endpoint == endpoint]
        layers[f"client.{endpoint}_ms_p50"] = percentile(latencies, 50) if latencies else 0.0
        layers[f"client.{endpoint}_ms_p90"] = percentile(latencies, 90) if latencies else 0.0

    coalesced = defaultdict(float)
    for engine in ("sweep", "simulate"):
        after = base.stats["after"]["coalescer"][engine]
        before = base.stats["before"]["coalescer"][engine]
        for name in ("units_requested", "keys_dispatched", "keys_coalesced"):
            coalesced[name] += after[name] - before[name]
    for name, value in coalesced.items():
        layers[f"coalescer.{name}"] = value / requests
    layers["coalescer.dispatch_ratio"] = (
        coalesced["keys_dispatched"] / coalesced["units_requested"]
        if coalesced["units_requested"] else 0.0
    )
    layers["serve.errors"] = counters.get("serve.errors", 0)

    phase_after = base.stats["after"]["cache"]["memory"]["sim_phases"]
    phase_before = base.stats["before"]["cache"]["memory"]["sim_phases"]
    hits = phase_after["hits"] - phase_before["hits"]
    lookups = hits + phase_after["misses"] - phase_before["misses"]
    layers["sim.phase_hit_ratio"] = hits / lookups if lookups else 0.0

    layers.update(disk_latency_layers(base.metrics["histograms"]))

    request_ms = sum(
        span.end - span.start for span in traced.spans if span.name == "serve.request"
    ) / 1e3
    client_ms = sum(item.wall_s for item in traced.sent) * 1e3
    layers["obs.span_coverage"] = request_ms / client_ms if client_ms else 0.0
    return layers
