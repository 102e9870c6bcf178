"""The dispatch path: canonical order, dedupe, cache accounting, negotiation.

Every engine batch runs through
:func:`repro.analysis.executor.evaluate_units`.  It must be invisible in
every observable except wall clock: a batch returns its results in unit
order, computes each distinct cache key once, and leaves the shared
:class:`PdnSpot` cache exactly as warm -- with exactly the same hit/miss
accounting -- as evaluating the units one by one would.
"""

from __future__ import annotations

import importlib
import inspect
import random
import threading

import pytest

from repro.analysis.executor import MemoCacheMixin, evaluate_units
from repro.analysis.pdnspot import PdnSpot
from repro.analysis.study import Study, study_units
from repro.obs import trace as obs_trace
from repro.obs.metrics import METRICS
from repro.pdn.base import OperatingConditions
from repro.pdn.registry import available_pdns
from repro.power.domains import WorkloadType
from repro.sim.study import SimEngine, SimStudy


def _grid_study() -> Study:
    """A small but heterogeneous grid: active + idle + parameter overrides."""
    return (
        Study.builder("executor-grid")
        .tdps(4.0, 18.0)
        .application_ratios(0.4, 0.56)
        .power_states("C2", "C8")
        .parameter_grid({}, {"ivr_tolerance_band_v": 0.010})
        .build()
    )


def _grid_units() -> list:
    return study_units(_grid_study(), tuple(available_pdns()))


def _sim_units() -> list:
    study = (
        SimStudy.builder("executor-sim-grid")
        .scenarios("duty-cycled-background", "race-to-idle")
        .tdps(4.0, 50.0)
        .build()
    )
    return [
        (name, point, point.overrides)
        for point in study.points
        for name in available_pdns()
    ]


def _active_point(tdp_w: float = 4.0) -> OperatingConditions:
    return OperatingConditions.for_active_workload(
        tdp_w, 0.56, WorkloadType.CPU_MULTI_THREAD
    )


def _counter_deltas(names, action):
    """Run ``action`` and return its result plus each counter's increase."""
    counters = [METRICS.counter(name) for name in names]
    before = [counter.value for counter in counters]
    result = action()
    return result, [counter.value - start for counter, start in zip(counters, before)]


def _spy_batches(engine) -> list:
    """Record every batch ``engine.evaluate_columns`` is offered."""
    batches = []
    original = engine.evaluate_columns

    def spy(units):
        batches.append(list(units))
        return original(units)

    engine.evaluate_columns = spy
    return batches


#: Per engine: its factory and the units one test batch evaluates.
ENGINES = {
    "pdnspot": (PdnSpot, _grid_units),
    "sim": (SimEngine, _sim_units),
}


@pytest.fixture(params=sorted(ENGINES))
def engine_kind(request):
    """``(engine factory, units)`` for each engine on the dispatch path."""
    factory, units = ENGINES[request.param]
    return factory, units()


@pytest.fixture(scope="module")
def reference():
    spot = PdnSpot()
    resultset = spot.run(_grid_study())
    return resultset, spot.cache_info()


# --------------------------------------------------------------------------- #
# Canonical order
# --------------------------------------------------------------------------- #
class TestCanonicalOrder:
    def test_shuffled_units_come_back_in_input_order(self, engine_kind):
        factory, units = engine_kind
        random.Random(3).shuffle(units)
        evaluations = evaluate_units(factory(), units)
        per_unit = factory(enable_cache=False)
        assert evaluations == [per_unit.evaluate(*unit) for unit in units]

    def test_batch_order_follows_units(self):
        points = [("LDO", _active_point()), ("IVR", _active_point()), ("MBVR", _active_point(18.0))]
        evaluations = PdnSpot().evaluate_units(
            [(name, conditions, ()) for name, conditions in points]
        )
        assert [e.pdn_name for e in evaluations] == ["LDO", "IVR", "MBVR"]

    def test_empty_units_short_circuit(self, engine_kind):
        factory, _ = engine_kind
        assert evaluate_units(factory(), []) == []

    def test_generator_input_is_accepted(self, engine_kind):
        factory, units = engine_kind
        from_list = evaluate_units(factory(), units)
        assert evaluate_units(factory(), (unit for unit in units)) == from_list


# --------------------------------------------------------------------------- #
# Dedupe and cache accounting
# --------------------------------------------------------------------------- #
class TestCacheAccounting:
    def test_duplicate_heavy_batch_counts_like_per_unit(self, engine_kind):
        factory, units = engine_kind
        units = units * 3
        random.Random(7).shuffle(units)
        per_unit_engine = factory()
        per_unit = [per_unit_engine.evaluate(*unit) for unit in units]
        engine = factory()
        batches = _spy_batches(engine)
        assert engine.evaluate_units(units) == per_unit
        assert engine.cache_info() == per_unit_engine.cache_info()
        # Every distinct miss in one chunk, in first-appearance order.
        assert batches == [list(dict.fromkeys(units))]

    def test_identical_units_are_one_miss_and_hits(self, engine_kind):
        factory, units = engine_kind
        engine = factory()
        evaluations = engine.evaluate_units([units[0]] * 3)
        info = engine.cache_info()
        assert (info.hits, info.misses, info.size) == (2, 1, 1)
        assert evaluations[0] is evaluations[1] is evaluations[2]

    def test_cold_run_warms_the_shared_cache(self):
        spot = PdnSpot()
        spot.run(_grid_study())
        info = spot.cache_info()
        assert info.misses == info.size > 0
        # A follow-up single evaluation of any grid point is a pure hit.
        spot.evaluate("IVR", _active_point())
        after = spot.cache_info()
        assert after.misses == info.misses
        assert after.hits == info.hits + 1

    def test_warm_batch_is_all_hits_and_dispatches_nothing(self, engine_kind):
        factory, units = engine_kind
        engine = factory()
        cold = engine.evaluate_units(units)
        cold_info = engine.cache_info()
        batches = _spy_batches(engine)
        assert engine.evaluate_units(units) == cold
        warm_info = engine.cache_info()
        assert warm_info.misses == cold_info.misses  # nothing recomputed
        assert warm_info.hits == cold_info.hits + len(units)
        assert warm_info.size == cold_info.size
        assert batches == []

    def test_warm_run_equals_cold_run(self, reference):
        resultset, _ = reference
        spot = PdnSpot()
        spot.run(_grid_study())
        assert spot.run(_grid_study()) == resultset

    def test_on_lookup_reports_distinct_keys_served_from_cache(self, engine_kind):
        factory, units = engine_kind
        engine = factory()
        engine.evaluate_units(units[:10])
        served = []
        evaluate_units(engine, units + units[:4], on_lookup=served.append)
        assert served == [10]

    def test_on_lookup_is_not_called_with_the_cache_off(self, engine_kind):
        factory, units = engine_kind
        served = []
        evaluate_units(factory(enable_cache=False), units, on_lookup=served.append)
        assert served == []

    def test_on_lookup_reports_zero_on_a_cold_cache(self, engine_kind):
        factory, units = engine_kind
        served = []
        evaluate_units(factory(), units + units[:2], on_lookup=served.append)
        assert served == [0]

    def test_mixed_batch_dispatches_only_the_misses(self, engine_kind):
        factory, units = engine_kind
        engine = factory()
        warmed = units[::2]
        engine.evaluate_units(warmed)
        batch = units * 2
        random.Random(11).shuffle(batch)
        batches = _spy_batches(engine)
        per_unit = factory(enable_cache=False)
        assert engine.evaluate_units(batch) == [per_unit.evaluate(*unit) for unit in batch]
        # One chunk: the cold distinct units, in first-appearance order.
        assert batches == [[unit for unit in dict.fromkeys(batch) if unit not in warmed]]
        info = engine.cache_info()
        assert info.misses == info.size == len(units)
        assert info.hits == len(batch) - (len(units) - len(warmed))


# --------------------------------------------------------------------------- #
# The cache-off dispatch
# --------------------------------------------------------------------------- #
class TestCacheOffDispatch:
    def test_cache_disabled_matches_cached_results(self, reference):
        resultset, _ = reference
        spot = PdnSpot(enable_cache=False)
        assert spot.run(_grid_study()) == resultset
        assert spot.cache_info().size == 0

    def test_every_unit_is_computed_in_one_chunk(self, engine_kind):
        factory, units = engine_kind
        engine = factory(enable_cache=False)
        batches = _spy_batches(engine)
        evaluations = engine.evaluate_units([units[0]] * 3)
        assert batches == [[units[0]] * 3]  # duplicates not deduped
        assert evaluations[0] == evaluations[1] == evaluations[2]
        assert evaluations[0] is not evaluations[1]
        info = engine.cache_info()
        assert (info.hits, info.misses, info.size) == (0, 0, 0)


# --------------------------------------------------------------------------- #
# Dispatch counters
# --------------------------------------------------------------------------- #
class TestDispatchCounters:
    COUNTERS = ["executor.chunks", "cache.installs", "cache.lookup.misses"]

    def test_warm_batch_dispatches_no_chunk(self, engine_kind):
        factory, units = engine_kind
        engine = factory()
        engine.evaluate_units(units)
        _, deltas = _counter_deltas(self.COUNTERS, lambda: engine.evaluate_units(units))
        assert deltas == [0, 0, 0]

    @pytest.mark.parametrize("enable_cache", [True, False])
    def test_cold_batch_is_one_chunk(self, enable_cache):
        units = _grid_units()
        batch = units + units[:5]
        spot = PdnSpot(enable_cache=enable_cache)
        names = self.COUNTERS + ["executor.columnar.units"]
        _, deltas = _counter_deltas(names, lambda: spot.evaluate_units(batch))
        if enable_cache:
            assert deltas == [1, len(units), len(units), len(units)]
        else:  # no dedupe, no cache traffic: every unit rides the chunk
            assert deltas == [1, 0, 0, len(batch)]


# --------------------------------------------------------------------------- #
# Dispatch spans (the names perfbench and the trace-smoke check read)
# --------------------------------------------------------------------------- #
@pytest.fixture
def tracer():
    """An installed tracer, uninstalled again after the test."""
    tracer = obs_trace.install_tracer()
    try:
        yield tracer
    finally:
        obs_trace.uninstall_tracer()


def _dispatch_spans(tracer):
    """The batch's own ``executor.*`` spans, keyed by name.

    The simulation engine runs a nested analytic batch inside its chunk;
    its executor spans carry a ``parent`` or exit first, so the batch's
    own spans are the top-level ones plus the *last* chunk and merge-back.
    """
    spans = {}
    for record in tracer.records():
        if record.category != "executor":
            continue
        if record.name in ("executor.chunk", "executor.merge_back"):
            spans[record.name] = record
        elif "parent" not in record.args:
            spans.setdefault(record.name, []).append(record)
    return spans


class TestSpans:
    def test_cold_batch_span_tree(self, engine_kind, tracer):
        factory, units = engine_kind
        factory().evaluate_units(units + units[:3])
        spans = _dispatch_spans(tracer)
        tag = factory.engine_tag
        assert sorted(spans) == [
            "executor.chunk", "executor.dedupe", "executor.dispatch",
            "executor.merge_back", "executor.reassemble",
        ]
        (dedupe,), (dispatch,), (reassemble,) = (
            spans["executor.dedupe"], spans["executor.dispatch"],
            spans["executor.reassemble"],
        )
        assert dedupe.args == {
            "engine": tag, "units": len(units) + 3, "dispatched": len(units),
            "duplicates": 3,
        }
        assert dispatch.args == {"engine": tag, "chunks": 1}
        assert spans["executor.chunk"].args == {
            "engine": tag, "units": len(units), "columnar": True,
            "parent": "executor.dispatch",
        }
        assert spans["executor.merge_back"].args == {
            "engine": tag, "units": len(units), "parent": "executor.dispatch",
        }
        assert reassemble.args == {"engine": tag, "duplicates": 3}

    def test_warm_batch_skips_chunk_and_merge_back(self, engine_kind, tracer):
        factory, units = engine_kind
        engine = factory()
        engine.evaluate_units(units)
        start = len(tracer.records())
        engine.evaluate_units(units)
        spans = [(record.name, record.args) for record in tracer.records()[start:]]
        tag = factory.engine_tag
        assert spans == [
            ("executor.dedupe",
             {"engine": tag, "units": len(units), "dispatched": 0, "duplicates": 0}),
            ("executor.dispatch", {"engine": tag, "chunks": 0}),
            ("executor.reassemble", {"engine": tag, "duplicates": 0}),
        ]

    def test_cache_off_batch_is_dispatch_and_chunk(self, engine_kind, tracer):
        factory, units = engine_kind
        factory(enable_cache=False).evaluate_units(units + units[:3])
        spans = _dispatch_spans(tracer)
        assert sorted(spans) == ["executor.chunk", "executor.dispatch"]
        assert [record.args for record in spans["executor.dispatch"]] == [
            {"engine": factory.engine_tag, "chunks": 1}
        ]
        assert spans["executor.chunk"].args["units"] == len(units) + 3

    def test_spans_name_their_engine_layer(self, tracer):
        # A simulation batch evaluates its static phase points through the
        # analytic engine's own dispatch: one chunk per layer, each tagged.
        unit = next(unit for unit in _sim_units() if unit[0] != "FlexWatts")
        SimEngine(enable_cache=False).evaluate_units([unit] * 3)
        chunks = [r.args["engine"] for r in tracer.records() if r.name == "executor.chunk"]
        assert sorted(chunks) == ["pdnspot", "sim"]
        assert {
            record.args["engine"] for record in tracer.records()
            if record.category == "executor"
        } == {"pdnspot", "sim"}

    def test_engines_without_a_namespace_are_tagged_by_class(self, tracer):
        evaluate_units(_EchoEngine(True), [("A", 1, ())])
        assert {record.args["engine"] for record in tracer.records()} == {"_EchoEngine"}

    @pytest.mark.parametrize("columnar", [True, False])
    def test_chunk_span_records_the_negotiation(self, columnar, tracer):
        units = [("A", 1, ()), ("B", 2, ())]
        evaluate_units(_EchoEngine(columnar), units)
        (chunk,) = [r for r in tracer.records() if r.name == "executor.chunk"]
        assert chunk.args["columnar"] is columnar
        assert chunk.args["units"] == len(units)


class _EchoEngine(MemoCacheMixin):
    """A minimal memory-only engine whose result for a unit is the unit."""

    cache_enabled = True

    def __init__(self, columnar: bool):
        self._cache = {}
        self._cache_lock = threading.Lock()
        self._cache_hits = self._cache_misses = 0
        self._columnar = columnar
        self.per_unit = []

    def cache_key(self, name, point, overrides):
        return (overrides, name, point)

    def evaluate_uncached(self, name, point, overrides):
        self.per_unit.append((name, point, overrides))
        return (name, point, overrides)

    def evaluate_columns(self, units):
        return [tuple(unit) for unit in units] if self._columnar else None


# --------------------------------------------------------------------------- #
# Columnar negotiation
# --------------------------------------------------------------------------- #
class TestColumnarNegotiation:
    COUNTERS = ["executor.columnar.chunks", "executor.columnar.units",
                "executor.scalar.units"]

    def test_columnar_engine_takes_the_whole_chunk(self):
        units = _grid_units()
        _, deltas = _counter_deltas(
            self.COUNTERS, lambda: PdnSpot().evaluate_units(units)
        )
        assert deltas == [1, len(units), 0]

    def test_declined_batch_runs_per_unit(self, reference):
        resultset, _ = reference
        spot = PdnSpot(columnar=False)
        units = _grid_units()
        (declined,), deltas = _counter_deltas(
            self.COUNTERS, lambda: [spot.run(_grid_study())]
        )
        assert declined == resultset
        assert deltas == [0, 0, len(units)]

    @pytest.mark.parametrize("columnar", [True, False])
    def test_negotiation_on_a_minimal_engine(self, columnar):
        units = [("A", 1, ()), ("B", 2, ()), ("A", 1, ()), ("C", 3, ())]
        engine = _EchoEngine(columnar)
        results, deltas = _counter_deltas(
            self.COUNTERS, lambda: evaluate_units(engine, units)
        )
        assert results == units
        distinct = list(dict.fromkeys(units))
        if columnar:
            assert engine.per_unit == []
            assert deltas == [1, len(distinct), 0]
        else:
            assert engine.per_unit == distinct  # declined: per unit, in order
            assert deltas == [0, 0, len(distinct)]


# --------------------------------------------------------------------------- #
# Caller isolation
# --------------------------------------------------------------------------- #
class TestCallerIsolation:
    def test_merged_entries_are_caller_isolated(self):
        # Merged-back masters are shared with every later hit, so a caller
        # must not be able to change them at all.
        spot = PdnSpot()
        first = spot.evaluate_units([("IVR", _active_point(), ())])[0]
        with pytest.raises((AttributeError, TypeError)):
            first.rail_voltages_v.clear()
        with pytest.raises(TypeError):
            first.rail_voltages_v["V_IN"] = 0.0
        second = spot.evaluate("IVR", _active_point())
        assert second is first
        assert second.rail_voltages_v


# --------------------------------------------------------------------------- #
# Concurrent evaluate accounting (the CacheInfo lock)
# --------------------------------------------------------------------------- #
class TestThreadSafeAccounting:
    def test_concurrent_lookups_lose_no_counter_updates(self):
        spot = PdnSpot()
        conditions = _active_point()
        spot.evaluate("IVR", conditions)  # 1 miss, cache warm
        calls_per_thread, thread_count = 50, 8
        barrier = threading.Barrier(thread_count)

        def hammer():
            barrier.wait()
            for _ in range(calls_per_thread):
                spot.evaluate("IVR", conditions)

        threads = [threading.Thread(target=hammer) for _ in range(thread_count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        info = spot.cache_info()
        assert info.hits == calls_per_thread * thread_count
        assert info.misses == 1
        assert info.size == 1


# --------------------------------------------------------------------------- #
# The removed dispatch surface stays removed
# --------------------------------------------------------------------------- #
#: Every batch entry point and driver that used to take ``executor=``/``jobs=``.
BATCH_ENTRY_POINTS = [
    "repro.analysis.pdnspot:PdnSpot.run",
    "repro.analysis.pdnspot:PdnSpot.evaluate_units",
    "repro.sim.study:SimEngine.run",
    "repro.sim.study:SimEngine.evaluate_units",
    "repro.sim.study:run_sim",
    "repro.optimize.runner:run_optimization",
    "repro.optimize.objectives:CandidateEvaluator.evaluate_batch",
    "repro.serve.coalescer:evaluate_units_async",
    "repro.serve.coalescer:Coalescer",
    "repro.serve.server:EvaluationServer",
    "repro.experiments.runner:run_all_experiments",
    "repro.experiments.fig4_validation:etee_grid_resultset",
    "repro.experiments.fig4_validation:power_state_grid_resultset",
    "repro.experiments.fig5_loss_breakdown:loss_breakdown",
    "repro.experiments.fig7_spec_4w:spec_performance_at_4w",
    "repro.experiments.fig8_evaluation:prewarm_figure8",
    "repro.experiments.optimize_pdn:optimize_outcome",
    "repro.experiments.sim_scenarios:scenario_resultset",
]

#: Per module, the backend, registry and worker names the one path replaced.
REMOVED_NAMES = {
    "repro": ["Executor", "ProcessExecutor", "SerialExecutor", "make_executor"],
    "repro.analysis.executor": [
        "Executor", "ProcessExecutor", "SerialExecutor", "EXECUTORS",
        "ExecutorLike", "make_executor", "default_jobs", "shard",
        "MIN_COLUMNAR_CHUNK", "WorkerRecipe", "WorkerChunkPayload",
    ],
    "repro.analysis.pdnspot": ["WorkerConfig"],
    "repro.sim.study": ["SimWorkerConfig"],
    "repro.obs.runstats": ["executor_label"],
}


def _resolve(path: str):
    module_name, _, qualname = path.partition(":")
    target = importlib.import_module(module_name)
    for part in qualname.split("."):
        target = getattr(target, part)
    return target


class TestRemovedSurface:
    @pytest.mark.parametrize("path", BATCH_ENTRY_POINTS)
    def test_entry_point_takes_no_dispatch_parameter(self, path):
        parameters = inspect.signature(_resolve(path)).parameters
        assert not {"executor", "jobs"} & set(parameters)

    @pytest.mark.parametrize("module_name", sorted(REMOVED_NAMES))
    def test_removed_names_are_gone(self, module_name):
        module = importlib.import_module(module_name)
        assert [name for name in REMOVED_NAMES[module_name]
                if hasattr(module, name)] == []

    @pytest.mark.parametrize("engine", [PdnSpot, SimEngine])
    def test_engines_carry_no_worker_recipe(self, engine):
        assert not hasattr(engine, "worker_config")
        assert not hasattr(engine, "columnar_enabled")
