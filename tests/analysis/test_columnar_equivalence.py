"""Property-based equivalence suite for the vectorized columnar core.

The columnar path's contract is **bit-identity**: for every PDN topology,
every metric and every operating point, ``evaluate_columns`` must return
``PdnEvaluation`` objects that compare *equal* (dataclass equality over
every float field, loss breakdown and rail voltage) to the per-point scalar
oracle.  These tests exercise that contract over randomized grids -- seeded
``random.Random`` draws over topology x parameter overrides x operating
conditions -- plus the negotiated fallbacks: patched models and engines
must decline the fast path so the patch is honoured, and executor sharding
of column blocks must reproduce the serial result exactly.
"""

import random

import pytest

from repro.analysis.pdnspot import PdnSpot
from repro.core.hybrid_vr import PdnMode
from repro.pdn import columnar
from repro.pdn.base import OperatingConditions
from repro.pdn.registry import build_pdn
from repro.power.domains import WorkloadType
from repro.power.power_states import BATTERY_LIFE_STATES
from repro.obs.metrics import METRICS
from repro.sim.study import SimEngine, SimPoint
from repro.workloads.scenarios import available_scenarios

pytestmark = pytest.mark.skipif(
    not columnar.HAVE_NUMPY, reason="columnar path needs NumPy"
)

PDN_NAMES = ("IVR", "MBVR", "LDO", "I+MBVR", "FlexWatts")

WORKLOAD_TYPES = (
    WorkloadType.CPU_SINGLE_THREAD,
    WorkloadType.CPU_MULTI_THREAD,
    WorkloadType.GRAPHICS,
)

#: Override keys with value ranges safely inside every model's domain.
OVERRIDE_RANGES = {
    "ivr_tolerance_band_v": (0.010, 0.030),
    "mbvr_tolerance_band_v": (0.010, 0.030),
    "ldo_tolerance_band_v": (0.008, 0.025),
    "leakage_exponent": (2.2, 3.2),
    "flexwatts_loadline_scale": (1.02, 1.25),
}


def random_conditions(rng: random.Random, count: int):
    """A randomized mix of active-workload and package-C-state points."""
    points = []
    for _ in range(count):
        tdp_w = rng.uniform(4.0, 50.0)
        if rng.random() < 0.75:
            points.append(
                OperatingConditions.for_active_workload(
                    tdp_w, rng.uniform(0.40, 0.80), rng.choice(WORKLOAD_TYPES)
                )
            )
        else:
            points.append(
                OperatingConditions.for_power_state(
                    tdp_w, rng.choice(BATTERY_LIFE_STATES)
                )
            )
    return points


def random_overrides(rng: random.Random):
    """A random override tuple in the engine's canonical key form."""
    keys = rng.sample(sorted(OVERRIDE_RANGES), k=rng.randint(1, 2))
    return tuple((key, round(rng.uniform(*OVERRIDE_RANGES[key]), 6)) for key in keys)


# --------------------------------------------------------------------------- #
# Model level: columnar kernels versus the scalar oracle
# --------------------------------------------------------------------------- #
class TestModelEquivalence:
    @pytest.mark.parametrize("pdn_name", PDN_NAMES)
    @pytest.mark.parametrize("seed", [7, 1337])
    def test_randomized_grid_matches_oracle(self, pdn_name, seed):
        rng = random.Random(seed)
        pdn = build_pdn(pdn_name)
        conditions = random_conditions(rng, 60)
        results = columnar.evaluate_columns(pdn, conditions)
        assert results is not None, "unpatched model must take the fast path"
        assert results == [pdn.evaluate(c) for c in conditions]

    @pytest.mark.parametrize("mode", list(PdnMode))
    def test_flexwatts_forced_modes_match_oracle(self, mode):
        rng = random.Random(23)
        flexwatts = build_pdn("FlexWatts")
        conditions = random_conditions(rng, 40)
        results = columnar.evaluate_columns(flexwatts, conditions, mode=mode)
        assert results is not None
        assert results == [flexwatts.evaluate_in_mode(c, mode) for c in conditions]

    def test_instance_patch_loses_capability(self):
        pdn = build_pdn("MBVR")
        assert columnar.supports_columns(pdn)
        pdn.evaluate = lambda conditions: "patched"  # what-if style instance patch
        assert not columnar.supports_columns(pdn)
        assert columnar.evaluate_columns(pdn, random_conditions(random.Random(1), 4)) is None

    def test_class_patch_loses_capability(self, monkeypatch):
        from repro.pdn.ivr import IvrPdn

        original = IvrPdn.evaluate
        monkeypatch.setattr(IvrPdn, "evaluate", lambda self, c: original(self, c))
        assert not columnar.supports_columns(build_pdn("IVR"))


# --------------------------------------------------------------------------- #
# Engine level: evaluate_units through the columnar negotiation
# --------------------------------------------------------------------------- #
class TestEngineEquivalence:
    @pytest.mark.parametrize("seed", [11, 2024])
    def test_randomized_units_with_overrides(self, seed):
        rng = random.Random(seed)
        spot = PdnSpot(enable_cache=False)
        override_pool = [(), random_overrides(rng), random_overrides(rng)]
        units = [
            (rng.choice(PDN_NAMES), conditions, rng.choice(override_pool))
            for conditions in random_conditions(rng, 80)
        ]
        got = spot.evaluate_units(units)
        assert got == [spot.evaluate_uncached(*unit) for unit in units]

    def test_cached_engine_matches_uncached(self):
        rng = random.Random(5)
        units = [
            (name, conditions, ())
            for conditions in random_conditions(rng, 30)
            for name in PDN_NAMES
        ]
        cached = PdnSpot().evaluate_units(units)
        uncached = PdnSpot(enable_cache=False).evaluate_units(units)
        assert cached == uncached

    def test_columnar_disabled_engine_matches(self):
        rng = random.Random(17)
        units = [
            (name, conditions, ())
            for conditions in random_conditions(rng, 25)
            for name in PDN_NAMES
        ]
        columnar_spot = PdnSpot(enable_cache=False)
        scalar_spot = PdnSpot(enable_cache=False, columnar=False)
        assert columnar_spot.columnar_enabled
        assert not scalar_spot.columnar_enabled
        assert columnar_spot.evaluate_units(units) == scalar_spot.evaluate_units(units)

    def test_engine_patch_declines_columnar(self, monkeypatch):
        spot = PdnSpot(enable_cache=False)
        sentinel = object()
        monkeypatch.setattr(
            spot, "evaluate_uncached", lambda name, c, overrides=(): sentinel
        )
        conditions = random_conditions(random.Random(3), 6)
        units = [("IVR", c, ()) for c in conditions]
        assert spot.evaluate_columns(units) is None
        assert spot.evaluate_units(units) == [sentinel] * len(units)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_executor_columnar_shards_bit_identical(self, backend):
        # 300 units across two override variants: enough for multiple whole
        # column blocks per shard, small enough for a test-suite budget.
        rng = random.Random(29)
        overrides = (("ivr_tolerance_band_v", 0.012),)
        units = [
            (name, conditions, rng.choice([(), overrides]))
            for conditions in random_conditions(rng, 60)
            for name in PDN_NAMES
        ]
        serial = PdnSpot(enable_cache=False).evaluate_units(units)
        parallel = PdnSpot(enable_cache=False).evaluate_units(
            units, executor=backend, jobs=2
        )
        assert parallel == serial


# --------------------------------------------------------------------------- #
# Simulation level: the engine's batch pass over distinct phase points
# --------------------------------------------------------------------------- #
#: The 8 built-in scenarios, pinned at import (tests may register more).
SIM_SCENARIOS = available_scenarios()
SIM_TDPS_W = (4.0, 18.0, 50.0)

#: One technology-parameter override set touching static and hybrid models.
SIM_OVERRIDES = (("flexwatts_loadline_scale", 1.2), ("ivr_tolerance_band_v", 0.03))


def _sim_units(overrides):
    """Every built-in scenario x {4, 18, 50} W x every PDN."""
    return [
        (name, SimPoint(scenario=scenario, tdp_w=tdp_w, overrides=overrides), overrides)
        for scenario in SIM_SCENARIOS
        for tdp_w in SIM_TDPS_W
        for name in PDN_NAMES
    ]


@pytest.fixture(scope="module")
def sim_oracle():
    """Per-unit ``evaluate_uncached`` results, per override set."""
    engine = SimEngine(enable_cache=False)
    return {
        overrides: [engine.evaluate_uncached(*unit) for unit in _sim_units(overrides)]
        for overrides in ((), SIM_OVERRIDES)
    }


class TestSimBatchEquivalence:
    @pytest.mark.parametrize("enable_cache", [True, False], ids=["cache", "no-cache"])
    @pytest.mark.parametrize("overrides", [(), SIM_OVERRIDES], ids=["default", "overrides"])
    def test_batch_matches_per_unit_oracle(self, sim_oracle, enable_cache, overrides):
        batches = METRICS.counter("sim.prefill_batches")
        before = batches.value
        results = SimEngine(enable_cache=enable_cache).evaluate_units(_sim_units(overrides))
        assert batches.value > before
        assert results == sim_oracle[overrides]

    def test_declined_columns_fall_back_per_point(self, sim_oracle, monkeypatch):
        monkeypatch.setattr(columnar, "evaluate_columns", lambda *args, **kwargs: None)
        units = _sim_units(())
        results = SimEngine().evaluate_units(units)
        assert results == sim_oracle[()]
