"""Property-based equivalence suite for the vectorized columnar core.

The columnar path's contract is **bit-identity**: for every PDN topology,
every metric and every operating point, ``evaluate_columns`` must return
``PdnEvaluation`` objects that compare *equal* (dataclass equality over
every float field, loss breakdown and rail voltage) to the per-point scalar
oracle.  These tests exercise that contract over randomized grids -- seeded
``random.Random`` draws over topology x parameter overrides x operating
conditions -- and check that a batch that interleaves column blocks
reproduces the per-point result exactly.
"""

import random

import pytest

from repro.analysis.pdnspot import PdnSpot
from repro.core.hybrid_vr import PdnMode
from repro.pdn import columnar
from repro.pdn.base import OperatingConditions
from repro.pdn.mbvr import MbvrPdn
from repro.pdn.registry import build_pdn
from repro.power.domains import DomainKind, WorkloadType
from repro.power.parameters import PdnTechnologyParameters
from repro.power.power_states import BATTERY_LIFE_STATES
from repro.obs.metrics import METRICS
from repro.sim.study import SimEngine, SimPoint
from repro.workloads.scenarios import available_scenarios

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
        assert results == [pdn.evaluate(c) for c in conditions]

    @pytest.mark.parametrize("mode", list(PdnMode))
    def test_flexwatts_forced_modes_match_oracle(self, mode):
        rng = random.Random(23)
        flexwatts = build_pdn("FlexWatts")
        conditions = random_conditions(rng, 40)
        results = columnar.evaluate_columns(flexwatts, conditions, mode=mode)
        assert results == [flexwatts.evaluate_in_mode(c, mode) for c in conditions]

    @pytest.mark.parametrize("pdn_name", PDN_NAMES)
    def test_one_lane_batches_match_oracle(self, pdn_name):
        pdn = build_pdn(pdn_name)
        for conditions in random_conditions(random.Random(61), 8):
            assert columnar.evaluate_columns(pdn, [conditions]) == [
                pdn.evaluate(conditions)
            ]

    @pytest.mark.parametrize("mode", list(PdnMode))
    def test_forced_mode_sub_batch_after_parent_memos(self, mode):
        conditions = random_conditions(random.Random(67), 50)
        parent = columnar.ConditionsBatch.from_conditions(conditions)
        mbvr = build_pdn("MBVR")
        assert columnar.evaluate_columns(mbvr, conditions, batch=parent) == [
            mbvr.evaluate(c) for c in conditions
        ]
        assert parent._tdp_unique is not None, "the parent's TDP memo is filled"
        lanes = [31, 2, 2, 17, 44, 5, 38, 9, 0]
        sub = parent.take(lanes)
        flexwatts = build_pdn("FlexWatts")
        results = columnar.evaluate_columns(
            flexwatts, sub.conditions, mode=mode, batch=sub
        )
        assert results == [
            flexwatts.evaluate_in_mode(conditions[lane], mode) for lane in lanes
        ]

    @pytest.mark.parametrize("pdn_name", PDN_NAMES)
    def test_zero_power_gate_impedance_matches_oracle(self, pdn_name):
        defaults = PdnTechnologyParameters().power_gate_impedance_ohm
        parameters = PdnTechnologyParameters().with_overrides(
            power_gate_impedance_ohm={
                **defaults,
                DomainKind.CORE1: 0.0,
                DomainKind.GFX: 0.0,
                DomainKind.IO: 0.0,
            }
        )
        pdn = build_pdn(pdn_name, parameters)
        conditions = random_conditions(random.Random(71), 40)
        results = columnar.evaluate_columns(pdn, conditions)
        assert results == [pdn.evaluate(c) for c in conditions]


    def test_subclass_rides_its_base_kernel(self):
        class Constrained(MbvrPdn):
            """A part that only constrains its base model's parameters."""

        parameters = PdnTechnologyParameters().with_overrides(mbvr_tolerance_band_v=0.012)
        pdn = Constrained(parameters)
        conditions = random_conditions(random.Random(79), 30)
        assert columnar.evaluate_columns(pdn, conditions) == [
            pdn.evaluate(c) for c in conditions
        ]

    def test_patched_model_method_does_not_change_a_batch(self):
        pdn = build_pdn("MBVR")
        conditions = random_conditions(random.Random(83), 10)
        expected = [pdn.evaluate(c) for c in conditions]
        pdn.evaluate = lambda point: "patched"
        assert columnar.evaluate_columns(pdn, conditions) == expected

    def test_model_without_a_kernel_is_a_type_error(self):
        with pytest.raises(TypeError, match="no columnar kernel for object"):
            columnar.evaluate_columns(object(), random_conditions(random.Random(1), 2))

    def test_marked_lane_the_model_accepts_is_a_loud_bug(self):
        pdn = build_pdn("MBVR")
        conditions = random_conditions(random.Random(3), 4)
        conditions.insert(
            2,
            OperatingConditions.for_active_workload(45.0, 0.01, WorkloadType.CPU_MULTI_THREAD),
        )
        pdn.evaluate = lambda point: None  # accepts the point the kernel marks
        with pytest.raises(RuntimeError, match=r"marked lane 2 \(TDP 45 W, AR 0.01\)"):
            columnar.evaluate_columns(pdn, conditions)


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
        assert scalar_spot.evaluate_columns(units) is None
        assert columnar_spot.evaluate_units(units) == scalar_spot.evaluate_units(units)

    @pytest.mark.parametrize("enable_cache", [True, False])
    @pytest.mark.parametrize("method", ["evaluate", "_evaluate_cached"])
    def test_evaluate_patch_keeps_columnar(self, monkeypatch, method, enable_cache):
        # No batch calls ``evaluate`` or ``_evaluate_cached``, so patching
        # either must not turn the engine's columnar path off.
        spot = PdnSpot(enable_cache=enable_cache)
        monkeypatch.setattr(
            spot, method, lambda name, c, overrides=(): "patched"
        )
        conditions = random_conditions(random.Random(5), 6)
        units = [("IVR", c, ()) for c in conditions]
        block_units = METRICS.counter("engine.columnar.block_units")
        before = block_units.value
        results = spot.evaluate_units(units)
        assert block_units.value - before == len(units)
        assert results == [spot.evaluate_uncached(*unit) for unit in units]

    def test_interleaved_column_blocks_bit_identical(self):
        # 300 units interleaving two override variants: the batch regroups
        # them into whole column blocks and must still answer in unit order.
        rng = random.Random(29)
        overrides = (("ivr_tolerance_band_v", 0.012),)
        units = [
            (name, conditions, rng.choice([(), overrides]))
            for conditions in random_conditions(rng, 60)
            for name in PDN_NAMES
        ]
        columnar_results = PdnSpot(enable_cache=False).evaluate_units(units)
        per_point = PdnSpot(enable_cache=False, columnar=False).evaluate_units(units)
        assert columnar_results == per_point


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

    @pytest.mark.parametrize("overrides", [(), SIM_OVERRIDES], ids=["default", "overrides"])
    def test_mode_memo_matches_per_unit_path(self, overrides):
        """With the cache on, a batch leaves the cross-run mode memo with the
        same keys -- and equal evaluations -- as the per-unit path."""
        units = _sim_units(overrides)
        batch = SimEngine()
        batch.evaluate_units(units)
        per_unit = SimEngine()
        for unit in units:
            per_unit.evaluate_uncached(*unit)
        assert batch._mode_evaluations.keys() == per_unit._mode_evaluations.keys()
        assert batch._mode_evaluations == per_unit._mode_evaluations
