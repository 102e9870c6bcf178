"""Physical invariants of batch-simulated traces, over seeded random draws.

The bit-identity suites check that every execution path reproduces the
per-unit oracle; these tests check that the numbers themselves are physical.
Each draw is a seeded ``(scenario, trace seed, TDP)`` triple, simulated on
every PDN through the engine's batch pass:

- the trace-level and every phase-level ETEE lie in (0, 1];
- energy is power x time per phase, and the total adds switch energy;
- phase durations sum to the trace horizon (total time minus switch time);
- successive mode switches are at least the minimum residency apart;
- cached, uncached and served runs agree.

Results keep their phases as columns until the records are first read, so
the energy and horizon invariants are checked twice on fresh results: from
the summary properties before any record exists, then from the records
once built.  Column sums and record sums must agree exactly.
"""

from __future__ import annotations

import math
import pickle
import random

import pytest

from repro.core.hybrid_vr import PdnMode
from repro.core.mode_switching import ModeSwitchController
from repro.serve import ServeClient, start_in_thread
from repro.serve.protocol import build_simulate_study
from repro.sim.engine import phase_conditions, phase_duration
from repro.sim.study import SimEngine, SimPoint, run_sim
from repro.workloads.scenarios import available_scenarios, build_scenario_trace

PDN_NAMES = ("IVR", "MBVR", "LDO", "I+MBVR", "FlexWatts")

#: Minimum residency of the default controller every engine run uses.
MIN_RESIDENCY_S = 10e-3


def _draws(seed: int, count: int):
    rng = random.Random(seed)
    scenarios = available_scenarios()
    return [
        (rng.choice(scenarios), rng.randrange(10_000), round(rng.uniform(4.0, 50.0), 3))
        for _ in range(count)
    ]


DRAWS = _draws(20201017, 12)


def _simulate_draws():
    """``(draw, trace, {pdn: SimulationResult})`` for every draw, freshly run."""
    units = [
        (name, SimPoint(scenario=scenario, tdp_w=tdp_w, seed=seed), ())
        for scenario, seed, tdp_w in DRAWS
        for name in PDN_NAMES
    ]
    results = iter(SimEngine().evaluate_units(units))
    return [
        (
            (scenario, seed, tdp_w),
            build_scenario_trace(scenario, seed=seed),
            {name: next(results) for name in PDN_NAMES},
        )
        for scenario, seed, tdp_w in DRAWS
    ]


@pytest.fixture(scope="module")
def batch_runs():
    """The draws' results, shared by the tests that read records."""
    return _simulate_draws()


def _runs(batch_runs):
    for draw, trace, by_pdn in batch_runs:
        for name, result in by_pdn.items():
            yield draw, trace, name, result


class TestEnergyInvariants:
    def test_etee_is_a_fraction(self, batch_runs):
        for (_, _, tdp_w), trace, name, result in _runs(batch_runs):
            nominal_j = 0.0
            for record in result.phase_records:
                phase = trace.phases[record.phase_index]
                nominal_w = phase_conditions(phase, tdp_w).nominal_power_w
                assert 0.0 < nominal_w / record.supply_power_w <= 1.0, (name, record)
                nominal_j += nominal_w * record.duration_s
            assert 0.0 < nominal_j / result.total_energy_j <= 1.0, name

    def test_energy_is_power_times_time_plus_switch_energy(self, batch_runs):
        for _, _, name, result in _runs(batch_runs):
            for record in result.phase_records:
                assert record.energy_j == record.supply_power_w * record.duration_s
            phase_j = sum(record.energy_j for record in result.phase_records)
            assert result.total_energy_j == phase_j + result.mode_switch_energy_j, name
            if result.mode_switch_count == 0:
                assert result.mode_switch_energy_j == 0.0

    def test_phase_durations_sum_to_the_horizon(self, batch_runs):
        for _, trace, name, result in _runs(batch_runs):
            phase_s = sum(record.duration_s for record in result.phase_records)
            assert phase_s == pytest.approx(
                result.total_time_s - result.mode_switch_time_s, rel=1e-12, abs=0.0
            )
            horizon_s = sum(phase_duration(phase, 1.0) for phase in trace.phases)
            assert phase_s == horizon_s, name


class TestSummariesBeforeAndAfterRecords:
    """The energy and horizon invariants on columnar results: from the
    summaries while no record exists, then from the built records."""

    def test_columns_then_records(self):
        checked = 0
        for (_, _, tdp_w), trace, by_pdn in _simulate_draws():
            live = [
                phase for phase in trace.phases if phase_duration(phase, 1.0) > 0.0
            ]
            nominal_j = sum(
                phase_conditions(phase, tdp_w).nominal_power_w
                * phase_duration(phase, 1.0)
                for phase in live
            )
            horizon_s = sum(phase_duration(phase, 1.0) for phase in trace.phases)
            for name, result in by_pdn.items():
                assert "phase_records" not in result.__dict__, name
                # From the summaries alone.
                total_j = result.total_energy_j
                total_s = result.total_time_s
                mode_s = [result.time_in_mode_s(mode) for mode in PdnMode]
                assert 0.0 < nominal_j / total_j <= 1.0, name
                assert total_s == horizon_s + result.mode_switch_time_s, name
                assert result.average_power_w == total_j / total_s
                assert "phase_records" not in result.__dict__, name
                # From the records, once built: the same sums, exactly.
                records = result.phase_records
                assert len(records) == len(live)
                for record in records:
                    assert record.energy_j == record.supply_power_w * record.duration_s
                    nominal_w = phase_conditions(
                        trace.phases[record.phase_index], tdp_w
                    ).nominal_power_w
                    assert 0.0 < nominal_w / record.supply_power_w <= 1.0, name
                phase_j = sum(record.energy_j for record in records)
                phase_s = sum(record.duration_s for record in records)
                assert total_j == phase_j + result.mode_switch_energy_j, name
                assert total_s == phase_s + result.mode_switch_time_s, name
                assert phase_s == horizon_s, name
                assert mode_s == [
                    sum(
                        (r.duration_s for r in records if r.pdn_mode == mode.value),
                        0.0,
                    )
                    for mode in PdnMode
                ]
                assert (result.total_energy_j, result.total_time_s) == (total_j, total_s)
                # An unpickled (eager) result sums its records to the same.
                loaded = pickle.loads(pickle.dumps(result))
                assert "_columns" not in loaded.__dict__
                assert (loaded.total_energy_j, loaded.total_time_s) == (total_j, total_s)
                assert [loaded.time_in_mode_s(mode) for mode in PdnMode] == mode_s
                assert loaded.adaptive is result.adaptive is (name == "FlexWatts")
                checked += 1
        assert checked == len(DRAWS) * len(PDN_NAMES)


class TestModeSwitchInvariants:
    def test_switches_respect_the_minimum_residency(self, batch_runs):
        total = 0
        for draw, _, name, result in _runs(batch_runs):
            switches = 0
            since_switch_s = math.inf
            for record in result.phase_records:
                # Accumulated exactly as the controller's residency clock is.
                since_switch_s += record.duration_s
                if record.mode_switched:
                    assert since_switch_s >= MIN_RESIDENCY_S, (draw, record)
                    since_switch_s = 0.0
                    switches += 1
            assert switches == result.mode_switch_count
            if name != "FlexWatts":
                assert result.mode_switch_count == 0
            total += switches
        assert total > 0  # the draws do exercise the guard

    def test_switch_time_is_whole_flows(self, batch_runs):
        flow_s = ModeSwitchController().overheads.total_latency_s
        for _, _, _, result in _runs(batch_runs):
            assert result.mode_switch_time_s == pytest.approx(
                result.mode_switch_count * flow_s
            )


class TestPathAgreement:
    """Cached, uncached and served runs of the same draws agree."""

    DRAW_SEED = 20201018

    def _studies(self):
        return [
            build_simulate_study([scenario], [tdp_w], seed)
            for scenario, seed, tdp_w in _draws(self.DRAW_SEED, 3)
        ]

    def test_cached_uncached_and_served_runs_agree(self):
        studies = self._studies()
        serial = [run_sim(study).to_json() for study in studies]
        uncached = [
            run_sim(study, engine=SimEngine(enable_cache=False)).to_json()
            for study in studies
        ]
        assert uncached == serial
        with start_in_thread() as handle:
            client = ServeClient(handle.base_url)
            served = []
            for scenario, seed, tdp_w in _draws(self.DRAW_SEED, 3):
                response = client.simulate(scenarios=[scenario], tdps=[tdp_w], seed=seed)
                assert response.status == "ok"
                served.append(response.resultset.to_json())
        assert served == serial
