"""One grid builder over shared load sets, one column assembler.

:func:`study_units` builds every operating point of a study through one
:class:`LoadSets` memo, and :func:`study_resultset` builds the sweep
``ResultSet`` column by column.  Both must be invisible: points equal
freshly built ones and key like them, and the assembled table is exactly
what ``ResultSet.from_records`` gives over the per-row records the engines
used to build -- column order and ``MISSING`` cells included.
"""

import pickle
import random

import pytest

from repro.analysis.pdnspot import PdnSpot
from repro.analysis.resultset import ResultSet
from repro.analysis.study import Scenario, Study, study_resultset, study_units
from repro.cache import canonical_key
from repro.pdn.base import (
    LoadSet,
    LoadSets,
    OperatingConditions,
    PdnEvaluation,
    conditions_key,
)
from repro.pdn.losses import LossBreakdown
from repro.power.domains import DomainKind, DomainLoad, NominalPowerCurves, WorkloadType
from repro.power.power_states import BATTERY_LIFE_STATES, PackageCState
from repro.sim.engine import IntervalSimulator
from repro.util.errors import ConfigurationError
from repro.workloads.scenarios import available_scenarios, build_scenario_trace

PDN_NAMES = ("IVR", "MBVR", "LDO", "I+MBVR", "FlexWatts")
WORKLOAD_TYPES = (
    WorkloadType.CPU_SINGLE_THREAD,
    WorkloadType.CPU_MULTI_THREAD,
    WorkloadType.GRAPHICS,
)


def records_resultset(study, names, evaluations):
    """The table the engines built before: one record per row, then pivot."""
    width = len(names)
    records = []
    for index, scenario in enumerate(study.scenarios):
        fields = scenario.record_fields()
        for name, evaluation in zip(names, evaluations[index * width:(index + 1) * width]):
            if evaluation is None:
                continue
            records.append({
                "pdn": name,
                **fields,
                "etee": evaluation.etee,
                "supply_power_w": evaluation.supply_power_w,
                "nominal_power_w": evaluation.nominal_power_w,
            })
    return ResultSet.from_records(records, name=study.name)


def random_study(rng: random.Random) -> Study:
    """A seeded study mixing every grid shape the builder can produce."""
    builder = Study.builder(f"study-{rng.randrange(1000)}")
    generated = rng.random() < 0.9
    if generated:
        builder.tdps(*rng.sample((4.0, 8.0, 12.5, 18.0, 25.0, 36.0, 50.0), rng.randint(1, 3)))
        if rng.random() < 0.7:
            builder.application_ratios(*rng.sample((0.4, 0.5, 0.56, 0.7, 0.8), rng.randint(1, 2)))
            builder.workload_types(*rng.sample(WORKLOAD_TYPES, rng.randint(1, 2)))
        if rng.random() < 0.5:
            builder.power_states(*rng.sample(BATTERY_LIFE_STATES, rng.randint(1, 2)))
        if rng.random() < 0.4:
            grid = [{"ivr_tolerance_band_v": 0.02}, {"leakage_exponent": 2.5}]
            if rng.random() < 0.5:
                grid.insert(0, {})  # overrides first appear mid-grid
            builder.parameter_grid(*rng.sample(grid, len(grid)))
    for _ in range(rng.randint(0 if generated else 1, 2)):
        tdp_w = rng.choice((5.0, 18.0, 40.0))
        overrides = (("leakage_exponent", 2.8),) if rng.random() < 0.3 else ()
        if rng.random() < 0.5:
            builder.scenario(Scenario(tdp_w, rng.choice(BATTERY_LIFE_STATES), overrides=overrides))
        else:
            builder.scenario(Scenario(
                tdp_w, application_ratio=0.6,
                workload_type=rng.choice(WORKLOAD_TYPES), overrides=overrides,
            ))
    if rng.random() < 0.3:
        builder.pdns(*rng.sample(PDN_NAMES, rng.randint(1, 3)))
    return builder.build()


def fake_evaluation(rng: random.Random, name: str) -> PdnEvaluation:
    nominal = rng.uniform(0.1, 30.0)
    supply = 0.0 if rng.random() < 0.05 else nominal * rng.uniform(1.05, 1.6)
    return PdnEvaluation(name, nominal, supply, LossBreakdown(), 0.0)


class TestColumnAssembler:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_from_records(self, seed):
        rng = random.Random(seed)
        study = random_study(rng)
        names = study.pdn_names or PDN_NAMES
        evaluations = [fake_evaluation(rng, name) for name, _, _ in study_units(study, names)]
        if rng.random() < 0.5:  # a served partial response: some units cut off
            evaluations = [None if rng.random() < 0.4 else e for e in evaluations]
        expected = records_resultset(study, names, evaluations)
        assembled = study_resultset(study, names, evaluations)
        assert assembled.columns == expected.columns
        assert assembled == expected
        assert assembled.to_records() == expected.to_records()
        assert assembled.to_json(indent=2) == expected.to_json(indent=2)
        assert assembled.name == study.name

    def test_idle_first_grid_appends_active_columns(self):
        study = (
            Study.builder("idle-first")
            .tdps(18.0).power_states(PackageCState.C8)
            .scenario(Scenario(4.0, application_ratio=0.5, workload_type=WorkloadType.GRAPHICS))
            .build()
        )
        rng = random.Random(0)
        evaluations = [fake_evaluation(rng, name) for name in PDN_NAMES * 2]
        assembled = study_resultset(study, PDN_NAMES, evaluations)
        assert assembled.columns == (
            "pdn", "tdp_w", "power_state", "etee", "supply_power_w",
            "nominal_power_w", "application_ratio", "workload_type",
        )
        assert assembled == records_resultset(study, PDN_NAMES, evaluations)

    def test_every_unit_skipped_gives_an_empty_table(self):
        study = Study.over_tdps([4.0, 18.0])
        assembled = study_resultset(study, PDN_NAMES, [None] * 10)
        assert len(assembled) == 0 and assembled.columns == ()
        assert assembled == records_resultset(study, PDN_NAMES, [None] * 10)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_engine_run_matches_records_of_its_evaluations(self, seed):
        study = random_study(random.Random(seed))
        spot = PdnSpot()
        names = study.pdn_names or tuple(spot.pdns)
        evaluations = spot.evaluate_units(study_units(study, names))
        assert spot.run(study) == records_resultset(study, names, evaluations)


class TestSharedLoadSets:
    def test_shared_points_equal_fresh_ones(self):
        rng = random.Random(7)
        memo = LoadSets()
        for _ in range(60):
            tdp_w = rng.choice((4.0, 18.0, 50.0))
            if rng.random() < 0.7:
                args = (tdp_w, rng.uniform(0.4, 0.8), rng.choice(WORKLOAD_TYPES))
                shared = OperatingConditions.for_active_workload(*args, load_sets=memo)
                fresh = OperatingConditions.for_active_workload(*args)
            else:
                state = rng.choice(BATTERY_LIFE_STATES)
                shared = OperatingConditions.for_power_state(tdp_w, state, load_sets=memo)
                fresh = OperatingConditions.for_power_state(tdp_w, state)
            assert shared == fresh and hash(shared) == hash(fresh)
            assert repr(shared) == repr(fresh)
            assert conditions_key(shared) == conditions_key(fresh)
            assert hash(conditions_key(shared)) == hash(conditions_key(fresh))
            assert canonical_key(conditions_key(shared)) == canonical_key(conditions_key(fresh))

    def test_points_of_one_pair_share_one_load_set(self):
        memo = LoadSets()
        low = OperatingConditions.for_active_workload(18.0, 0.4, WorkloadType.GRAPHICS, load_sets=memo)
        high = OperatingConditions.for_active_workload(18.0, 0.8, WorkloadType.GRAPHICS, load_sets=memo)
        other = OperatingConditions.for_active_workload(18.0, 0.8, WorkloadType.CPU_MULTI_THREAD, load_sets=memo)
        assert type(low.loads) is LoadSet and low.loads is high.loads
        assert other.loads is not low.loads
        c8_low = OperatingConditions.for_power_state(4.0, PackageCState.C8, load_sets=memo)
        c8_high = OperatingConditions.for_power_state(50.0, PackageCState.C8, load_sets=memo)
        assert c8_low.loads is c8_high.loads

    def test_memo_takes_no_custom_curves(self):
        with pytest.raises(ConfigurationError, match="not both"):
            OperatingConditions.for_active_workload(
                18.0, 0.5, WorkloadType.GRAPHICS,
                curves=NominalPowerCurves(), load_sets=LoadSets(),
            )

    def test_study_units_share_within_one_build_only(self):
        study = Study.builder("g").tdps(4.0, 18.0).application_ratios(0.4, 0.6).build()
        units = study_units(study, PDN_NAMES)
        assert [name for name, _, _ in units] == list(PDN_NAMES) * 4
        assert len({id(conditions) for _, conditions, _ in units}) == 4
        assert len({id(conditions.loads) for _, conditions, _ in units}) == 2
        again = study_units(study, PDN_NAMES)
        assert [unit[1] for unit in again] == [unit[1] for unit in units]
        assert again[0][1].loads is not units[0][1].loads  # no process-global memo

    def test_plans_share_load_sets_across_a_batch(self):
        memo, conditions, load_sets = {}, [], LoadSets()
        traces = [build_scenario_trace(name, seed=3) for name in available_scenarios()[:3]]
        simulator = IntervalSimulator(18.0)
        for trace in traces:
            simulator.plan(trace, memo, conditions, load_sets)
        by_kind = {}
        for point in conditions:
            by_kind.setdefault((point.workload_type, point.power_state), set()).add(id(point.loads))
        assert all(len(ids) == 1 for ids in by_kind.values())
        for trace in traces:  # a plan on its own resolves the same points
            alone = simulator.plan(trace, {}, [])
            shared = simulator.plan(trace, memo, conditions, load_sets)
            assert [alone.conditions[p] for p in alone.points] == [
                conditions[p] for p in shared.points
            ]


class TestLoadSet:
    def test_keyed_like_the_plain_tuple(self):
        point = OperatingConditions.for_active_workload(9.0, 0.7, WorkloadType.CPU_SINGLE_THREAD)
        key = conditions_key(point)
        assert key[-1] is point.loads  # the load set itself, with its cached hash
        plain = (
            point.tdp_w, point.application_ratio, point.workload_type,
            point.power_state, point.board_vr_state, tuple(point.loads),
        )
        assert type(plain[-1]) is tuple
        assert key == plain and hash(key) == hash(plain)
        assert hash(point.loads) == hash(tuple(point.loads))
        assert canonical_key(key) == canonical_key(plain)
        assert repr(point.loads) == repr(tuple(point.loads))

    def test_pickle_rehashes_and_revalidates(self):
        loads = OperatingConditions.for_power_state(4.0, PackageCState.C6).loads
        blob = pickle.dumps(loads)
        assert b"_hash" not in blob
        restored = pickle.loads(blob)
        assert type(restored) is LoadSet and restored == loads
        assert hash(restored) == hash(tuple(loads))

    def test_bad_load_sets_are_rejected_with_the_same_error(self):
        loads = list(OperatingConditions.for_active_workload(18.0, 0.5, WorkloadType.GRAPHICS).loads)
        missing = "a PDN evaluation needs a load for every domain; missing: io"
        duplicate = f"duplicate load for domain {DomainKind.SA}"
        twice = loads[:5] + [loads[4]]
        for bad, message in ((loads[:5], missing), (twice, duplicate)):
            with pytest.raises(ConfigurationError) as from_set:
                LoadSet(bad)
            with pytest.raises(ConfigurationError) as from_conditions:
                OperatingConditions(18.0, 0.5, WorkloadType.GRAPHICS, PackageCState.C0, bad)
            assert str(from_set.value) == str(from_conditions.value) == message

    def test_plain_tuples_and_lists_are_still_validated(self):
        loads = OperatingConditions.for_power_state(4.0, PackageCState.C2).loads
        extra = DomainLoad(DomainKind.IO, 0.1, 1.0, 0.22)
        with pytest.raises(ConfigurationError, match="duplicate"):
            OperatingConditions(4.0, 0.2, WorkloadType.IDLE, PackageCState.C2, tuple(loads) + (extra,))
