"""Tests for the design-space exploration subsystem (repro.optimize)."""

import json

import pytest

from repro.analysis.pdnspot import PdnSpot
from repro.cli import main, parse_parameter_axes, run_optimize
from repro.cost.board_area import BoardAreaModel
from repro.cost.bom import BomModel
from repro.optimize import (
    DEFAULT_OBJECTIVES,
    CandidateEvaluator,
    DesignPoint,
    DesignSpace,
    EvaluationSettings,
    EvolutionarySearch,
    GridSearch,
    RandomSearch,
    make_strategy,
    resolve_objectives,
    run_optimization,
)
from repro.util.errors import ConfigurationError
from repro.workloads.spec_cpu2006 import SPEC_CPU2006_BENCHMARKS

#: Small, fast evaluation settings shared by the engine-heavy tests.
FAST_SETTINGS = EvaluationSettings(
    tdps_w=(4.0, 50.0),
    benchmarks=tuple(SPEC_CPU2006_BENCHMARKS[:4]),
)


def sizing_space() -> DesignSpace:
    return (
        DesignSpace.builder("sizing")
        .pdns("IVR", "LDO", "FlexWatts")
        .parameter("ivr_tolerance_band_v", 0.015, 0.020)
        .parameter("ldo_tolerance_band_v", 0.013, 0.017)
        .build()
    )


class TestDesignSpace:
    def test_grid_order_is_deterministic(self):
        space = sizing_space()
        assert space.grid_size == 12
        points = space.points()
        assert points == space.points()
        assert points[0].pdn == "IVR"
        assert dict(points[0].overrides) == {
            "ivr_tolerance_band_v": 0.015,
            "ldo_tolerance_band_v": 0.013,
        }
        # Topology varies fastest, first parameter axis slowest.
        assert [p.pdn for p in points[:3]] == ["IVR", "LDO", "FlexWatts"]

    def test_default_space_covers_every_registered_pdn(self):
        space = DesignSpace.over_pdns()
        assert {p.pdn for p in space.points()} == {
            "IVR", "MBVR", "LDO", "I+MBVR", "FlexWatts",
        }

    def test_constraints_filter_points(self):
        space = (
            DesignSpace.builder("constrained")
            .pdns("IVR", "LDO")
            .parameter("ivr_tolerance_band_v", 0.015, 0.020)
            .constraint(lambda point: point.pdn != "LDO")
            .build()
        )
        assert {p.pdn for p in space.points()} == {"IVR"}
        assert space.grid_size == 4  # constraints do not shrink the raw grid

    def test_fully_constrained_space_rejected(self):
        space = (
            DesignSpace.builder("empty")
            .pdns("IVR")
            .constraint(lambda point: False)
            .build()
        )
        with pytest.raises(ConfigurationError):
            space.points()

    def test_duplicate_parameter_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            (
                DesignSpace.builder("dup")
                .pdns("IVR")
                .parameter("ivr_tolerance_band_v", 0.015)
                .parameter("ivr_tolerance_band_v", 0.020)
                .build()
            )

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            (
                DesignSpace.builder("empty-axis")
                .pdns("IVR")
                .parameter("ivr_tolerance_band_v")
                .build()
            )

    def test_unknown_parameter_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="bogus_field"):
            (
                DesignSpace.builder("typo")
                .pdns("IVR")
                .parameter("bogus_field", 1.0, 2.0)
                .build()
            )

    def test_point_labels_and_records(self):
        point = DesignPoint("IVR", (("ivr_tolerance_band_v", 0.015),))
        assert point.label() == "IVR(ivr_tolerance_band_v=0.015)"
        assert point.record_fields() == {
            "pdn": "IVR",
            "parameters": {"ivr_tolerance_band_v": 0.015},
        }
        assert DesignPoint("IVR").record_fields() == {"pdn": "IVR"}

    def test_point_overrides_normalised_to_sorted_order(self):
        shuffled = DesignPoint(
            "IVR", (("ldo_tolerance_band_v", 0.013), ("ivr_tolerance_band_v", 0.015))
        )
        ordered = DesignPoint(
            "IVR", (("ivr_tolerance_band_v", 0.015), ("ldo_tolerance_band_v", 0.013))
        )
        assert shuffled == ordered
        assert hash(shuffled) == hash(ordered)


class TestObjectives:
    def test_default_objective_set(self):
        objectives = resolve_objectives()
        assert tuple(o.name for o in objectives) == DEFAULT_OBJECTIVES

    def test_unknown_objective_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_objectives(["etee", "nope"])

    def test_duplicate_objective_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_objectives(["etee", "etee"])

    def test_evaluator_matches_the_facade_comparisons(self):
        objectives = resolve_objectives(["etee", "bom", "area", "iccmax"])
        settings = EvaluationSettings(tdps_w=(18.0,))
        evaluator = CandidateEvaluator(objectives, settings=settings)
        (record,) = evaluator.evaluate_batch([DesignPoint("MBVR")])
        spot = evaluator.spot
        conditions_etee = spot.compare_etee(18.0)["MBVR"]
        assert record["etee"] == pytest.approx(conditions_etee)
        bom = BomModel().estimate(spot.pdn("MBVR"), 18.0).total_cost
        area = BoardAreaModel().estimate(spot.pdn("MBVR"), 18.0).total_area_mm2
        assert record["bom_cost"] == pytest.approx(bom)
        assert record["board_area_mm2"] == pytest.approx(area)
        assert record["iccmax_total_a"] > 0.0

    def test_unknown_pdn_fails_fast(self):
        evaluator = CandidateEvaluator(resolve_objectives(["bom"]))
        with pytest.raises(ConfigurationError):
            evaluator.evaluate_batch([DesignPoint("NOPE")])

    def test_empty_batch(self):
        evaluator = CandidateEvaluator(resolve_objectives(["bom"]))
        assert evaluator.evaluate_batch([]) == []

    def test_sim_objectives_report_power_and_energy(self):
        objectives = resolve_objectives(["power", "energy"])
        settings = EvaluationSettings(
            tdps_w=(18.0,), scenarios=("duty-cycled-background",)
        )
        evaluator = CandidateEvaluator(objectives, settings=settings)
        records = evaluator.evaluate_batch(
            [DesignPoint("IVR"), DesignPoint("FlexWatts")]
        )
        for record in records:
            assert record["average_power_w"] > 0.0
            assert record["total_energy_j"] > 0.0

    def test_performance_yardstick_is_the_nominal_baseline(self):
        """Candidate overrides must not degrade their own baseline.

        With a per-candidate baseline, a worse sizing would score *higher*
        because its yardstick degraded with it; against the fixed nominal
        baseline, the better sizing must win on both etee and performance.
        """
        objectives = resolve_objectives(["etee", "performance"])
        evaluator = CandidateEvaluator(objectives, settings=FAST_SETTINGS)
        better, worse = evaluator.evaluate_batch(
            [
                DesignPoint("FlexWatts", (("ivr_tolerance_band_v", 0.015),)),
                DesignPoint("FlexWatts", (("ivr_tolerance_band_v", 0.025),)),
            ]
        )
        assert better["etee"] > worse["etee"]
        assert better["performance"] > worse["performance"]

    def test_baseline_topology_candidates_are_scored_against_nominal(self):
        """A sized IVR candidate must not trivially score performance 1.0."""
        objectives = resolve_objectives(["performance"])
        evaluator = CandidateEvaluator(objectives, settings=FAST_SETTINGS)
        nominal, tightened = evaluator.evaluate_batch(
            [
                DesignPoint("IVR"),
                DesignPoint("IVR", (("ivr_tolerance_band_v", 0.010),)),
            ]
        )
        assert nominal["performance"] == pytest.approx(1.0)
        assert tightened["performance"] > 1.0

    def test_overrides_change_the_candidate_model(self):
        objectives = resolve_objectives(["etee"])
        evaluator = CandidateEvaluator(objectives, settings=FAST_SETTINGS)
        nominal, tightened = evaluator.evaluate_batch(
            [
                DesignPoint("IVR"),
                DesignPoint("IVR", (("ivr_tolerance_band_v", 0.010),)),
            ]
        )
        assert tightened["etee"] > nominal["etee"]


class TestStrategies:
    def test_grid_budget_truncates_deterministically(self):
        space = sizing_space()
        evaluated = GridSearch(budget=5).search(
            space, lambda pts: [{"etee": 1.0} for _ in pts], ()
        )
        assert [point for point, _ in evaluated] == list(space.points()[:5])

    def test_random_is_seeded_and_within_the_space(self):
        space = sizing_space()
        calls = []

        def fake(points):
            calls.append(list(points))
            return [{"etee": 1.0} for _ in points]

        first = RandomSearch(budget=6, seed=11).search(space, fake, ())
        second = RandomSearch(budget=6, seed=11).search(space, fake, ())
        assert [p for p, _ in first] == [p for p, _ in second]
        assert len({p for p, _ in first}) == 6
        assert set(p for p, _ in first) <= set(space.points())

    def test_random_budget_capped_at_space_size(self):
        space = DesignSpace.over_pdns(["IVR", "LDO"])
        evaluated = RandomSearch(budget=50, seed=0).search(
            space, lambda pts: [{"etee": 1.0} for _ in pts], ()
        )
        assert len(evaluated) == 2

    def test_evolutionary_respects_budget_and_seed(self):
        space = sizing_space()
        objectives = resolve_objectives(["etee", "bom"])

        def fake(points):
            # A deterministic synthetic landscape: tighter tolerance bands
            # score higher, FlexWatts cheaper than LDO.
            return [
                {
                    "etee": 1.0 - dict(p.overrides)["ivr_tolerance_band_v"],
                    "bom_cost": {"IVR": 1.0, "LDO": 3.0, "FlexWatts": 1.5}[p.pdn],
                }
                for p in points
            ]

        first = EvolutionarySearch(budget=8, seed=5).search(
            space, fake, objectives
        )
        second = EvolutionarySearch(budget=8, seed=5).search(
            space, fake, objectives
        )
        assert [p for p, _ in first] == [p for p, _ in second]
        points = [p for p, _ in first]
        assert len(points) == len(set(points)) <= 8

    def test_evolutionary_exhausts_budget_on_large_axes(self):
        """Random mutation misses must not end the search below budget.

        With a 20-value axis and a small population, random single-axis
        mutation quickly stops finding unseen values; the deterministic
        neighbourhood fallback must keep the generational loop fed until
        the budget (here: the whole space) is exhausted.
        """
        space = (
            DesignSpace.builder("wide")
            .pdns("IVR")
            .parameter("ivr_tolerance_band_v", *[0.010 + i * 0.001 for i in range(20)])
            .build()
        )
        objectives = resolve_objectives(["etee", "bom"])

        def fake(points):
            return [
                {
                    "etee": dict(p.overrides)["ivr_tolerance_band_v"],
                    "bom_cost": 1.0,
                }
                for p in points
            ]

        evaluated = EvolutionarySearch(budget=20, seed=0, population=4).search(
            space, fake, objectives
        )
        assert len(evaluated) == 20  # the entire space, despite misses

    def test_make_strategy_resolution(self):
        assert isinstance(make_strategy(None), GridSearch)
        assert isinstance(make_strategy("random", budget=4, seed=1), RandomSearch)
        assert isinstance(make_strategy("evolutionary"), EvolutionarySearch)
        instance = GridSearch()
        assert make_strategy(instance) is instance
        with pytest.raises(ConfigurationError):
            make_strategy("nope")
        with pytest.raises(ConfigurationError):
            make_strategy(instance, budget=4)
        with pytest.raises(ConfigurationError, match="seed"):
            make_strategy(RandomSearch(budget=4, seed=0), seed=7)
        with pytest.raises(ConfigurationError):
            make_strategy("random", budget=0)


class TestRunOptimization:
    def test_paper_conclusion_hybrid_on_front_and_knee(self):
        """The acceptance claim: FlexWatts is Pareto-optimal and the knee."""
        outcome = run_optimization(DesignSpace.over_pdns())
        front_pdns = set(outcome.front.unique("pdn"))
        assert "FlexWatts" in front_pdns
        assert outcome.knee_pdn == "FlexWatts"
        # The single-stage baselines are dominated...
        assert "MBVR" not in front_pdns
        assert "LDO" not in front_pdns
        # ...while the cheap IVR baseline anchors the cost corner.
        assert "IVR" in front_pdns

    @pytest.mark.parametrize("strategy", ["grid", "random", "evolutionary"])
    def test_seeded_search_is_reproducible(self, strategy):
        """Every strategy: two fresh searches with one seed agree exactly."""
        space = sizing_space()
        first, second = (
            run_optimization(
                space, strategy=strategy, budget=6, seed=3, settings=FAST_SETTINGS
            )
            for _ in range(2)
        )
        assert first.results == second.results
        assert first.front == second.front
        assert first.knee == second.knee

    def test_single_candidate_space(self):
        outcome = run_optimization(
            DesignSpace.over_pdns(["FlexWatts"]), settings=FAST_SETTINGS
        )
        assert len(outcome.results) == 1
        assert outcome.front == outcome.results
        assert outcome.knee_pdn == "FlexWatts"
        assert outcome.results.column("pareto") == [True]
        assert outcome.results.column("knee") == [True]

    def test_shared_evaluator_caches_across_searches(self):
        evaluator = CandidateEvaluator(
            resolve_objectives(), settings=FAST_SETTINGS
        )
        space = DesignSpace.over_pdns(["IVR", "FlexWatts"])
        first = run_optimization(space, evaluator=evaluator)
        misses = evaluator.spot.cache_info().misses
        second = run_optimization(space, evaluator=evaluator)
        assert evaluator.spot.cache_info().misses == misses  # all hits
        assert first.results == second.results

    def test_evaluator_objective_mismatch_rejected(self):
        evaluator = CandidateEvaluator(resolve_objectives(["bom"]))
        with pytest.raises(ConfigurationError):
            run_optimization(
                DesignSpace.over_pdns(["IVR"]),
                objectives=["area"],
                evaluator=evaluator,
            )

    def test_experiment_section_shares_the_runner_cache(self):
        from repro.experiments.optimize_pdn import optimize_outcome

        spot = PdnSpot()
        first = optimize_outcome(spot=spot)
        misses = spot.cache_info().misses
        assert misses > 0  # the search ran on the shared engine
        second = optimize_outcome(spot=spot)
        assert spot.cache_info().misses == misses  # warm re-run: all hits
        assert first.results == second.results

    def test_iccmax_objective_flows_through(self):
        outcome = run_optimization(
            DesignSpace.over_pdns(["IVR", "MBVR"]),
            objectives=["iccmax", "bom"],
            settings=FAST_SETTINGS,
        )
        assert "iccmax_total_a" in outcome.results.columns
        ivr = outcome.results.filter(pdn="IVR").column("iccmax_total_a")[0]
        mbvr = outcome.results.filter(pdn="MBVR").column("iccmax_total_a")[0]
        # Rail sharing gives IVR a lower total Iccmax (Sec. 3.2).
        assert ivr < mbvr


class TestCostModelEdgeCases:
    def test_zero_iccmax_rail_costs_only_the_adders(self):
        model = BomModel()
        assert model.rail_cost(0.0, 4.0) == pytest.approx(model.pmic_rail_adder)
        area = BoardAreaModel()
        assert area.rail_area_mm2(0.0, 50.0) == pytest.approx(
            area.vrm_rail_adder_mm2
        )

    def test_zero_area_reference_rejected_with_value_error(self):
        model = BoardAreaModel(
            pmic_rail_adder_mm2=0.0,
            pmic_area_per_amp_mm2=0.0,
            pmic_base_area_mm2=0.0,
        )
        spot = PdnSpot(pdn_names=["IVR", "LDO"])
        zero = model.estimate(spot.pdn("IVR"), 4.0)
        assert zero.total_area_mm2 == pytest.approx(0.0)
        other = model.estimate(spot.pdn("LDO"), 4.0)
        with pytest.raises(ValueError):
            other.normalised_to(zero)


class TestOptimizeCli:
    def test_table_output_reports_front_and_knee(self):
        text = run_optimize()
        assert "Pareto front:" in text
        assert "Knee point (balanced pick): FlexWatts" in text

    def test_json_output_round_trips(self, capsys):
        assert main(["optimize", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "pareto" in payload["columns"]
        assert len(payload["rows"]) == 5

    def test_csv_output_uses_shared_writer(self, capsys):
        assert (
            main(
                [
                    "optimize",
                    "--strategy", "random",
                    "--budget", "3",
                    "--seed", "1",
                    "--pdns", "IVR", "FlexWatts",
                    "--format", "csv",
                ]
            )
            == 0
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("pdn,")
        assert len(lines) == 3  # header + 2 candidates

    def test_param_axis_flag(self, capsys):
        assert (
            main(
                [
                    "optimize",
                    "--pdns", "IVR",
                    "--param", "ivr_tolerance_band_v=0.015,0.020",
                    "--objectives", "etee", "bom",
                    "--format", "json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["rows"]) == 2

    def test_parse_parameter_axes(self):
        axes = parse_parameter_axes(["a=1,2", "b=0.5"])
        assert axes == [("a", [1.0, 2.0]), ("b", [0.5])]
        with pytest.raises(ConfigurationError):
            parse_parameter_axes(["missing-separator"])
        with pytest.raises(ConfigurationError):
            parse_parameter_axes(["a="])
        with pytest.raises(ConfigurationError, match="not a number"):
            parse_parameter_axes(["a=0.015a"])

    def test_malformed_param_is_a_clean_cli_error(self, capsys):
        assert main(["optimize", "--param", "bad"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert out.split()[1][0].isdigit()

    def test_unknown_objective_is_a_clean_cli_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["optimize", "--objectives", "nope"])
