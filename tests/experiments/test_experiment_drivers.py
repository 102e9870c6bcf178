"""Tests for the per-figure experiment drivers."""

import pytest

from repro.analysis.pdnspot import PdnSpot
from repro.experiments import (
    fig2_performance_model,
    fig3_vr_efficiency,
    fig4_validation,
    fig5_loss_breakdown,
    fig7_spec_4w,
    fig8_evaluation,
)


class TestFig2:
    def test_frequency_sensitivity_monotone(self):
        records = fig2_performance_model.frequency_sensitivity_table()
        costs = [record["cpu_mw_per_percent"] for record in records]
        assert costs == sorted(costs)
        assert 4.0 <= costs[0] <= 15.0  # ~9 mW at 4 W (Fig. 2a)

    def test_budget_breakdown_fractions_sum_to_one(self):
        for record in fig2_performance_model.budget_breakdown_table():
            total = (
                record["sa_io_fraction"]
                + record["cpu_fraction"]
                + record["llc_fraction"]
                + record["pdn_loss_fraction"]
            )
            assert total == pytest.approx(1.0)

    def test_formatting(self):
        assert "Fig. 2(a)" in fig2_performance_model.format_figure2a()
        assert "Fig. 2(b)" in fig2_performance_model.format_figure2b()


class TestFig3:
    def test_curve_grid_size(self):
        records = fig3_vr_efficiency.vr_efficiency_curves()
        expected = (
            len(fig3_vr_efficiency.FIG3_CURRENTS_A)
            * len(fig3_vr_efficiency.FIG3_VOLTAGES_V)
            * len(fig3_vr_efficiency.FIG3_POWER_STATES)
        )
        assert len(records) == expected

    def test_efficiencies_within_figure_range(self):
        for record in fig3_vr_efficiency.vr_efficiency_curves():
            assert 0.40 <= record["efficiency"] <= 0.95

    def test_formatting(self):
        assert "Fig. 3" in fig3_vr_efficiency.format_figure3()


class TestFig4:
    def test_grid_covers_all_panels(self):
        records = fig4_validation.etee_grid(application_ratios=(0.4, 0.8))
        # 3 workload types x 3 TDPs x 2 ARs x 3 PDNs
        assert len(records) == 3 * 3 * 2 * 3

    def test_power_state_grid(self):
        records = fig4_validation.power_state_grid()
        assert len(records) == 6 * 3

    def test_model_accuracy_close_to_one(self):
        accuracy = fig4_validation.model_accuracy(trace_count_per_type=3)
        for stats in accuracy.values():
            assert stats["average_accuracy"] > 0.95


class TestFig5:
    def test_breakdown_shapes(self):
        records = fig5_loss_breakdown.loss_breakdown()
        by_key = {(r["pdn"], r["tdp_w"]): r for r in records}
        # IVR input current is the normalisation base.
        assert by_key[("IVR", 50.0)]["normalised_input_current"] == pytest.approx(1.0)
        # MBVR/LDO chip input current is well above IVR's (paper: ~2x).
        assert by_key[("MBVR", 50.0)]["normalised_input_current"] > 1.3
        assert by_key[("LDO", 50.0)]["normalised_input_current"] > 1.3
        # MBVR compute conduction grows with TDP much faster than IVR's.
        assert (
            by_key[("MBVR", 50.0)]["conduction_compute"]
            > 3.0 * by_key[("IVR", 50.0)]["conduction_compute"]
        )

    def test_ivr_has_highest_vr_inefficiency_at_4w(self):
        records = fig5_loss_breakdown.loss_breakdown(tdps_w=(4.0,))
        by_pdn = {r["pdn"]: r for r in records}
        assert by_pdn["IVR"]["vr_inefficiency"] > by_pdn["MBVR"]["vr_inefficiency"]
        assert by_pdn["IVR"]["vr_inefficiency"] > by_pdn["LDO"]["vr_inefficiency"]

    def test_loadline_line_plot_values(self):
        records = fig5_loss_breakdown.loss_breakdown(tdps_w=(18.0,))
        by_pdn = {r["pdn"]: r for r in records}
        assert by_pdn["MBVR"]["compute_loadline_mohm"] == pytest.approx(2.5)
        assert by_pdn["LDO"]["compute_loadline_mohm"] == pytest.approx(1.25)
        assert by_pdn["IVR"]["compute_loadline_mohm"] == pytest.approx(1.0)

    def test_cache_off_spot_computes_each_point_once(self, monkeypatch):
        # The records read the batch's own evaluations; nothing is evaluated
        # a second time per point.
        spot = PdnSpot(enable_cache=False)
        calls = []
        original = spot.evaluate_columns

        def spy(units):
            calls.extend((name, conditions.tdp_w) for name, conditions, _ in units)
            return original(units)

        monkeypatch.setattr(spot, "evaluate_columns", spy)
        records = fig5_loss_breakdown.loss_breakdown(spot=spot)
        assert sorted(calls) == sorted((r["pdn"], r["tdp_w"]) for r in records)
        assert records == fig5_loss_breakdown.loss_breakdown()


class TestFig7AndFig8:
    def test_fig7_averages_match_headline_claims(self):
        records = fig7_spec_4w.spec_performance_at_4w()
        averages = fig7_spec_4w.average_performance(records)
        assert averages["IVR"] == pytest.approx(1.0)
        assert averages["MBVR"] > 1.18
        assert averages["LDO"] > 1.18
        assert averages["FlexWatts"] > 1.18
        # FlexWatts within ~1 % of the best static PDN.
        assert averages["FlexWatts"] > max(averages["MBVR"], averages["LDO"]) - 0.015
        # I+MBVR improves on IVR but much less than FlexWatts.
        assert 1.0 < averages["I+MBVR"] < averages["FlexWatts"]

    def test_cache_off_spot_runs_no_prewarm_batch(self, monkeypatch):
        # Without a cache the per-benchmark loops cannot read a prewarm
        # batch, so none is evaluated.
        spot = PdnSpot(enable_cache=False)
        batches = []
        original = spot.evaluate_columns

        def spy(units):
            batches.append(len(units))
            return original(units)

        monkeypatch.setattr(spot, "evaluate_columns", spy)
        records = fig7_spec_4w.spec_performance_at_4w(spot=spot)
        fig8_evaluation.prewarm_figure8(spot)
        assert batches == []
        assert records == fig7_spec_4w.spec_performance_at_4w()

    def test_fig8a_flexwatts_never_below_ivr(self):
        spot = fig8_evaluation._spot()
        for record in fig8_evaluation.spec_performance_sweep(tdps_w=(4.0, 18.0, 50.0), spot=spot):
            assert record["FlexWatts"] >= record["IVR"] - 1e-9

    def test_fig8c_battery_life_savings(self):
        table = fig8_evaluation.battery_life_power()
        for workload, powers in table.items():
            assert powers["FlexWatts"] < 0.95  # at least 5 % below IVR
            assert powers["IVR"] == pytest.approx(1.0)

    def test_fig8d_and_e_cost_shapes(self):
        spot = fig8_evaluation._spot()
        bom = fig8_evaluation.bom_sweep(tdps_w=(4.0, 50.0), spot=spot)
        area = fig8_evaluation.board_area_sweep(tdps_w=(4.0, 50.0), spot=spot)
        for record in bom + area:
            assert record["MBVR"] > record["FlexWatts"]
            assert record["LDO"] > record["I+MBVR"]


class TestSimScenarios:
    def test_resultset_covers_the_grid(self):
        from repro.experiments import sim_scenarios

        results = sim_scenarios.scenario_resultset(
            scenarios=("race-to-idle",), tdps_w=(4.0,)
        )
        assert len(results) == len(sim_scenarios.SIM_PDNS)
        assert results.unique("scenario") == ["race-to-idle"]

    def test_formatting_normalises_to_ivr(self):
        from repro.experiments import sim_scenarios

        text = sim_scenarios.format_sim_scenarios()
        assert "normalised to IVR" in text
        assert "FW switches" in text
        for scenario in ("bursty-interactive", "duty-cycled-background"):
            assert scenario in text

    def test_flexwatts_tracks_the_better_static_side(self):
        """FlexWatts never draws more energy than the worse of its two modes."""
        from repro.experiments import sim_scenarios
        from repro.sim.adapters import SIM_METRIC_COLUMNS

        results = sim_scenarios.scenario_resultset()
        normalised = results.normalize_to(
            "IVR",
            value_columns=("total_energy_j",),
            metric_columns=SIM_METRIC_COLUMNS,
        )
        by_point = {}
        for record in normalised.to_records():
            key = (record["scenario"], record["tdp_w"])
            by_point.setdefault(key, {})[record["pdn"]] = record["total_energy_j"]
        for cells in by_point.values():
            worse_static = max(cells["I+MBVR"], cells["LDO"])
            assert cells["FlexWatts"] <= worse_static + 0.02  # switch overhead
