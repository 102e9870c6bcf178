"""End-to-end regression tests pinning the paper's headline numbers (shapes).

Each test corresponds to one quantitative claim from the abstract / Sec. 7 of
the paper.  Absolute magnitudes are allowed to differ (the substrate is a
behavioural model, not the authors' testbed), but the direction and rough
size of every effect is asserted.
"""

import pytest

from repro.analysis.pdnspot import PdnSpot
from repro.core.hybrid_vr import PdnMode
from repro.core.mode_switching import ModeSwitchOverheads
from repro.workloads.graphics import THREEDMARK06_BENCHMARKS
from repro.workloads.spec_cpu2006 import SPEC_CPU2006_BENCHMARKS


@pytest.fixture(scope="module")
def spot():
    return PdnSpot()


class TestAbstractClaims:
    def test_spec_cpu2006_improvement_at_4w(self, spot):
        """FlexWatts improves average SPEC CPU2006 performance by ~22 % at 4 W."""
        table = spot.compare_performance(SPEC_CPU2006_BENCHMARKS, 4.0)
        assert table["FlexWatts"] > 1.15
        assert table["FlexWatts"] < 1.45

    def test_3dmark06_improvement_at_4w(self, spot):
        """FlexWatts improves average 3DMark06 performance by ~25 % at 4 W."""
        table = spot.compare_performance(THREEDMARK06_BENCHMARKS, 4.0)
        assert table["FlexWatts"] > 1.20

    def test_video_playback_power_reduction(self, spot):
        """FlexWatts reduces video-playback average power by ~11 % vs IVR."""
        table = spot.compare_battery_life_power()["video_playback"]
        reduction = 1.0 - table["FlexWatts"] / table["IVR"]
        assert 0.05 < reduction < 0.20

    def test_bom_and_area_comparable_to_ivr(self, spot):
        """FlexWatts has BOM and area comparable to IVR, unlike MBVR/LDO."""
        for tdp in (4.0, 18.0, 50.0):
            bom = spot.compare_bom(tdp)
            area = spot.compare_board_area(tdp)
            assert bom["FlexWatts"] < 0.8 * bom["MBVR"]
            assert area["FlexWatts"] < 0.8 * area["MBVR"]


class TestSection7Claims:
    def test_low_tdp_gain_and_high_tdp_parity_for_spec(self, spot):
        """Below ~18 W FlexWatts gains a lot over IVR; above, it stays ahead of MBVR/LDO."""
        low = spot.compare_performance(SPEC_CPU2006_BENCHMARKS, 8.0)
        high = spot.compare_performance(SPEC_CPU2006_BENCHMARKS, 50.0)
        assert low["FlexWatts"] > 1.08
        assert high["FlexWatts"] >= high["MBVR"]
        assert high["FlexWatts"] >= high["LDO"] - 0.01

    def test_flexwatts_within_one_percent_of_best_static_at_4w(self, spot):
        table = spot.compare_performance(SPEC_CPU2006_BENCHMARKS, 4.0)
        best_static = max(table["MBVR"], table["LDO"])
        assert table["FlexWatts"] > best_static - 0.015

    def test_imbvr_improves_on_ivr_but_less_than_flexwatts_at_low_tdp(self, spot):
        table = spot.compare_performance(SPEC_CPU2006_BENCHMARKS, 4.0)
        assert 1.0 < table["I+MBVR"] < table["FlexWatts"]

    def test_mode_selection_tracks_tdp(self, spot):
        """FlexWatts operates mainly in LDO-Mode at low TDP, IVR-Mode at high TDP."""
        from repro.pdn.base import OperatingConditions
        from repro.power.domains import WorkloadType

        flexwatts = spot.pdn("FlexWatts")
        low = OperatingConditions.for_active_workload(4.0, 0.56, WorkloadType.CPU_MULTI_THREAD)
        high = OperatingConditions.for_active_workload(50.0, 0.56, WorkloadType.CPU_MULTI_THREAD)
        assert flexwatts.predict_mode(low) is PdnMode.LDO_MODE
        assert flexwatts.predict_mode(high) is PdnMode.IVR_MODE


class TestOverheadClaims:
    def test_mode_switch_flow_latency(self):
        """The mode-switch flow takes ~94 us, well under a 500 us DVFS transition."""
        overheads = ModeSwitchOverheads()
        assert 80e-6 < overheads.total_latency_s < 110e-6

    def test_area_overhead_negligible(self):
        """The LDO-mode area overhead is ~0.041 mm^2, <0.05 % of a client die."""
        assert ModeSwitchOverheads().area_overhead_mm2 < 0.05
        assert ModeSwitchOverheads().dual_core_die_fraction < 0.001
