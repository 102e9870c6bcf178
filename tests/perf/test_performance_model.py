"""Tests for the frequency-sensitivity, budget-breakdown and performance models."""

import pytest

from repro.pdn.ivr import IvrPdn
from repro.pdn.ldo import LdoPdn
from repro.pdn.mbvr import MbvrPdn
from repro.perf.budget_breakdown import budget_breakdown_for_tdp, worst_case_pdn_loss
from repro.perf.frequency_sensitivity import FrequencySensitivityModel
from repro.perf.model import PerformanceModel
from repro.power.domains import DomainKind, WorkloadType
from repro.workloads.spec_cpu2006 import SPEC_CPU2006_BENCHMARKS
from repro.workloads.graphics import THREEDMARK06_BENCHMARKS


class TestFrequencySensitivity:
    def test_4w_cost_is_single_digit_milliwatts(self):
        # Fig. 2(a): ~9 mW per +1 % frequency at a 4 W TDP.
        cost_w = FrequencySensitivityModel().cpu_power_for_one_percent_w(4.0)
        assert 0.004 <= cost_w <= 0.015

    def test_cost_grows_monotonically_with_tdp(self):
        model = FrequencySensitivityModel()
        costs = [model.cpu_power_for_one_percent_w(t) for t in (4.0, 8.0, 18.0, 36.0, 50.0)]
        assert costs == sorted(costs)

    def test_50w_cost_is_hundreds_of_milliwatts(self):
        cost_w = FrequencySensitivityModel().cpu_power_for_one_percent_w(50.0)
        assert 0.2 <= cost_w <= 1.0

    def test_gfx_and_cpu_domains_both_supported(self):
        model = FrequencySensitivityModel()
        assert model.cpu_power_for_one_percent_w(18.0) > 0.0
        assert model.gfx_power_for_one_percent_w(18.0) > 0.0

    def test_frequency_increase_inverts_power_cost(self):
        model = FrequencySensitivityModel()
        budget_w = model.power_for_frequency_increase_w(18.0, 0.05, DomainKind.CORE0)
        recovered = model.frequency_increase_for_power(18.0, budget_w, DomainKind.CORE0)
        assert recovered == pytest.approx(0.05, rel=1e-3)

    def test_frequency_increase_capped_at_max_frequency(self):
        model = FrequencySensitivityModel()
        increase = model.frequency_increase_for_power(4.0, 100.0, DomainKind.CORE0)
        # 0.9 GHz sustained -> at most 4.0 GHz, i.e. +344 %.
        assert increase == pytest.approx(4.0 / 0.9 - 1.0, rel=1e-6)

    def test_zero_budget_means_zero_increase(self):
        model = FrequencySensitivityModel()
        assert model.frequency_increase_for_power(18.0, 0.0) == 0.0


class TestBudgetBreakdown:
    def test_worst_pdn_is_ivr_at_low_tdp_and_mbvr_at_high_tdp(self):
        assert worst_case_pdn_loss(4.0)["worst"] == "IVR"
        assert worst_case_pdn_loss(50.0)["worst"] == "MBVR"

    def test_cpu_share_grows_with_tdp(self):
        low = budget_breakdown_for_tdp(4.0).cpu_fraction
        high = budget_breakdown_for_tdp(50.0).cpu_fraction
        assert high > low

    def test_pdn_loss_at_least_a_fifth_of_the_budget(self):
        # Fig. 2(b): PDN loss is 25 % or more at every TDP for the worst PDN.
        for tdp in (4.0, 18.0, 50.0):
            assert budget_breakdown_for_tdp(tdp).pdn_loss_fraction > 0.20


class TestPerformanceModel:
    @pytest.fixture(scope="class")
    def model(self):
        return PerformanceModel(baseline_pdn=IvrPdn())

    def test_baseline_performance_is_unity(self, model):
        benchmark = SPEC_CPU2006_BENCHMARKS[-1]
        result = model.evaluate(IvrPdn(), benchmark, 4.0)
        assert result.relative_performance == pytest.approx(1.0)

    def test_mbvr_and_ldo_beat_ivr_significantly_at_4w(self, model):
        # Fig. 7: >22 % average improvement at 4 W.
        for pdn in (MbvrPdn(), LdoPdn()):
            average = model.average_relative_performance(pdn, SPEC_CPU2006_BENCHMARKS, 4.0)
            assert average > 1.15

    def test_low_scalability_benchmarks_gain_less(self, model):
        low_scal = SPEC_CPU2006_BENCHMARKS[0]   # 433.milc
        high_scal = SPEC_CPU2006_BENCHMARKS[-1]  # 416.gamess
        low = model.evaluate(MbvrPdn(), low_scal, 4.0).relative_performance
        high = model.evaluate(MbvrPdn(), high_scal, 4.0).relative_performance
        assert high > low

    def test_mbvr_loses_to_ivr_at_50w(self, model):
        average = model.average_relative_performance(MbvrPdn(), SPEC_CPU2006_BENCHMARKS, 50.0)
        assert average < 1.0

    def test_graphics_suite_uses_gfx_domain(self, model):
        result = model.evaluate(MbvrPdn(), THREEDMARK06_BENCHMARKS[0], 4.0)
        assert result.relative_performance > 1.0

    def test_compare_pdns_returns_all_names(self, model):
        table = model.compare_pdns(
            [IvrPdn(), MbvrPdn(), LdoPdn()], SPEC_CPU2006_BENCHMARKS[:5], 18.0
        )
        assert set(table) == {"IVR", "MBVR", "LDO"}

    def test_idle_benchmark_rejected(self, model):
        from repro.util.errors import ModelDomainError
        from repro.workloads.base import Benchmark

        idle = Benchmark("idle", WorkloadType.IDLE, 0.1, 0.1)
        with pytest.raises(ModelDomainError):
            model.evaluate(MbvrPdn(), idle, 4.0)
