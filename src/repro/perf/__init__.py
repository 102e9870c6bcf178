"""Processor performance model (Sec. 3.3 of the paper).

The performance model converts a PDN's end-to-end efficiency into workload
performance in three steps:

1. the power-budget manager determines how much nominal power each PDN leaves
   for the compute domains at a given TDP (:mod:`repro.power.budget`),
2. the frequency-sensitivity model says how much extra power a 1 % frequency
   increase costs at that TDP (:mod:`repro.perf.frequency_sensitivity`,
   Fig. 2a), and
3. the workload's performance scalability converts the frequency increase into
   a performance increase (:mod:`repro.perf.model`).

:mod:`repro.perf.budget_breakdown` reproduces the power-budget breakdown of
Fig. 2(b).
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.perf.frequency_sensitivity import FrequencySensitivityModel
    from repro.perf.budget_breakdown import budget_breakdown_for_tdp, worst_case_pdn_loss
    from repro.perf.model import PerformanceModel, PerformanceResult

__all__ = [
    "FrequencySensitivityModel",
    "budget_breakdown_for_tdp",
    "worst_case_pdn_loss",
    "PerformanceModel",
    "PerformanceResult",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.perf.frequency_sensitivity": ("FrequencySensitivityModel",),
    "repro.perf.budget_breakdown": ("budget_breakdown_for_tdp", "worst_case_pdn_loss"),
    "repro.perf.model": ("PerformanceModel", "PerformanceResult"),
})
