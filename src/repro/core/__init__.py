"""FlexWatts: the paper's contribution.

FlexWatts is a power- and workload-aware hybrid adaptive PDN (Sec. 6).  Its
three key ideas map onto the modules of this package:

1. **Hybrid regulators that share resources** --
   :mod:`repro.core.hybrid_vr` names the two modes of the dual-mode on-chip
   regulator built from the IVR's high-side power switch, which operates
   either as an IVR (IVR-Mode) or as an LDO/power-gate (LDO-Mode);
   :mod:`repro.core.flexwatts` assembles the full PDN (hybrid regulators for
   the compute domains, dedicated board regulators for SA/IO).
2. **Static off-chip regulators for narrow-power domains** -- handled inside
   :class:`~repro.core.flexwatts.FlexWattsPdn` by reusing the SA/IO rails of
   the LDO PDN model.
3. **A runtime mode-prediction algorithm** --
   :mod:`repro.core.mode_predictor` implements Algorithm 1 with the
   firmware-style ETEE curve tables, :mod:`repro.core.calibration` populates
   those tables, :mod:`repro.core.runtime_estimator` derives the algorithm's
   inputs from PMU telemetry, and :mod:`repro.core.mode_switching` models the
   voltage-noise-free switching flow and its latency/area overheads.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.core.hybrid_vr import PdnMode
    from repro.core.flexwatts import FlexWattsPdn
    from repro.core.mode_predictor import EteeCurveSet, ModePredictor
    from repro.core.calibration import build_default_predictor
    from repro.core.mode_switching import ModeSwitchController, ModeSwitchOverheads
    from repro.core.runtime_estimator import RuntimeInputEstimator

__all__ = [
    "PdnMode",
    "FlexWattsPdn",
    "EteeCurveSet",
    "ModePredictor",
    "build_default_predictor",
    "ModeSwitchController",
    "ModeSwitchOverheads",
    "RuntimeInputEstimator",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.core.hybrid_vr": ("PdnMode",),
    "repro.core.flexwatts": ("FlexWattsPdn",),
    "repro.core.mode_predictor": ("EteeCurveSet", "ModePredictor"),
    "repro.core.calibration": ("build_default_predictor",),
    "repro.core.mode_switching": ("ModeSwitchController", "ModeSwitchOverheads"),
    "repro.core.runtime_estimator": ("RuntimeInputEstimator",),
})
