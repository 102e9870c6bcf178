"""Factory functions for the default regulator designs of Table 2 / Fig. 3.

The paper obtains its regulator efficiency curves from lab measurements on
Broadwell/Skylake platforms (Sec. 4.2).  This module encodes behavioural
designs whose efficiency surfaces land inside the published ranges:

* off-chip (board) switching regulators: 72 %--93 % over the operational range
  (Fig. 3: roughly 45--55 % at 0.1 A in PS0, rising to 85--93 % at several
  amps; PS1 considerably better at light load and slightly worse at heavy
  load; higher output voltages uniformly more efficient),
* on-chip IVRs: 81 %--88 %.

On-chip LDO regulators need no factory: their efficiency is
``(Vout / Vin)`` times the current efficiency
(``PdnTechnologyParameters.ldo_current_efficiency``, 99.1 %).

Keeping every coefficient in one module makes the calibration auditable and
lets experiments build perturbed designs for sensitivity studies.
"""

from __future__ import annotations

from repro.vr.integrated import IntegratedVoltageRegulator, IntegratedVrDesign
from repro.vr.switching import (
    PhaseConfiguration,
    SwitchingRegulator,
    SwitchingRegulatorDesign,
    VRPowerState,
)

#: Per-power-state loss coefficients of a board regulator, as (quiescent
#: scale, switching W per V*A, conduction scale, drive W per A).  The two
#: scales multiply the PS0 quiescent loss and conduction resistance of
#: :func:`board_ps0_terms`.  PS2 is undefined.  The scalar
#: :func:`_board_phase_configs` and the columnar core both read this table.
BOARD_STATE_COEFFICIENTS = {
    VRPowerState.PS0: (1.0, 0.008, 1.0, 0.010),
    VRPowerState.PS1: (0.25, 0.005, 4.0, 0.008),
    VRPowerState.PS3: (0.08, 0.004, 10.0, 0.006),
    VRPowerState.PS4: (0.02, 0.003, 25.0, 0.005),
}


def board_ps0_terms(size_factor, power=pow):
    """PS0 quiescent loss (W) and conduction resistance (ohm) at a size factor.

    ``size_factor`` is the regulator's Iccmax clamped to at least 1 A; it may
    be a float or a NumPy column, with ``power`` the matching exact power
    function (the columnar core passes ``repro.util.vecmath.exact_pow``).
    """
    return 0.035 + 0.0008 * size_factor, 0.011 * power(20.0 / size_factor, 0.3)


def _board_phase_configs(iccmax_a: float) -> dict:
    """Build the per-power-state loss coefficients of a board regulator.

    Fixed (quiescent) losses scale weakly with the regulator's current rating:
    a regulator designed for a higher Iccmax uses more/larger phases, whose
    bias and gate-drive overheads are larger.  Conduction resistance scales
    inversely with the rating (more phases in parallel).
    """
    quiescent_ps0, conduction_ps0 = board_ps0_terms(max(iccmax_a, 1.0))
    # PS0's scales are 1.0, and 1.0 * x == x, so its coefficients are the
    # PS0 terms themselves.
    return {
        state: PhaseConfiguration(
            quiescent_w=quiescent_scale * quiescent_ps0,
            switching_w_per_v_a=switching,
            conduction_ohm=conduction_scale * conduction_ps0,
            drive_w_per_a=drive,
        )
        for state, (quiescent_scale, switching, conduction_scale, drive)
        in BOARD_STATE_COEFFICIENTS.items()
    }


def default_board_vr(name: str, iccmax_a: float) -> SwitchingRegulator:
    """Build a default motherboard switching regulator.

    Used for the per-domain regulators of the MBVR PDN (``V_Cores``, ``V_GFX``,
    ``V_SA``, ``V_IO``) and for the dedicated SA/IO regulators of the LDO,
    I+MBVR and FlexWatts PDNs.  The input is the platform supply
    (7.2 V--20 V); the output is a domain voltage (0.5 V--1.8 V).
    """
    design = SwitchingRegulatorDesign(
        name=name,
        iccmax_a=iccmax_a,
        min_headroom_v=0.6,
        regulation_penalty=0.004,
        max_efficiency=0.93,
        phase_configs=_board_phase_configs(iccmax_a),
    )
    return SwitchingRegulator(design)


def default_input_vr(name: str = "V_IN", iccmax_a: float = 40.0) -> SwitchingRegulator:
    """Build the first-stage ``V_IN`` regulator shared by IVR/LDO-style PDNs.

    ``V_IN`` converts the platform supply (7.2 V--20 V) either to ~1.8 V (when
    the second stage is an IVR) or directly to the maximum domain voltage
    (when the second stage is an LDO in bypass/regulation).  It is a large,
    multi-phase regulator, so its quiescent losses are a little higher but its
    conduction resistance lower than a per-domain board regulator.
    """
    design = SwitchingRegulatorDesign(
        name=name,
        iccmax_a=iccmax_a,
        min_headroom_v=0.6,
        regulation_penalty=0.004,
        max_efficiency=0.93,
        phase_configs=_board_phase_configs(iccmax_a),
    )
    return SwitchingRegulator(design)


def default_ivr(name: str, iccmax_a: float = 25.0) -> IntegratedVoltageRegulator:
    """Build a default on-chip integrated voltage regulator (81 %--88 %)."""
    design = IntegratedVrDesign(
        name=name,
        iccmax_a=iccmax_a,
        peak_efficiency=0.88,
        light_load_penalty=0.10,
        light_load_current_a=1.5,
        reference_output_v=1.1,
        conversion_penalty_per_v=0.05,
        quiescent_w=0.015,
    )
    return IntegratedVoltageRegulator(design)

