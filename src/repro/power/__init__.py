"""Power-physics substrate shared by every PDN model.

Contents:

* :mod:`repro.power.domains` -- the processor domains (CPU cores, LLC,
  graphics, system agent, IO), the :class:`~repro.power.domains.DomainLoad`
  dataclass consumed by the PDN models, and the nominal-power-versus-TDP
  curves of Table 2.
* :mod:`repro.power.guardband` -- the voltage-guardband power model (Eq. 2).
* :mod:`repro.power.leakage` -- leakage/dynamic voltage and temperature
  scaling used by the guardband model.
* :mod:`repro.power.power_states` -- package power states (C0, C0_MIN, C2,
  C3, C6, C7, C8) and their typical residencies/power levels.
* :mod:`repro.power.parameters` -- the central parameter set of Table 2.
* :mod:`repro.power.budget` -- the TDP power-budget manager that splits the
  package budget between compute domains and converts spared PDN loss into
  extra compute budget.
* :mod:`repro.power.thermal` -- junction-temperature model used to scale
  leakage with the evaluation scenarios of Sec. 7.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.power.domains import (
        COMPUTE_DOMAINS,
        Domain,
        DomainKind,
        DomainLoad,
        NominalPowerCurves,
        WorkloadType,
    )
    from repro.power.guardband import guardband_power_w, power_gate_power_w
    from repro.power.leakage import scale_power_with_voltage, leakage_temperature_factor
    from repro.power.parameters import PdnTechnologyParameters, default_parameters
    from repro.power.power_states import PackageCState, POWER_STATE_PROFILES
    from repro.power.budget import PowerBudgetManager, PowerBudgetSplit
    from repro.power.thermal import ThermalModel

__all__ = [
    "DomainKind",
    "Domain",
    "DomainLoad",
    "WorkloadType",
    "COMPUTE_DOMAINS",
    "NominalPowerCurves",
    "guardband_power_w",
    "power_gate_power_w",
    "scale_power_with_voltage",
    "leakage_temperature_factor",
    "PdnTechnologyParameters",
    "default_parameters",
    "PackageCState",
    "POWER_STATE_PROFILES",
    "PowerBudgetManager",
    "PowerBudgetSplit",
    "ThermalModel",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.power.domains": (
        "COMPUTE_DOMAINS", "Domain", "DomainKind", "DomainLoad", "NominalPowerCurves",
        "WorkloadType",
    ),
    "repro.power.guardband": ("guardband_power_w", "power_gate_power_w"),
    "repro.power.leakage": ("scale_power_with_voltage", "leakage_temperature_factor"),
    "repro.power.parameters": ("PdnTechnologyParameters", "default_parameters"),
    "repro.power.power_states": ("PackageCState", "POWER_STATE_PROFILES"),
    "repro.power.budget": ("PowerBudgetManager", "PowerBudgetSplit"),
    "repro.power.thermal": ("ThermalModel",),
})
