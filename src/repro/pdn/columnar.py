"""Vectorized columnar evaluation of the PDN models.

This module is the compute core of the redesigned ``EvaluationEngine`` batch
API: instead of one Python call per operating point, a whole grid of
:class:`~repro.pdn.base.OperatingConditions` is laid out as NumPy column
arrays (:class:`ConditionsBatch`) and each PDN topology is evaluated with one
vectorized pass per metric column.

Bit-identity contract
---------------------
The scalar ``evaluate()`` methods remain the *reference oracle*: every result
produced here must be bit-identical to what the per-point path returns for
the same conditions (the seed-equivalence suite and ``repro.serve``'s
bit-identical-response guarantee compare with ``==``).  Three rules make that
possible:

* NumPy's elementwise ``+ - * /``, ``np.maximum`` and ``np.minimum`` are the
  same IEEE-754 operations CPython applies to scalar floats, so each kernel
  mirrors the scalar model's exact operation order (including the order of
  ``+=`` accumulations).
* Transcendentals (``**``, ``exp``) are *not* bit-stable under SIMD, so they
  go through the unique-value memos of :mod:`repro.util.vecmath`, which call
  the scalar CPython operation once per distinct input.
* Nothing is written twice.  Quantities that only depend on the TDP column
  (regulator Iccmax sizing, peak powers) call the *scalar* sizing helpers
  once per unique TDP; the batch computes that TDP reduction once and every
  kernel call reuses it.  Board-regulator loss coefficients are one array
  formula over the per-state table and PS0 terms the scalar
  ``_board_phase_configs`` reads too.  Per-domain quantities are stacked in
  one (6, n) matrix per quantity, so the guardband step is one pass over all
  six domains; sums across domains stay explicit and left to right.  The
  batch's memos die with it: nothing is kept between batches.

Errors
------
A kernel returns every lane or raises the scalar model's own exception: its
operating-point checks only mark failing lanes, and the lowest marked lane
is evaluated alone through the model's per-point method, which raises.
"""

from __future__ import annotations

import threading
from types import MappingProxyType
from typing import Callable, Dict, List, NoReturn, Optional, Sequence, Tuple

import numpy as np

from repro.pdn.base import (
    OperatingConditions,
    PdnEvaluation,
    peak_domain_powers_w,
)
from repro.pdn.common import ICCMAX_DESIGN_MARGIN, MIN_BOARD_VR_ICCMAX_A
from repro.pdn.imbvr import IMbvrPdn
from repro.pdn.ivr import IvrPdn
from repro.pdn.ldo import LDO_UNCORE_RAILS, LdoPdn
from repro.pdn.losses import LossBreakdown
from repro.pdn.mbvr import MBVR_RAILS, MbvrPdn
from repro.power.domains import COMPUTE_DOMAINS, DomainKind
from repro.util.errors import ReproError
from repro.util.vecmath import (
    exact_exp,
    exact_pow,
    exact_pow2,
    map_unique,
    unique_inverse,
)
from repro.vr.efficiency_curves import (
    BOARD_STATE_COEFFICIENTS,
    board_ps0_terms,
    default_board_vr,
    default_ivr,
)
from repro.vr.ldo import LowDropoutRegulator
from repro.vr.switching import VRPowerState

__all__ = ["ConditionsBatch", "evaluate_columns"]

#: Canonical domain order: the order every load set is in (checked by
#: :func:`~repro.power.domains.validate_load_set`), so dict and accumulation
#: order match the scalar models exactly.
_DOMAIN_ORDER: Tuple[DomainKind, ...] = tuple(DomainKind)

# Design constants of the default regulators, captured from probe instances so
# the kernels share the exact floats of the scalar models instead of
# duplicating literals.
_BOARD_DESIGN = default_board_vr("columnar_probe", MIN_BOARD_VR_ICCMAX_A).design
_IVR_DESIGN = default_ivr("columnar_probe").design

#: :data:`BOARD_STATE_COEFFICIENTS` as a (4, states) matrix indexed by
#: ``VRPowerState.value``; undefined states are NaN columns.
_BOARD_STATE_TABLE = np.full((4, len(VRPowerState)), np.nan)
for _state, _coefficients in BOARD_STATE_COEFFICIENTS.items():
    _BOARD_STATE_TABLE[:, _state.value] = _coefficients
_BOARD_STATE_DEFINED = ~np.isnan(_BOARD_STATE_TABLE[0])

#: The per-domain load quantities a batch stacks into (6, n) matrices; the
#: ``effective`` (active-or-zero nominal power) matrix derives from them.
_DOMAIN_QUANTITIES = ("nominal", "voltage", "leakage", "active", "gated_rail")


#: Memo of :func:`peak_domain_powers_w` keyed by TDP.  The function is pure
#: and interpolates several curves per call, which dominated the sizing step;
#: grids revisit the same few TDPs constantly.  Bounded to stay O(grid axes).
_PEAK_POWERS_MEMO: Dict[float, Dict[DomainKind, float]] = {}


def _peak_powers(tdp_w: float) -> Dict[DomainKind, float]:
    peaks = _PEAK_POWERS_MEMO.get(tdp_w)
    if peaks is None:
        if len(_PEAK_POWERS_MEMO) >= 4096:
            _PEAK_POWERS_MEMO.clear()
        peaks = _PEAK_POWERS_MEMO[tdp_w] = peak_domain_powers_w(tdp_w)
    return peaks


# --------------------------------------------------------------------------- #
# Column layout
# --------------------------------------------------------------------------- #
class ConditionsBatch:
    """A grid of operating conditions laid out as NumPy columns.

    Scalar per-condition attributes become float64 arrays.  Each per-domain
    load attribute becomes one (6, n) matrix in ``stacked``, rows in
    canonical domain order; ``nominal[kind]``, ``voltage[kind]`` and the
    other per-domain lookups are row views of those matrices.
    """

    __slots__ = (
        "conditions",
        "n",
        "tdp_w",
        "application_ratio",
        "state_codes",
        "stacked",
        "nominal",
        "voltage",
        "leakage",
        "active",
        "gated_rail",
        "effective",
        "nominal_total",
        "_tdp_unique",
    )

    @classmethod
    def from_conditions(
        cls, conditions: Sequence[OperatingConditions]
    ) -> "ConditionsBatch":
        conditions = list(conditions)
        # Per-domain columns of each distinct load set, as positional list
        # slots so the loop appends to local lists without dict/enum
        # lookups; every load set is in canonical domain order.  The points
        # of a grid share their load sets (see LoadSets), so each set is
        # read once and its row gathered per lane; identity keys are safe,
        # ``conditions`` pins the loads.
        slots = [([], [], [], [], []) for _ in _DOMAIN_ORDER]
        row_of: Dict[int, int] = {}
        rows = [row_of.setdefault(id(c.loads), len(row_of)) for c in conditions]
        for loads in {id(c.loads): c.loads for c in conditions}.values():
            for load, (nom, volt, leak, act, gate) in zip(loads, slots):
                nom.append(load.nominal_power_w)
                volt.append(load.voltage_v)
                leak.append(load.leakage_fraction)
                act.append(load.active)
                gate.append(load.power_gated_rail)
        lanes = np.array(rows, dtype=np.intp)
        batch = cls.__new__(cls)
        batch.conditions = conditions
        batch.n = len(conditions)
        batch.tdp_w = np.array([c.tdp_w for c in conditions], dtype=np.float64)
        batch.application_ratio = np.array(
            [c.application_ratio for c in conditions], dtype=np.float64
        )
        # ``_value_`` is the member's raw value; ``.value`` is a slower property.
        batch.state_codes = np.array(
            [c.board_vr_state._value_ for c in conditions], dtype=np.intp
        )

        def stack(column: int, dtype) -> "np.ndarray":
            matrix = np.array([slot[column] for slot in slots], dtype=dtype)
            return np.take(matrix, lanes, axis=1)

        batch._install(
            {
                "nominal": stack(0, np.float64),
                "voltage": stack(1, np.float64),
                "leakage": stack(2, np.float64),
                "active": stack(3, bool),
                "gated_rail": stack(4, bool),
            }
        )
        # Sequential sum in load order, mirroring the nominal_power_w property.
        total = None
        for row in batch.stacked["effective"]:
            total = row if total is None else total + row
        batch.nominal_total = total
        return batch

    def _install(self, stacked: Dict[str, "np.ndarray"]) -> None:
        """Install the (6, n) matrices, their per-domain row views and an
        empty per-batch TDP memo."""
        stacked["effective"] = np.where(stacked["active"], stacked["nominal"], 0.0)
        self.stacked = stacked
        for name, matrix in stacked.items():
            setattr(self, name, dict(zip(_DOMAIN_ORDER, matrix)))
        self._tdp_unique = None

    def take(self, indices: Sequence[int]) -> "ConditionsBatch":
        """A sub-batch holding the lanes in ``indices`` (in that order)."""
        idx = np.asarray(indices, dtype=np.intp)
        sub = ConditionsBatch.__new__(ConditionsBatch)
        sub.conditions = [self.conditions[i] for i in indices]
        sub.n = len(sub.conditions)
        sub.tdp_w = self.tdp_w[idx]
        sub.application_ratio = self.application_ratio[idx]
        sub.state_codes = self.state_codes[idx]
        sub._install(
            {
                name: np.take(self.stacked[name], idx, axis=1)
                for name in _DOMAIN_QUANTITIES
            }
        )
        sub.nominal_total = self.nominal_total[idx]
        return sub

    def per_unique_tdp(self, fn) -> "np.ndarray":
        """Apply scalar ``fn`` once per unique TDP and scatter back.

        The TDP column's unique values and inverse are computed on the first
        call and reused by every later one on this batch.
        """
        if self._tdp_unique is None:
            self._tdp_unique = unique_inverse(self.tdp_w)
        return map_unique(self._tdp_unique, fn)


class _LossColumns:
    """Columnar mirror of :class:`LossBreakdown` during kernel evaluation,
    with the mask of lanes an operating-point check marked as failed."""

    __slots__ = (
        "on_chip_vr_w",
        "off_chip_vr_w",
        "conduction_compute_w",
        "conduction_uncore_w",
        "other_w",
        "details",
        "failed",
    )

    def __init__(self, n: int):
        zeros = np.zeros(n, dtype=np.float64)
        self.on_chip_vr_w = zeros
        self.off_chip_vr_w = zeros
        self.conduction_compute_w = zeros
        self.conduction_uncore_w = zeros
        self.other_w = zeros
        # Ordered (rail name, values array, lane mask or None) entries.
        self.details: List[Tuple[str, "np.ndarray", Optional["np.ndarray"]]] = []
        self.failed = np.zeros(n, dtype=bool)


class _RailColumns:
    """Columnar mirror of :class:`~repro.pdn.common.RailEvaluation`."""

    __slots__ = (
        "supply",
        "voltage",
        "current",
        "conduction",
        "off_chip",
        "idle_quiescent",
    )

    def __init__(self, supply, voltage, current, conduction, off_chip, idle_quiescent):
        self.supply = supply
        self.voltage = voltage
        self.current = current
        self.conduction = conduction
        self.off_chip = off_chip
        self.idle_quiescent = idle_quiescent


class _SwitchingCoeffs:
    """Per-lane loss coefficients of a board switching regulator."""

    __slots__ = ("quiescent_w", "switching", "conduction", "drive", "iccmax")

    def __init__(self, quiescent_w, switching, conduction, drive, iccmax):
        self.quiescent_w = quiescent_w
        self.switching = switching
        self.conduction = conduction
        self.drive = drive
        self.iccmax = iccmax


# --------------------------------------------------------------------------- #
# Vectorized building blocks (each mirrors one scalar helper exactly)
# --------------------------------------------------------------------------- #
def _scale_power_vec(power, voltage, guardband, leakage_fraction, exponent):
    """Vector mirror of :func:`repro.power.leakage.scale_power_with_voltage`."""
    ratio = (voltage + guardband) / voltage
    ratio_leak, ratio_dyn = exact_pow2(ratio, exponent, 2)
    leakage_term = leakage_fraction * ratio_leak
    dynamic_term = (1.0 - leakage_fraction) * ratio_dyn
    return power * (leakage_term + dynamic_term)


def _apply_guardbands_vec(batch, tolerance_band_v, gated_kinds, params):
    """Vector mirror of :func:`repro.pdn.common.apply_guardbands`.

    One pass over the batch's (6, n) domain matrices; the power-gate term is
    a second pass over just the gated rows with a non-zero impedance.
    Returns ``{kind: gated_power_w row}``.
    """
    stacked = batch.stacked
    nominal = stacked["nominal"]
    voltage = stacked["voltage"]
    leakage = stacked["leakage"]
    exponent = params.leakage_exponent
    gated = np.where(
        stacked["active"] & (nominal != 0.0),
        _scale_power_vec(nominal, voltage, tolerance_band_v, leakage, exponent),
        0.0,
    )
    impedances = params.power_gate_impedance_ohm
    rows = [
        row
        for row, kind in enumerate(_DOMAIN_ORDER)
        if kind in gated_kinds and impedances.get(kind, 0.0) != 0.0
    ]
    if rows:
        impedance = np.array([[impedances[_DOMAIN_ORDER[row]]] for row in rows])
        pgb = gated[rows]
        gated_voltage = voltage[rows] + tolerance_band_v
        current = pgb / gated_voltage
        drop = impedance * current
        rescaled = _scale_power_vec(
            pgb, gated_voltage, drop, leakage[rows], exponent
        )
        gated[rows] = np.where(
            (pgb != 0.0) & stacked["gated_rail"][rows], rescaled, pgb
        )
    return dict(zip(_DOMAIN_ORDER, gated))


def _guardband_loss_sum(batch, gated, kinds):
    """Sequential sum of per-domain guardband losses, in ``kinds`` order."""
    total = None
    for kind in kinds:
        loss = gated[kind] - batch.effective[kind]
        total = loss if total is None else total + loss
    return total


def _group_power(gated, kinds):
    """Vector mirror of :func:`repro.pdn.common.group_power_w`."""
    total = None
    for kind in kinds:
        total = gated[kind] if total is None else total + gated[kind]
    return total


def _group_voltage(batch, kinds):
    """Vector mirror of :func:`repro.pdn.common.group_voltage_v`."""
    best = np.full(batch.n, -np.inf)
    has_active = np.zeros(batch.n, dtype=bool)
    for kind in kinds:
        eligible = batch.active[kind] & (batch.nominal[kind] > 0.0)
        best = np.where(eligible, np.maximum(best, batch.voltage[kind]), best)
        has_active |= eligible
    return np.where(has_active, best, batch.voltage[kinds[0]])


def _loadline_vec(impedance_ohm, rail_voltage, rail_power, application_ratio):
    """Vector mirror of :meth:`repro.vr.load_line.LoadLine.apply`.

    The zero-power branch needs no mask: with ``P == 0`` the formulas below
    collapse to exactly (nominal voltage, 0, 0, 0).
    """
    peak_power = rail_power / application_ratio
    peak_current = peak_power / rail_voltage
    guardbanded_voltage = rail_voltage + impedance_ohm * peak_current
    rail_current = rail_power / rail_voltage
    guardbanded_power = guardbanded_voltage * rail_current
    conduction = guardbanded_power - rail_power
    return guardbanded_voltage, guardbanded_power, rail_current, conduction


def _switching_coefficients(batch, iccmax, failed):
    """Per-lane phase-configuration coefficients of a board regulator.

    The array form of :func:`repro.vr.efficiency_curves._board_phase_configs`:
    the same PS0 terms, scaled by each lane's row of the per-state table.
    Marks in ``failed`` every lane whose power state the regulator does not
    define (the scalar path raises ``ConfigurationError`` there); their
    coefficients are NaN.
    """
    codes = batch.state_codes
    failed |= ~_BOARD_STATE_DEFINED[codes]
    quiescent_scale, switching, conduction_scale, drive = np.take(
        _BOARD_STATE_TABLE, codes, axis=1
    )
    quiescent_ps0, conduction_ps0 = board_ps0_terms(
        np.maximum(iccmax, 1.0), exact_pow
    )
    return _SwitchingCoeffs(
        quiescent_scale * quiescent_ps0,
        switching,
        conduction_scale * conduction_ps0,
        drive,
        iccmax,
    )


def _switching_supply(coeffs, input_voltage_v, output_voltage, current, check, failed):
    """Vector mirror of ``SwitchingRegulator.input_power_w`` (active lanes).

    ``check`` masks the lanes the scalar path would actually evaluate; each
    of them that violates the regulator's over-current or headroom limit is
    marked in ``failed``.  Lanes outside ``check`` produce NaN and must be
    replaced by the caller.
    """
    failed |= check & (
        (current > coeffs.iccmax)
        | ((input_voltage_v - output_voltage) < _BOARD_DESIGN.min_headroom_v)
    )
    output_power = output_voltage * current
    conversion_drop = np.maximum(0.0, input_voltage_v - output_voltage)
    loss = (
        coeffs.quiescent_w
        + coeffs.switching * input_voltage_v * current
        + coeffs.conduction * current * current
        + coeffs.drive * current
        + _BOARD_DESIGN.regulation_penalty * conversion_drop * output_power
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        efficiency = output_power / (output_power + loss)
        efficiency = np.minimum(efficiency, _BOARD_DESIGN.max_efficiency)
        return output_power / efficiency


def _board_rail_vec(
    batch, rail_power, rail_voltage, impedance_ohm, sizing_current, params, failed
):
    """Vector mirror of :func:`repro.pdn.common.evaluate_board_rail`."""
    iccmax = np.maximum(MIN_BOARD_VR_ICCMAX_A, sizing_current * ICCMAX_DESIGN_MARGIN)
    coeffs = _switching_coefficients(batch, iccmax, failed)
    m = rail_power > 0.0
    ll_voltage, ll_power, ll_current, ll_conduction = _loadline_vec(
        impedance_ohm, rail_voltage, rail_power, batch.application_ratio
    )
    supply_active = _switching_supply(
        coeffs, params.supply_voltage_v, ll_voltage, ll_current, m, failed
    )
    idle = coeffs.quiescent_w
    return _RailColumns(
        supply=np.where(m, supply_active, idle),
        voltage=ll_voltage,
        current=ll_current,
        conduction=ll_conduction,
        off_chip=np.where(m, supply_active - ll_power, 0.0),
        idle_quiescent=np.where(m, 0.0, idle),
    )


def _ivr_domain_inputs(batch, gated, kinds, input_voltage_v, failed):
    """Vector mirror of the per-domain IVR conversions of ``kinds``.

    One pass over a (len(kinds), n) stack, so one ``exact_exp``; returns the
    active-lane masks and input powers, one row per kind.  Marks in
    ``failed`` every lane where an active IVR is over its current limit or
    asked for an output at or above its input.
    """
    voltage = batch.stacked["voltage"][[_DOMAIN_ORDER.index(k) for k in kinds]]
    gated_power = np.stack([gated[kind] for kind in kinds])
    m = gated_power > 0.0
    current = gated_power / voltage
    iccmax = np.maximum(5.0, 2.0 * gated_power / voltage)
    failed |= (m & ((current > iccmax) | (voltage >= input_voltage_v))).any(axis=0)
    output_power = voltage * current
    light_load = _IVR_DESIGN.light_load_penalty * exact_exp(
        (-current) / _IVR_DESIGN.light_load_current_a
    )
    conversion = _IVR_DESIGN.conversion_penalty_per_v * np.maximum(
        0.0, _IVR_DESIGN.reference_output_v - voltage
    )
    efficiency = _IVR_DESIGN.peak_efficiency - light_load - conversion
    efficiency = np.maximum(0.5, np.minimum(efficiency, _IVR_DESIGN.peak_efficiency))
    return m, output_power / efficiency


# --------------------------------------------------------------------------- #
# Per-topology kernels
# --------------------------------------------------------------------------- #
def _evaluate_ivr(pdn: IvrPdn, batch: ConditionsBatch):
    params = pdn.parameters
    gated = _apply_guardbands_vec(
        batch, params.ivr_tolerance_band_v, frozenset(), params
    )
    loss = _LossColumns(batch.n)
    loss.other_w = _guardband_loss_sum(batch, gated, _DOMAIN_ORDER)

    input_voltage_v = params.ivr_input_voltage_v
    input_rail = np.zeros(batch.n)
    compute_share = np.zeros(batch.n)
    masks, inputs = _ivr_domain_inputs(batch, gated, _DOMAIN_ORDER, input_voltage_v, loss.failed)
    for kind, m, domain_input in zip(_DOMAIN_ORDER, masks, inputs):
        loss.on_chip_vr_w = np.where(
            m, loss.on_chip_vr_w + (domain_input - gated[kind]), loss.on_chip_vr_w
        )
        loss.details.append((f"IVR_{kind.value}", domain_input, m))
        input_rail = np.where(m, input_rail + domain_input, input_rail)
        if kind in COMPUTE_DOMAINS:
            compute_share = np.where(m, compute_share + domain_input, compute_share)

    ll_voltage, ll_power, ll_current, ll_conduction = _loadline_vec(
        pdn._input_load_line.impedance_ohm,
        input_voltage_v,
        input_rail,
        batch.application_ratio,
    )
    m_in = input_rail > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        compute_fraction = np.where(m_in, compute_share / input_rail, 0.0)
    loss.conduction_compute_w = (
        loss.conduction_compute_w + ll_conduction * compute_fraction
    )
    loss.conduction_uncore_w = (
        loss.conduction_uncore_w + ll_conduction * (1.0 - compute_fraction)
    )

    input_iccmax = batch.per_unique_tdp(pdn._input_vr_iccmax_a)
    coeffs = _switching_coefficients(batch, input_iccmax, loss.failed)
    supply_active = _switching_supply(
        coeffs, params.supply_voltage_v, ll_voltage, ll_current, m_in, loss.failed
    )
    supply = np.where(m_in, supply_active, coeffs.quiescent_w)
    loss.off_chip_vr_w = np.where(
        m_in, loss.off_chip_vr_w + (supply_active - ll_power), loss.off_chip_vr_w
    )
    loss.other_w = np.where(m_in, loss.other_w, loss.other_w + coeffs.quiescent_w)
    return supply, ll_current, loss, [("V_IN", ll_voltage, None)]


def _evaluate_mbvr(pdn: MbvrPdn, batch: ConditionsBatch):
    params = pdn.parameters
    gated = _apply_guardbands_vec(
        batch, params.mbvr_tolerance_band_v, frozenset(DomainKind), params
    )
    loss = _LossColumns(batch.n)
    loss.other_w = _guardband_loss_sum(batch, gated, _DOMAIN_ORDER)

    supply = np.zeros(batch.n)
    current = np.zeros(batch.n)
    rail_voltages = []
    for rail_name, (rail_domains, is_compute) in MBVR_RAILS.items():
        rail_power = _group_power(gated, rail_domains)
        rail_voltage = _group_voltage(batch, rail_domains)
        sizing = batch.per_unique_tdp(
            lambda t, domains=rail_domains: pdn._rail_sizing_current_a(
                domains, _peak_powers(t), t
            )
        )
        rail = _board_rail_vec(
            batch,
            rail_power,
            rail_voltage,
            params.mbvr_loadline_ohm[rail_domains[0]],
            sizing,
            params,
            loss.failed,
        )
        supply = supply + rail.supply
        current = current + rail.current
        rail_voltages.append((rail_name, rail.voltage, None))
        loss.off_chip_vr_w = loss.off_chip_vr_w + rail.off_chip
        loss.other_w = loss.other_w + rail.idle_quiescent
        if is_compute:
            loss.conduction_compute_w = loss.conduction_compute_w + rail.conduction
        else:
            loss.conduction_uncore_w = loss.conduction_uncore_w + rail.conduction
        loss.details.append((rail_name, rail.supply, None))
    return supply, current, loss, rail_voltages


def _ldo_compute_side(pdn: LdoPdn, batch: ConditionsBatch, loss, impedance_ohm):
    """Vector mirror of :meth:`LdoPdn.evaluate_compute_side`."""
    params = pdn.parameters
    gated = _apply_guardbands_vec(
        batch, params.ldo_tolerance_band_v, frozenset(), params
    )
    masks = {kind: gated[kind] > 0.0 for kind in COMPUTE_DOMAINS}
    loss.other_w = loss.other_w + _guardband_loss_sum(batch, gated, COMPUTE_DOMAINS)
    m_any = np.zeros(batch.n, dtype=bool)
    for kind in COMPUTE_DOMAINS:
        m_any |= masks[kind]
    zeros = np.zeros(batch.n)
    if not m_any.any():
        return zeros, zeros, zeros

    input_voltage = np.full(batch.n, -np.inf)
    for kind in COMPUTE_DOMAINS:
        input_voltage = np.where(
            masks[kind], np.maximum(input_voltage, batch.voltage[kind]), input_voltage
        )
    # Placeholder on fully-gated lanes; every use below is masked by m_any.
    input_voltage = np.where(m_any, input_voltage, 1.0)

    probe = LowDropoutRegulator(
        name="columnar_probe", current_efficiency=params.ldo_current_efficiency
    )
    current_efficiency = probe.current_efficiency
    dropout_v = probe._dropout_voltage_v
    bypass_ohm = probe.bypass_resistance_ohm

    input_rail = zeros
    for kind in COMPUTE_DOMAINS:
        m = masks[kind]
        voltage = batch.voltage[kind]
        current = gated[kind] / voltage
        drop = bypass_ohm * current
        effective_v = np.maximum(input_voltage - drop, 1e-9)
        bypass = (input_voltage - voltage) <= dropout_v
        efficiency = np.where(
            bypass,
            effective_v / input_voltage * current_efficiency,
            voltage / input_voltage * current_efficiency,
        )
        domain_input = voltage * current / efficiency
        loss.on_chip_vr_w = np.where(
            m, loss.on_chip_vr_w + (domain_input - gated[kind]), loss.on_chip_vr_w
        )
        loss.details.append((f"LDO_{kind.value}", domain_input, m))
        input_rail = np.where(m, input_rail + domain_input, input_rail)

    ll_voltage, ll_power, ll_current, ll_conduction = _loadline_vec(
        impedance_ohm, input_voltage, input_rail, batch.application_ratio
    )
    loss.conduction_compute_w = np.where(
        m_any, loss.conduction_compute_w + ll_conduction, loss.conduction_compute_w
    )
    input_iccmax = batch.per_unique_tdp(pdn._input_vr_iccmax_a)
    coeffs = _switching_coefficients(batch, input_iccmax, loss.failed)
    supply_active = _switching_supply(
        coeffs, params.supply_voltage_v, ll_voltage, ll_current, m_any, loss.failed
    )
    loss.off_chip_vr_w = np.where(
        m_any, loss.off_chip_vr_w + (supply_active - ll_power), loss.off_chip_vr_w
    )
    return (
        np.where(m_any, supply_active, 0.0),
        np.where(m_any, ll_current, 0.0),
        np.where(m_any, ll_voltage, 0.0),
    )


def _imbvr_compute_side(pdn: IMbvrPdn, batch: ConditionsBatch, loss, impedance_ohm):
    """Vector mirror of :meth:`IMbvrPdn.evaluate_compute_side`."""
    params = pdn.parameters
    gated = _apply_guardbands_vec(
        batch, params.ivr_tolerance_band_v, frozenset(), params
    )
    masks = {kind: gated[kind] > 0.0 for kind in COMPUTE_DOMAINS}
    loss.other_w = loss.other_w + _guardband_loss_sum(batch, gated, COMPUTE_DOMAINS)
    m_any = np.zeros(batch.n, dtype=bool)
    for kind in COMPUTE_DOMAINS:
        m_any |= masks[kind]

    input_iccmax = batch.per_unique_tdp(pdn._input_vr_iccmax_a)
    coeffs = _switching_coefficients(batch, input_iccmax, loss.failed)
    # Fully-gated lanes: V_IN stays alive, drawing only quiescent power.
    loss.other_w = np.where(m_any, loss.other_w, loss.other_w + coeffs.quiescent_w)

    input_voltage_v = params.ivr_input_voltage_v
    input_rail = np.zeros(batch.n)
    masks, inputs = _ivr_domain_inputs(batch, gated, COMPUTE_DOMAINS, input_voltage_v, loss.failed)
    for kind, m, domain_input in zip(COMPUTE_DOMAINS, masks, inputs):
        loss.on_chip_vr_w = np.where(
            m, loss.on_chip_vr_w + (domain_input - gated[kind]), loss.on_chip_vr_w
        )
        loss.details.append((f"IVR_{kind.value}", domain_input, m))
        input_rail = np.where(m, input_rail + domain_input, input_rail)

    ll_voltage, ll_power, ll_current, ll_conduction = _loadline_vec(
        impedance_ohm, input_voltage_v, input_rail, batch.application_ratio
    )
    loss.conduction_compute_w = np.where(
        m_any, loss.conduction_compute_w + ll_conduction, loss.conduction_compute_w
    )
    supply_active = _switching_supply(
        coeffs, params.supply_voltage_v, ll_voltage, ll_current, m_any, loss.failed
    )
    loss.off_chip_vr_w = np.where(
        m_any, loss.off_chip_vr_w + (supply_active - ll_power), loss.off_chip_vr_w
    )
    return (
        np.where(m_any, supply_active, coeffs.quiescent_w),
        np.where(m_any, ll_current, 0.0),
        np.where(m_any, ll_voltage, 0.0),
    )


def _uncore_rails_vec(ldo_pdn: LdoPdn, batch: ConditionsBatch, loss):
    """Vector mirror of :meth:`LdoPdn.evaluate_uncore_rails`."""
    params = ldo_pdn.parameters
    gated = _apply_guardbands_vec(
        batch,
        params.ldo_tolerance_band_v,
        frozenset(kind for kind, _ in LDO_UNCORE_RAILS),
        params,
    )
    loss.other_w = loss.other_w + _guardband_loss_sum(
        batch, gated, tuple(kind for kind, _ in LDO_UNCORE_RAILS)
    )
    supply = np.zeros(batch.n)
    current = np.zeros(batch.n)
    rail_voltages = []
    for kind, rail_name in LDO_UNCORE_RAILS:
        rail_power = gated[kind]
        rail_voltage = _group_voltage(batch, (kind,))
        peak = batch.per_unique_tdp(lambda t, k=kind: _peak_powers(t)[k])
        rail = _board_rail_vec(
            batch,
            rail_power,
            rail_voltage,
            params.uncore_loadline_ohm[kind],
            peak / rail_voltage,
            params,
            loss.failed,
        )
        supply = supply + rail.supply
        current = current + rail.current
        rail_voltages.append((rail_name, rail.voltage, None))
        loss.off_chip_vr_w = loss.off_chip_vr_w + rail.off_chip
        loss.conduction_uncore_w = loss.conduction_uncore_w + rail.conduction
        loss.other_w = loss.other_w + rail.idle_quiescent
        loss.details.append((rail_name, rail.supply, None))
    return supply, current, rail_voltages


def _evaluate_ldo(pdn: LdoPdn, batch: ConditionsBatch):
    loss = _LossColumns(batch.n)
    compute_supply, compute_current, input_rail_v = _ldo_compute_side(
        pdn, batch, loss, pdn._input_load_line.impedance_ohm
    )
    uncore_supply, uncore_current, rail_voltages = _uncore_rails_vec(pdn, batch, loss)
    rail_voltages.append(("V_IN", input_rail_v, input_rail_v > 0.0))
    return (
        compute_supply + uncore_supply,
        compute_current + uncore_current,
        loss,
        rail_voltages,
    )


def _evaluate_imbvr(pdn: IMbvrPdn, batch: ConditionsBatch):
    loss = _LossColumns(batch.n)
    compute_supply, compute_current, input_rail_v = _imbvr_compute_side(
        pdn, batch, loss, pdn._input_load_line.impedance_ohm
    )
    uncore_supply, uncore_current, rail_voltages = _uncore_rails_vec(
        pdn._uncore_model, batch, loss
    )
    rail_voltages.append(("V_IN", input_rail_v, input_rail_v > 0.0))
    return (
        compute_supply + uncore_supply,
        compute_current + uncore_current,
        loss,
        rail_voltages,
    )


_COLUMN_KERNELS = {
    IvrPdn: _evaluate_ivr,
    MbvrPdn: _evaluate_mbvr,
    LdoPdn: _evaluate_ldo,
    IMbvrPdn: _evaluate_imbvr,
}


def _flexwatts_class():
    # Imported lazily: repro.core pulls in the predictor/calibration stack,
    # which would cycle back into repro.analysis at import time.
    from repro.core.flexwatts import FlexWattsPdn

    return FlexWattsPdn


def _kernel(pdn):
    """The kernel of ``pdn``'s class, or of its nearest base class with one."""
    for cls in type(pdn).__mro__:
        kernel = _COLUMN_KERNELS.get(cls)
        if kernel is not None:
            return kernel
    raise TypeError(f"no columnar kernel for {type(pdn).__name__}")


# --------------------------------------------------------------------------- #
# Lanes and dispatch
# --------------------------------------------------------------------------- #
class _BlockDetail:
    """The loss and rail-voltage columns of one evaluated block.

    Shared by the block's lanes: each lane's :class:`LossBreakdown` and
    rail-voltage map are built from these columns the first time the lane's
    ``breakdown`` or ``rail_voltages_v`` is read, then kept on the lane (see
    :meth:`PdnEvaluation.__getattr__`).  Sweeps read neither, so most lanes
    never pay for them.  Builds run under the block's lock: cached lanes are
    shared across threads, and every reader must see one result.
    """

    __slots__ = ("_loss", "_rails", "_lists", "_lock")

    def __init__(self, loss: _LossColumns, rail_voltages):
        self._loss = loss
        self._rails = rail_voltages
        self._lists = None
        self._lock = threading.Lock()

    def detail(self, evaluation: PdnEvaluation, name: str) -> object:
        """Build ``evaluation``'s detail once and return its field ``name``."""
        state = evaluation.__dict__
        with self._lock:
            if "_block" in state:
                if self._lists is None:
                    self._lists = self._to_lists()
                losses, details, rails = self._lists
                lane = state["_lane"]
                breakdown = object.__new__(LossBreakdown)
                # Frozen dataclass: fill the dict in place, in field order.
                breakdown.__dict__.update(
                    on_chip_vr_w=losses[0][lane],
                    off_chip_vr_w=losses[1][lane],
                    conduction_compute_w=losses[2][lane],
                    conduction_uncore_w=losses[3][lane],
                    other_w=losses[4][lane],
                    rail_details=MappingProxyType(_lane_dict(details, lane)),
                )
                state["breakdown"] = breakdown
                state["rail_voltages_v"] = MappingProxyType(_lane_dict(rails, lane))
                del state["_block"], state["_lane"]
            return state[name]

    def _to_lists(self):
        loss = self._loss
        losses = tuple(
            column.tolist()
            for column in (
                loss.on_chip_vr_w,
                loss.off_chip_vr_w,
                loss.conduction_compute_w,
                loss.conduction_uncore_w,
                loss.other_w,
            )
        )
        return losses, _dict_columns(loss.details), _dict_columns(self._rails)


def _dict_columns(entries):
    """``(name, values, mask)`` columns as (unmasked, masked) value lists.

    A mask that is true on every lane of the block counts as no mask, so
    unmasked names come first in each lane's dict, then masked ones where
    their lane is set -- the key order of every columnar lane since the
    kernels were written, which pickled entries preserve.
    """
    unmasked = []
    masked = []
    for name, values, mask in entries:
        if mask is not None and bool(mask.all()):
            mask = None
        if mask is None:
            unmasked.append((name, values.tolist()))
        else:
            masked.append((name, values.tolist(), mask.tolist()))
    return unmasked, masked


def _lane_dict(columns, lane: int) -> Dict[str, float]:
    """One lane's ``{name: value}`` map from :func:`_dict_columns` output."""
    unmasked, masked = columns
    row = {name: values[lane] for name, values in unmasked}
    for name, values, mask in masked:
        if mask[lane]:
            row[name] = values[lane]
    return row


def _lanes(batch, pdn_name, supply, current, loss, rail_voltages):
    """One :class:`PdnEvaluation` per lane, its detail left in the columns."""
    block = _BlockDetail(loss, rail_voltages)
    # Construct via __new__ and fill the dict in place, skipping the
    # frozen-dataclass __init__ (object.__setattr__ per field).
    new = object.__new__
    evaluation_cls = PdnEvaluation
    out = []
    append = out.append
    for lane, (nominal, supply_w, current_a) in enumerate(zip(
        batch.nominal_total.tolist(), supply.tolist(), current.tolist()
    )):
        evaluation = new(evaluation_cls)
        evaluation.__dict__.update(
            pdn_name=pdn_name,
            nominal_power_w=nominal,
            supply_power_w=supply_w,
            chip_input_current_a=current_a,
            _block=block,
            _lane=lane,
        )
        append(evaluation)
    return out


def _raise_lane_error(pdn, conditions, lane: int, mode, wrap_error) -> NoReturn:
    """Raise the model's own error for ``conditions[lane]``, a marked lane,
    evaluating only that point through the model's per-point method."""
    point = conditions[lane]
    try:
        if mode is None:
            pdn.evaluate(point)
        else:
            pdn.evaluate_in_mode(point, mode)
    except ReproError as error:
        if wrap_error is None:
            raise
        raise wrap_error(point, error) from error
    raise RuntimeError(
        f"the {pdn.name} columnar kernel marked lane {lane} (TDP {point.tdp_w:g} W, "
        f"AR {point.application_ratio:g}) as failed, but the model accepts it; this is a bug"
    )


def _evaluate_flexwatts(pdn, batch: ConditionsBatch, mode, wrap_error):
    """Columnar FlexWatts evaluation: predict every lane at once, batch per
    mode; a failure on either side raises for the batch's lowest failing lane."""
    from repro.core.hybrid_vr import PdnMode

    if mode is None:
        modes = pdn.predict_modes(batch.conditions)
        final_name = pdn.name
    else:
        modes = [mode] * batch.n
        final_name = f"{pdn.name}[{mode.value}]"

    ivr_lanes = [i for i, m in enumerate(modes) if m is PdnMode.IVR_MODE]
    ldo_lanes = [i for i, m in enumerate(modes) if m is not PdnMode.IVR_MODE]
    results: List[Optional[PdnEvaluation]] = [None] * batch.n
    failed = []
    for lanes, side in ((ivr_lanes, pdn._ivr_mode_model), (ldo_lanes, pdn._ldo_mode_model)):
        if not lanes:
            continue
        # A forced mode sends every lane to one side: evaluate the batch
        # itself, keeping its memos, instead of a copy.
        sub = batch if len(lanes) == batch.n else batch.take(lanes)
        supply, current, loss, rails = _kernel(side)(side, sub)
        if loss.failed.any():
            failed.append(lanes[int(loss.failed.argmax())])
        for lane, result in zip(lanes, _lanes(sub, final_name, supply, current, loss, rails)):
            results[lane] = result
    if failed:
        _raise_lane_error(pdn, batch.conditions, min(failed), mode, wrap_error)
    return results


def evaluate_columns(
    pdn,
    conditions: Sequence[OperatingConditions],
    mode=None,
    batch: Optional[ConditionsBatch] = None,
    wrap_error: Optional[Callable[[OperatingConditions, ReproError], ReproError]] = None,
) -> List[PdnEvaluation]:
    """Evaluate ``pdn`` over ``conditions`` in one vectorized pass.

    Returns the per-point :class:`PdnEvaluation` list, bit-identical to
    calling ``pdn.evaluate`` per condition.  When points fail a model check,
    raises the model's own exception for the first failing one -- or, with
    ``wrap_error``, ``wrap_error(point, error)`` chained from it.

    The kernel is that of ``pdn``'s class or of its nearest base class, so
    a subclass that only constrains parameters rides its base's kernel, and
    a patched model method never changes a batch.  ``mode`` forces a
    FlexWatts evaluation mode (the vector analogue of ``evaluate_in_mode``);
    it is ignored for other PDN types.  ``batch`` allows callers that
    evaluate several PDNs over the same grid to reuse one
    :class:`ConditionsBatch` layout.
    """
    conditions = list(conditions)
    if not conditions:
        return []
    if batch is None:
        batch = ConditionsBatch.from_conditions(conditions)
    if isinstance(pdn, _flexwatts_class()):
        return _evaluate_flexwatts(pdn, batch, mode, wrap_error)
    supply, current, loss, rails = _kernel(pdn)(pdn, batch)
    if loss.failed.any():
        _raise_lane_error(pdn, conditions, int(loss.failed.argmax()), None, wrap_error)
    return _lanes(batch, pdn.name, supply, current, loss, rails)
