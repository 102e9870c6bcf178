"""Property-based tests (hypothesis) on the core models and invariants."""

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.analysis.pdnspot import PdnSpot
from repro.pdn.base import OperatingConditions
from repro.pdn.imbvr import IMbvrPdn
from repro.pdn.ivr import IvrPdn
from repro.pdn.ldo import LdoPdn
from repro.pdn.mbvr import MbvrPdn
from repro.power.domains import WorkloadType
from repro.power.leakage import scale_power_with_voltage
from repro.power.power_states import BATTERY_LIFE_STATES
from repro.util.errors import ReproError
from repro.util.interpolate import LinearTable1D
from repro.vr.base import RegulatorOperatingPoint
from repro.vr.efficiency_curves import default_board_vr, default_ivr
from repro.vr.ldo import LowDropoutRegulator
from repro.vr.load_line import LoadLine

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

tdps = st.floats(min_value=4.0, max_value=50.0)
ars = st.floats(min_value=0.3, max_value=1.0)
workloads = st.sampled_from(
    [WorkloadType.CPU_SINGLE_THREAD, WorkloadType.CPU_MULTI_THREAD, WorkloadType.GRAPHICS]
)


class TestRegulatorProperties:
    @SETTINGS
    @given(
        vout=st.floats(min_value=0.5, max_value=1.8),
        iout=st.floats(min_value=0.01, max_value=15.0),
    )
    def test_board_vr_efficiency_is_a_fraction(self, vout, iout):
        regulator = default_board_vr("vr", iccmax_a=20.0)
        point = RegulatorOperatingPoint(7.2, vout, iout)
        efficiency = regulator.efficiency(point)
        assert 0.0 < efficiency <= 0.93
        assert regulator.input_power_w(point) >= point.output_power_w

    @SETTINGS
    @given(
        vout=st.floats(min_value=0.5, max_value=1.1),
        iout=st.floats(min_value=0.01, max_value=20.0),
    )
    def test_ivr_efficiency_within_bounds(self, vout, iout):
        regulator = default_ivr("ivr", iccmax_a=25.0)
        efficiency = regulator.efficiency(RegulatorOperatingPoint(1.8, vout, iout))
        assert 0.5 <= efficiency <= 0.88

    @SETTINGS
    @given(
        vin=st.floats(min_value=0.6, max_value=1.2),
        ratio=st.floats(min_value=0.1, max_value=1.0),
        iout=st.floats(min_value=0.01, max_value=10.0),
    )
    def test_ldo_efficiency_tracks_voltage_ratio(self, vin, ratio, iout):
        regulator = LowDropoutRegulator()
        vout = vin * ratio
        point = RegulatorOperatingPoint(vin, vout, iout)
        regulator.set_mode(regulator.mode_for(point))
        efficiency = regulator.efficiency(point)
        assert efficiency <= 0.992
        # In regulation mode the efficiency is exactly ratio * Ie; in bypass
        # mode (near-unity ratio) it is bounded below by the pass-device drop.
        bypass_floor = (vin - regulator.bypass_resistance_ohm * iout) / vin
        assert efficiency >= min(ratio, bypass_floor) * 0.991 - 1e-9

    @SETTINGS
    @given(
        impedance=st.floats(min_value=0.0, max_value=0.01),
        power=st.floats(min_value=0.0, max_value=60.0),
        ar=st.floats(min_value=0.1, max_value=1.0),
    )
    def test_load_line_guardband_never_reduces_power(self, impedance, power, ar):
        result = LoadLine(impedance).apply(1.0, power, ar)
        assert result.rail_power_w >= power - 1e-12
        assert result.conduction_loss_w >= -1e-12


class TestPowerScalingProperties:
    @SETTINGS
    @given(
        power=st.floats(min_value=0.0, max_value=50.0),
        voltage=st.floats(min_value=0.5, max_value=1.2),
        guardband=st.floats(min_value=0.0, max_value=0.1),
        leakage=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_guardband_scaling_is_monotone_and_bounded_below(
        self, power, voltage, guardband, leakage
    ):
        scaled = scale_power_with_voltage(power, voltage, guardband, leakage)
        assert scaled >= power - 1e-12
        # Upper bound: everything scaling with the leakage exponent.
        ratio = (voltage + guardband) / voltage
        assert scaled <= power * ratio**2.8 + 1e-9

    @SETTINGS
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=2, max_size=8))
    def test_linear_table_stays_within_value_range(self, values):
        xs = list(range(len(values)))
        table = LinearTable1D(xs, values)
        for query in (min(xs) - 1.0, 0.5, max(xs) + 1.0, 1.49):
            assert min(values) - 1e-9 <= table(query) <= max(values) + 1e-9


class TestPdnProperties:
    @SETTINGS
    @given(tdp=tdps, ar=ars, workload=workloads)
    def test_etee_always_a_physical_fraction(self, tdp, ar, workload):
        conditions = OperatingConditions.for_active_workload(tdp, ar, workload)
        for pdn in (IvrPdn(), MbvrPdn(), LdoPdn(), IMbvrPdn()):
            evaluation = pdn.evaluate(conditions)
            assert 0.4 < evaluation.etee < 1.0
            assert evaluation.supply_power_w > evaluation.nominal_power_w

    @SETTINGS
    @given(tdp=tdps, workload=workloads)
    def test_higher_ar_never_hurts_mbvr_etee(self, tdp, workload):
        pdn = MbvrPdn()
        low = pdn.evaluate(OperatingConditions.for_active_workload(tdp, 0.4, workload)).etee
        high = pdn.evaluate(OperatingConditions.for_active_workload(tdp, 0.8, workload)).etee
        assert high >= low - 1e-9

    @SETTINGS
    @given(tdp=tdps, ar=ars)
    def test_imbvr_never_worse_than_ivr(self, tdp, ar):
        conditions = OperatingConditions.for_active_workload(
            tdp, ar, WorkloadType.CPU_MULTI_THREAD
        )
        assert IMbvrPdn().evaluate(conditions).etee >= IvrPdn().evaluate(conditions).etee


PDN_NAMES = ("IVR", "MBVR", "LDO", "I+MBVR", "FlexWatts")


def _first_block_error(spot, units):
    """The error of the first failing unit of the first failing block.

    Blocks are the batch's ``(pdn, overrides)`` groups in first-appearance
    order; within a block the units keep their order.  ``None`` when every
    unit evaluates.
    """
    blocks = {}
    for unit in units:
        blocks.setdefault((unit[0], unit[2]), []).append(unit)
    for block in blocks.values():
        for unit in block:
            try:
                spot.evaluate_uncached(*unit)
            except ReproError as error:
                return error
    return None


class TestBatchPathProperties:
    """Any grid through the batch path ends in physical results or in the
    per-point model's own error for its first failing point."""

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        tdp_grid=st.lists(st.floats(min_value=2.0, max_value=150.0), min_size=1, max_size=3),
        ar_grid=st.lists(st.floats(min_value=0.001, max_value=1.0), min_size=1, max_size=3),
        workload_grid=st.lists(workloads, min_size=1, max_size=3, unique=True),
        states=st.lists(st.sampled_from(BATTERY_LIFE_STATES), max_size=3, unique=True),
    )
    def test_grid_is_physical_or_fails_like_the_model(
        self, tdp_grid, ar_grid, workload_grid, states
    ):
        conditions = [
            OperatingConditions.for_active_workload(tdp, ar, workload)
            for tdp in tdp_grid
            for workload in workload_grid
            for ar in ar_grid
        ] + [
            OperatingConditions.for_power_state(tdp, state)
            for tdp in tdp_grid
            for state in states
        ]
        units = [(name, point, ()) for point in conditions for name in PDN_NAMES]
        spot = PdnSpot(enable_cache=False)
        try:
            evaluations = spot.evaluate_units(units)
        except ReproError as error:
            expected = _first_block_error(spot, units)
            assert expected is not None, f"the batch failed, the model did not: {error}"
            assert (type(error), str(error)) == (type(expected), str(expected))
            event("grid fails")
            return
        event("grid evaluates")
        for evaluation in evaluations:
            assert 0.0 < evaluation.etee <= 1.0
            assert evaluation.supply_power_w >= evaluation.nominal_power_w
