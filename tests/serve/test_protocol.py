"""Protocol validation: schema pointers, defaults, CLI builder parity."""

from __future__ import annotations

import pytest

from repro.optimize.objectives import DEFAULT_OBJECTIVES
from repro.power.domains import WorkloadType
from repro.power.power_states import PackageCState
from repro.serve.protocol import (
    OptimizeRequest,
    ProtocolError,
    parse_optimize_request,
    parse_simulate_request,
    parse_sweep_request,
)
from repro.workloads.scenarios import DEFAULT_SEED


def pointer_of(excinfo) -> str:
    return excinfo.value.pointer


class TestSweepParsing:
    def test_minimal_body(self):
        request = parse_sweep_request({"tdps": [4, 18.0]})
        assert request.tdps == (4.0, 18.0)
        assert request.ars is None
        assert request.allow_partial is False
        assert request.timeout_s is None

    def test_full_body(self):
        request = parse_sweep_request(
            {
                "tdps": [4],
                "ars": [0.4, 0.56],
                "workloads": ["graphics"],
                "power_states": ["C8"],
                "pdns": ["FlexWatts"],
                "timeout_s": 2.5,
                "allow_partial": True,
            }
        )
        assert request.workloads == (WorkloadType.GRAPHICS,)
        assert request.power_states == (PackageCState.C8,)
        assert request.timeout_s == 2.5
        assert request.allow_partial is True

    def test_non_object_body_points_at_body(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_sweep_request([1, 2, 3])
        assert pointer_of(excinfo) == "body"

    def test_missing_tdps_points_at_field(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_sweep_request({})
        assert pointer_of(excinfo) == "body/tdps"

    def test_bad_element_points_at_index(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_sweep_request({"tdps": [4.0, "x", 18.0]})
        assert pointer_of(excinfo) == "body/tdps/1"

    def test_boolean_is_not_a_number(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_sweep_request({"tdps": [True]})
        assert pointer_of(excinfo) == "body/tdps/0"

    def test_unknown_field_is_rejected(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_sweep_request({"tdps": [4.0], "tpds": [18.0]})
        assert pointer_of(excinfo) == "body/tpds"

    def test_unknown_workload_lists_choices(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_sweep_request({"tdps": [4.0], "workloads": ["mining"]})
        assert pointer_of(excinfo) == "body/workloads/0"
        assert "choose from" in str(excinfo.value)

    def test_c0_power_state_is_not_acceptable(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_sweep_request({"tdps": [4.0], "power_states": ["C0"]})
        assert pointer_of(excinfo) == "body/power_states/0"

    def test_non_positive_timeout(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_sweep_request({"tdps": [4.0], "timeout_s": 0})
        assert pointer_of(excinfo) == "body/timeout_s"


class TestSimulateParsing:
    def test_defaults_match_the_cli(self):
        request = parse_simulate_request({})
        assert request.scenarios is None  # all registered scenarios
        assert request.tdps == (18.0,)
        assert request.seed == DEFAULT_SEED

    def test_unknown_scenario_points_at_index(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_simulate_request({"scenarios": ["office_day"]})
        assert pointer_of(excinfo) == "body/scenarios/0"

    def test_seed_must_be_an_integer(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_simulate_request({"seed": 1.5})
        assert pointer_of(excinfo) == "body/seed"


class TestOptimizeParsing:
    def test_defaults(self):
        request = parse_optimize_request({})
        assert request.objectives == tuple(DEFAULT_OBJECTIVES)
        assert OptimizeRequest().objectives == tuple(DEFAULT_OBJECTIVES)
        assert request.strategy == "grid"
        assert request.seed == 0
        assert request.budget is None
        assert request.params == ()

    def test_params_axes_round_trip(self):
        request = parse_optimize_request(
            {"params": {"ivr_tolerance_band_v": [0.015, 0.02]}}
        )
        assert request.params == (("ivr_tolerance_band_v", (0.015, 0.02)),)
        space = request.space()
        assert len(space.points()) > 0

    def test_unknown_strategy(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_optimize_request({"strategy": "annealing"})
        assert pointer_of(excinfo) == "body/strategy"

    def test_non_positive_budget(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_optimize_request({"budget": 0})
        assert pointer_of(excinfo) == "body/budget"

    def test_bad_param_value_points_into_the_axis(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_optimize_request(
                {"params": {"ivr_tolerance_band_v": [0.015, "wide"]}}
            )
        assert pointer_of(excinfo) == "body/params/ivr_tolerance_band_v/1"

    @pytest.mark.parametrize(
        "bad", [float("inf"), float("-inf"), float("nan"), 10**400],
        ids=["inf", "-inf", "nan", "huge-int"],
    )
    def test_non_finite_numbers_are_refused_where_they_stand(self, bad):
        with pytest.raises(ProtocolError, match="expected a finite number") as excinfo:
            parse_optimize_request({"tdps": [18.0, bad]})
        assert pointer_of(excinfo) == "body/tdps/1"
        with pytest.raises(ProtocolError, match="expected a finite number") as excinfo:
            parse_optimize_request({"params": {"ivr_tolerance_band_v": [bad]}})
        assert pointer_of(excinfo) == "body/params/ivr_tolerance_band_v/0"

    def test_nan_timeout_is_refused(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_sweep_request({"tdps": [18.0], "timeout_s": float("nan")})
        assert pointer_of(excinfo) == "body/timeout_s"

    def test_unknown_objective(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_optimize_request({"objectives": ["happiness"]})
        assert pointer_of(excinfo) == "body/objectives/0"


class TestCliBuilderParity:
    """The CLI re-exports the protocol's builders -- the same functions build
    a ``repro sweep`` grid and a ``POST /v1/sweep`` grid, which is what makes
    server responses bit-identical to local runs."""

    def test_builders_are_the_same_objects(self):
        from repro import cli
        from repro.serve import protocol

        assert cli.build_sweep_study is protocol.build_sweep_study
        assert cli.build_simulate_study is protocol.build_simulate_study
        assert cli.build_optimize_space is protocol.build_optimize_space

    def test_request_study_equals_cli_study(self):
        from repro.serve.protocol import build_sweep_study

        request = parse_sweep_request(
            {"tdps": [4, 18], "ars": [0.4], "pdns": ["FlexWatts", "LDO"]}
        )
        assert request.study() == build_sweep_study(
            [4.0, 18.0], [0.4], pdns=["FlexWatts", "LDO"]
        )
