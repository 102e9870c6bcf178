"""Golden errors of failing batches, on every surface that evaluates one.

A batch with a point its model rejects must fail with exactly the error the
per-point model raises for the batch's first failing point: the same type
and the same message, prefixed with the point by ``PdnSpot`` and printed as
``error: ...`` by ``repro sweep`` and as the 400 body of a served sweep.
The messages below were captured from the per-point path, which evaluated
each failing block again point by point until one raised.  The batch now
evaluates only the failing point through the model, exactly once.
"""

from __future__ import annotations

import json
import math
import socket

import numpy as np
import pytest

from repro.analysis.pdnspot import PdnSpot
from repro.cli import main
from repro.core.flexwatts import FlexWattsPdn
from repro.core.hybrid_vr import PdnMode
from repro.pdn import columnar
from repro.pdn.base import OperatingConditions
from repro.pdn.imbvr import IMbvrPdn
from repro.pdn.ivr import IvrPdn
from repro.pdn.ldo import LdoPdn
from repro.pdn.mbvr import MbvrPdn
from repro.pdn.registry import build_pdn
from repro.power.domains import WorkloadType
from repro.power.power_states import PackageCState
from repro.serve import start_in_thread
from repro.serve.protocol import build_sweep_study
from repro.util.errors import ConfigurationError, UnsupportedOperatingPointError

ACTIVE = ["cpu_single_thread", "cpu_multi_thread", "graphics"]

#: The fig7-shaped grid (16 TDPs x 20 ARs x 3 workload types plus three idle
#: states, 5 PDNs: 5040 units) with AR 0.01 among its ratios.
FIG7_AXES = {
    "tdps": [round(float(t), 4) for t in np.linspace(4.0, 50.0, 16)],
    "ars": [0.01] + [round(0.1 + 0.05 * i, 2) for i in range(19)],
    "workloads": ACTIVE,
    "power_states": ["C2", "C6", "C8"],
}

HEADROOM = "voltage headroom {} V below the minimum of 0.600 V required by a switching regulator"

#: ``V_IN`` headroom of the first failing point (AR 0.001, single thread).
V_IN_HEADROOM = {"IVR": "-12.330", "I+MBVR": "-11.018", "LDO": "-25.143", "FlexWatts": "-12.988"}


def _cases():
    cases = {
        "fig7-ar0.01": (
            FIG7_AXES,
            "MBVR at TDP 43.8667 W, AR 0.01, workload cpu_single_thread, power state C0: "
            "V_Cores: " + HEADROOM.format("0.590"),
        ),
        "tdps-4-45": (
            {"tdps": [4.0, 45.0], "ars": [0.01, 0.5]},
            "MBVR at TDP 45 W, AR 0.01, workload cpu_multi_thread, power state C0: "
            "V_Cores: " + HEADROOM.format("-0.761"),
        ),
    }
    for tdp in (80, 150):
        for pdn, headroom in V_IN_HEADROOM.items():
            cases[f"v_in-{pdn}-{tdp}"] = (
                {"tdps": [tdp], "ars": [0.05, 0.01, 0.001], "workloads": ACTIVE, "pdns": [pdn]},
                f"{pdn} at TDP {tdp} W, AR 0.001, workload cpu_single_thread, power state C0: "
                "V_IN: " + HEADROOM.format(headroom),
            )
        # IVR has no V_SA board rail: its idle points pass.
        for pdn in ("I+MBVR", "LDO", "FlexWatts"):
            cases[f"v_sa-{pdn}-{tdp}"] = (
                {"tdps": [tdp], "ars": [0.05, 0.01, 0.001], "workloads": ["idle"], "pdns": [pdn]},
                f"{pdn} at TDP {tdp} W, AR 0.001, workload idle, power state C0: "
                "V_SA: " + HEADROOM.format("-4.592"),
            )
    return cases


CASES = _cases()


def _study(axes):
    return build_sweep_study(
        axes["tdps"],
        axes.get("ars"),
        [WorkloadType(name) for name in axes.get("workloads", [])] or None,
        [PackageCState[name] for name in axes.get("power_states", [])] or None,
        axes.get("pdns"),
    )


def _argv(axes):
    argv = ["sweep", "--tdps", *map(str, axes["tdps"])]
    flags = {"ars": "--ars", "workloads": "--workloads",
             "power_states": "--power-states", "pdns": "--pdns"}
    for field, flag in flags.items():
        if axes.get(field):
            argv += [flag, *map(str, axes[field])]
    return argv


@pytest.mark.parametrize("enable_cache", [True, False], ids=["cache", "no-cache"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_library_error(case, enable_cache):
    axes, message = CASES[case]
    with pytest.raises(UnsupportedOperatingPointError) as raised:
        PdnSpot(enable_cache=enable_cache).run(_study(axes))
    assert str(raised.value) == message
    # Chained from the model's own, unprefixed error.
    cause = raised.value.__cause__
    assert type(cause) is UnsupportedOperatingPointError
    assert message.endswith(": " + str(cause))


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_error(case, capsys):
    axes, message = CASES[case]
    assert main(_argv(axes)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.fixture(scope="module")
def server():
    with start_in_thread() as handle:
        yield handle


def _post_sweep(port, axes):
    data = json.dumps(axes).encode("utf-8")
    head = (
        "POST /v1/sweep HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n\r\n"
    )
    with socket.create_connection(("127.0.0.1", port), timeout=60.0) as sock:
        sock.sendall(head.encode("ascii") + data)
        raw = sock.makefile("rb").read()
    head_bytes, _, payload = raw.partition(b"\r\n\r\n")
    return int(head_bytes.split(b" ", 2)[1]), payload


@pytest.mark.parametrize("case", sorted(CASES))
def test_served_error(case, server):
    axes, message = CASES[case]
    status, payload = _post_sweep(server.server.port, axes)
    assert status == 400
    expected = {"status": "error", "code": 400, "error": message}
    assert payload == (json.dumps(expected, indent=2) + "\n").encode("utf-8")


#: A non-finite TDP fails where it enters, naming the field, on every surface.
NON_FINITE_TDP = "tdp_w must be finite, got inf"


@pytest.mark.parametrize("enable_cache", [True, False], ids=["cache", "no-cache"])
def test_library_refuses_a_non_finite_tdp(enable_cache):
    with pytest.raises(ConfigurationError) as raised:
        PdnSpot(enable_cache=enable_cache).run(_study({"tdps": [math.inf], "ars": [0.5]}))
    assert str(raised.value) == NON_FINITE_TDP


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--tdps", "inf", "--ars", "0.5"],
        ["simulate", "--tdps", "inf", "--scenario", "bursty-interactive"],
        ["optimize", "--tdps", "inf"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_refuses_a_non_finite_tdp(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {NON_FINITE_TDP}\n"


@pytest.mark.parametrize("tdp", [math.inf, math.nan], ids=["Infinity", "NaN"])
def test_served_sweep_refuses_a_non_finite_tdp(tdp, server):
    axes = {"tdps": [18.0, tdp], "ars": [0.5], "pdns": ["IVR"]}
    status, payload = _post_sweep(server.server.port, axes)
    assert status == 400
    assert json.loads(payload) == {
        "status": "error",
        "code": 400,
        "error": "body/tdps/1: expected a finite number",
        "pointer": "body/tdps/1",
    }


#: A forced-mode FlexWatts batch raises the model's error unprefixed.
FORCED_HEADROOM = {PdnMode.IVR_MODE: "-12.988", PdnMode.LDO_MODE: "-28.898"}


@pytest.mark.parametrize("mode", list(PdnMode), ids=lambda mode: mode.value)
@pytest.mark.parametrize("tdp_w", [80.0, 150.0])
def test_forced_mode_flexwatts_error(tdp_w, mode):
    conditions = [
        OperatingConditions.for_active_workload(tdp_w, ar, WorkloadType(workload))
        for workload in ACTIVE + ["idle"]
        for ar in (0.05, 0.01, 0.001)
    ]
    flexwatts = build_pdn("FlexWatts")
    message = "V_IN: " + HEADROOM.format(FORCED_HEADROOM[mode])
    with pytest.raises(UnsupportedOperatingPointError) as raised:
        columnar.evaluate_columns(flexwatts, conditions, mode=mode)
    assert str(raised.value) == message
    with pytest.raises(UnsupportedOperatingPointError) as per_point:
        for point in conditions:
            flexwatts.evaluate_in_mode(point, mode)
    assert str(per_point.value) == message


@pytest.fixture
def model_calls(monkeypatch):
    """Count the outermost per-point model calls on the five model classes."""
    calls = []
    depth = [0]

    def spy(cls, name):
        original = getattr(cls, name)

        def counted(self, *args, **kwargs):
            if depth[0] == 0:
                calls.append((cls.__name__, name))
            depth[0] += 1
            try:
                return original(self, *args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(cls, name, counted)

    for cls in (IvrPdn, MbvrPdn, LdoPdn, IMbvrPdn, FlexWattsPdn):
        spy(cls, "evaluate")
    spy(FlexWattsPdn, "evaluate_in_mode")
    return calls


@pytest.mark.parametrize(
    "case, model",
    [("fig7-ar0.01", "MbvrPdn"), ("v_in-FlexWatts-150", "FlexWattsPdn"),
     ("v_sa-LDO-80", "LdoPdn")],
)
def test_failing_batch_calls_the_model_once(case, model, model_calls):
    axes, message = CASES[case]
    with pytest.raises(UnsupportedOperatingPointError) as raised:
        PdnSpot(enable_cache=False).run(_study(axes))
    assert str(raised.value) == message
    assert model_calls == [(model, "evaluate")]
