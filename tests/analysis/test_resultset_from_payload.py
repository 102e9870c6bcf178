"""``ResultSet.from_payload``: the decoded-document twin of ``from_json``.

A served response embeds a result set in a larger JSON document; the
client decodes the document once and rebuilds the result set from the
decoded mapping.  ``from_payload(json.loads(text))`` must equal
``from_json(text)`` on every table the engines produce, and reject every
malformed payload ``from_json`` rejects, with the same message.
"""

import json
import math

import pytest

from repro import PdnSpot, run_sim
from repro.analysis.resultset import ResultSet
from repro.power.power_states import PackageCState
from repro.serve.protocol import build_simulate_study, build_sweep_study
from repro.util.errors import ConfigurationError


def _sweep() -> ResultSet:
    study = build_sweep_study(
        [4.0, 18.0], [0.4, 0.56], power_states=[PackageCState.C2, PackageCState.C8]
    )
    return PdnSpot().run(study)


def _simulate() -> ResultSet:
    return run_sim(build_simulate_study(["bursty-interactive"], [18.0], seed=1))


def _masked() -> ResultSet:
    return ResultSet.from_records(
        [
            {"pdn": "IVR", "etee": float("nan"), "count": 3},
            {"pdn": "LDO", "etee": math.inf, "parameters": {"a": 1.5, "b": 2}},
            {"pdn": "MBVR", "etee": -math.inf, "label": "knée"},
        ],
        name="masked",
    )


@pytest.mark.parametrize("build", [_sweep, _simulate, _masked],
                         ids=["sweep", "simulate", "masked"])
def test_from_payload_equals_from_json(build):
    text = build().to_json()
    from_payload = ResultSet.from_payload(json.loads(text))
    from_json = ResultSet.from_json(text)
    assert from_payload == from_json
    assert from_payload.name == from_json.name
    assert from_payload.to_json() == text


MALFORMED = {
    "not-an-object": [1, 2],
    "no-rows": {"columns": ["a"]},
    "mask-not-a-dict": {"columns": ["a"], "rows": [[None]], "non_finite": [1]},
    "unknown-label": {"columns": ["a"], "rows": [[None]], "non_finite": {"wat": [[0, 0]]}},
    "positions-not-a-list": {"columns": ["a"], "rows": [[None]], "non_finite": {"nan": 7}},
    "short-position": {"columns": ["a"], "rows": [[None]], "non_finite": {"nan": [[0]]}},
    "non-int-position": {"columns": ["a"], "rows": [[None]], "non_finite": {"nan": [[0, "0"]]}},
    "out-of-range": {"columns": ["a"], "rows": [[None]], "non_finite": {"nan": [[3, 0]]}},
    "non-null-cell": {"columns": ["a"], "rows": [[1.0]], "non_finite": {"nan": [[0, 0]]}},
    "row-width": {"columns": ["a", "b"], "rows": [[1.0]]},
}


@pytest.mark.parametrize("payload", list(MALFORMED.values()), ids=list(MALFORMED))
def test_from_payload_rejects_what_from_json_rejects(payload):
    with pytest.raises(ConfigurationError) as from_json:
        ResultSet.from_json(json.dumps(payload))
    with pytest.raises(ConfigurationError) as from_payload:
        ResultSet.from_payload(payload)
    assert str(from_payload.value) == str(from_json.value)
