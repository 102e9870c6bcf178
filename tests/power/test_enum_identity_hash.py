"""The model enums hash by identity, and nothing else about them changes.

Enum members are singletons compared by identity, so the seven enums on the
evaluation path use ``object.__hash__`` (a C call) instead of Enum's
Python-level name hash.  Equality, dict lookups, pickling and the disk
cache's canonical keys must read exactly as before.
"""

from __future__ import annotations

import hashlib
import pickle

import pytest

from repro.cache import canonical_key
from repro.core.hybrid_vr import PdnMode
from repro.pdn.base import OperatingConditions, conditions_key
from repro.power.domains import DomainKind, WorkloadType
from repro.power.power_states import PackageCState
from repro.soc.activity_sensors import ActivityEvent
from repro.vr.ldo import LdoMode
from repro.vr.switching import VRPowerState

ENUMS = [LdoMode, VRPowerState, ActivityEvent, PackageCState, DomainKind, WorkloadType, PdnMode]


@pytest.mark.parametrize("enum_type", ENUMS, ids=lambda enum_type: enum_type.__name__)
def test_members_hash_by_identity(enum_type):
    lookup = {member: member.name for member in enum_type}
    for member in enum_type:
        assert hash(member) == object.__hash__(member)
        assert lookup[member] == member.name
        assert enum_type(member.value) is member
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(member, protocol)) is member


def test_conditions_key_canonical_form_is_unchanged():
    key = conditions_key(
        OperatingConditions.for_active_workload(
            tdp_w=4.0, application_ratio=0.56, workload_type=WorkloadType.CPU_MULTI_THREAD
        )
    )
    rendered = canonical_key(key)
    assert rendered.startswith(
        "(4.0,0.56,WorkloadType.CPU_MULTI_THREAD,PackageCState.C0,VRPowerState.PS0,"
        "(DomainLoad(kind=DomainKind.CORE0,"
    )
    # The digest of the whole rendering, as the enums' name hash gave it.
    assert hashlib.sha256(rendered.encode("utf-8")).hexdigest() == (
        "355f55aa16789aeefb248be075514714a33b61f179c34385e07f22f8414c4d95"
    )
