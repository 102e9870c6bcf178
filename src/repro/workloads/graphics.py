"""The 3DMark06 graphics suite as seen by the PDNspot models.

3DMark06 consists of graphics tests (two shader-model-2 scenes and two HDR /
shader-model-3 scenes) and two CPU tests.  The paper's graphics evaluation
(Fig. 8b) allocates 10--20 % of the compute budget to the CPU cores and the
rest to the graphics engines, and notes that graphics workloads run the LLC at
a higher voltage/frequency than the cores.  Here each sub-test is a
:class:`Benchmark` of type ``GRAPHICS`` with a high performance scalability
(graphics scenes scale almost linearly with the graphics clock until they
become memory-bound).
"""

from __future__ import annotations

from typing import Tuple

from repro.power.domains import WorkloadType
from repro.workloads.base import Benchmark

#: (name, performance scalability, application ratio).
_THREEDMARK06_TABLE: Tuple[Tuple[str, float, float], ...] = (
    ("gt1_return_to_proxycon", 0.90, 0.62),
    ("gt2_firefly_forest", 0.92, 0.66),
    ("hdr1_canyon_flight", 0.88, 0.64),
    ("hdr2_deep_freeze", 0.86, 0.68),
    ("cpu1_red_valley", 0.70, 0.58),
    ("cpu2_red_valley", 0.72, 0.60),
)

#: The 3DMark06 sub-tests as :class:`Benchmark` objects.
THREEDMARK06_BENCHMARKS: Tuple[Benchmark, ...] = tuple(
    Benchmark(
        name=name,
        workload_type=WorkloadType.GRAPHICS,
        performance_scalability=scalability,
        application_ratio=application_ratio,
    )
    for name, scalability, application_ratio in _THREEDMARK06_TABLE
)
