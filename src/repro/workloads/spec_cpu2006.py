"""The SPEC CPU2006 suite as seen by the PDNspot models.

Fig. 7 of the paper orders the 29 SPEC CPU2006 benchmarks by their average
performance scalability (the right-hand axis of the figure): memory-bound
benchmarks such as ``433.milc`` and ``410.bwaves`` sit near the bottom
(~20--30 % scalability) and core-bound benchmarks such as ``456.hmmer`` and
``416.gamess`` near the top (~95--100 %).  The exact per-benchmark values are
not tabulated in the paper, so the values below follow the figure's ordering
with a smooth spread over the published range; the reproduction targets the
*average* behaviour (a >22 % mean speedup at 4 W), which is insensitive to the
exact per-benchmark values.

Application ratios are drawn from the 40--80 % range the validation section
uses, with higher-IPC benchmarks assigned higher ARs.
"""

from __future__ import annotations

from typing import Tuple

from repro.power.domains import WorkloadType
from repro.workloads.base import Benchmark

#: (name, performance scalability, application ratio), ordered as in Fig. 7
#: (ascending scalability).
_SPEC_CPU2006_TABLE: Tuple[Tuple[str, float, float], ...] = (
    ("433.milc", 0.20, 0.45),
    ("410.bwaves", 0.24, 0.46),
    ("459.GemsFDTD", 0.28, 0.47),
    ("450.soplex", 0.32, 0.48),
    ("434.zeusmp", 0.36, 0.50),
    ("437.leslie3d", 0.40, 0.50),
    ("471.omnetpp", 0.43, 0.48),
    ("429.mcf", 0.46, 0.46),
    ("481.wrf", 0.50, 0.52),
    ("403.gcc", 0.54, 0.54),
    ("470.lbm", 0.57, 0.55),
    ("436.cactusADM", 0.60, 0.56),
    ("482.sphinx3", 0.63, 0.56),
    ("462.libquantum", 0.66, 0.52),
    ("447.dealII", 0.70, 0.58),
    ("483.xalancbmk", 0.73, 0.58),
    ("454.calculix", 0.76, 0.60),
    ("473.astar", 0.79, 0.58),
    ("435.gromacs", 0.82, 0.62),
    ("401.bzip2", 0.84, 0.60),
    ("465.tonto", 0.86, 0.64),
    ("444.namd", 0.88, 0.66),
    ("458.sjeng", 0.90, 0.62),
    ("464.h264ref", 0.92, 0.68),
    ("445.gobmk", 0.93, 0.64),
    ("453.povray", 0.95, 0.70),
    ("400.perlbench", 0.96, 0.66),
    ("456.hmmer", 0.98, 0.72),
    ("416.gamess", 1.00, 0.74),
)

#: The SPEC CPU2006 benchmarks as :class:`Benchmark` objects (Fig. 7 order).
SPEC_CPU2006_BENCHMARKS: Tuple[Benchmark, ...] = tuple(
    Benchmark(
        name=name,
        workload_type=WorkloadType.CPU_SINGLE_THREAD,
        performance_scalability=scalability,
        application_ratio=application_ratio,
    )
    for name, scalability, application_ratio in _SPEC_CPU2006_TABLE
)
