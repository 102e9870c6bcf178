"""FlexWatts / PDNspot reproduction.

A behavioural, architecture-level model of client-processor power delivery
networks (PDNs), reproducing *FlexWatts: A Power- and Workload-Aware Hybrid
Power Delivery Network for Energy-Efficient Microprocessors* (MICRO 2020).

The library has two halves, mirroring the paper:

* **PDNspot** -- the exploration framework: voltage-regulator and PDN models
  (:mod:`repro.vr`, :mod:`repro.pdn`), the power/performance substrate
  (:mod:`repro.power`, :mod:`repro.soc`, :mod:`repro.perf`), cost models
  (:mod:`repro.cost`), workloads (:mod:`repro.workloads`), the analysis
  facade (:mod:`repro.analysis`) and the multi-objective design-space
  search (:mod:`repro.optimize`).
* **FlexWatts** -- the hybrid adaptive PDN itself (:mod:`repro.core`):
  hybrid IVR/LDO regulators, the Algorithm-1 mode predictor, the
  voltage-noise-free mode-switch flow, and the runtime input estimator,
  plus an interval simulator (:mod:`repro.sim`) that exercises the adaptive
  behaviour over time-varying workloads.

Both engines memoise their evaluations, simulations can persist on disk
(:mod:`repro.cache`), and both can be served from one warm long-running
process (:mod:`repro.serve`,
``repro serve``) that coalesces concurrent overlapping requests into
single-flight evaluations.  Every layer is instrumented through the
unified observability package (:mod:`repro.obs`): span tracing with
Chrome-trace export (``--trace FILE``), process-wide metrics
(``GET /v1/metrics``), and :class:`RunStats` on result containers.

Quickstart
----------
>>> from repro import PdnSpot, Study
>>> spot = PdnSpot()
>>> etee = spot.compare_etee(tdp_w=4.0)  # evaluate once, reuse the table
>>> sorted(etee, key=etee.get)[-1] in ("FlexWatts", "LDO", "MBVR")
True
>>> results = spot.run(Study.over_tdps([4.0, 18.0, 50.0]))  # cached batch run
>>> results.filter(pdn="FlexWatts").unique("tdp_w")
[4.0, 18.0, 50.0]
"""

import importlib
import sys
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Dict, List, Sequence, Tuple

#: ``perf_counter()`` as the package starts to import, before any of its
#: modules: where the ``setup.import`` span of a ``--trace`` run begins.
IMPORT_STARTED_S = perf_counter()


def _lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """PEP 562 ``__getattr__`` and ``__dir__`` hooks that import on first use.

    ``exports`` maps each module to the public names it defines.  A name is
    imported from its module the first time it is looked up on ``package``
    and cached in the package's globals, so later lookups never reach the
    hook.  Any other name is tried as a submodule of ``package``, through
    :func:`importlib.import_module` (``getattr`` on the package would
    re-enter the hook).
    """
    namespace = sys.modules[package].__dict__
    origins = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = origins.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
        elif name.startswith("__"):  # probes such as __wrapped__ or __main__ import nothing
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(namespace["__all__"]))

    return __getattr__, __dir__


if TYPE_CHECKING:
    from repro.analysis.pdnspot import CacheInfo, PdnSpot
    from repro.analysis.resultset import ResultSet
    from repro.analysis.study import Scenario, Study, StudyBuilder
    from repro.cache.store import DiskCache, DiskCacheStats
    from repro.core.flexwatts import FlexWattsPdn
    from repro.core.hybrid_vr import PdnMode
    from repro.obs.metrics import METRICS, MetricsRegistry
    from repro.obs.runstats import RunStats
    from repro.obs.trace import Tracer, install_tracer, uninstall_tracer, write_chrome_trace
    from repro.optimize.runner import OptimizationOutcome, run_optimization
    from repro.optimize.space import DesignPoint, DesignSpace
    from repro.pdn.base import OperatingConditions, PdnEvaluation
    from repro.pdn.registry import available_pdns, build_pdn
    from repro.power.domains import DomainKind, DomainLoad, WorkloadType
    from repro.power.parameters import PdnTechnologyParameters, default_parameters
    from repro.power.power_states import PackageCState
    from repro.serve.client import ServeClient
    from repro.serve.server import EvaluationServer
    from repro.sim.engine import IntervalSimulator, SimulationResult
    from repro.sim.study import SimEngine, SimPoint, SimStudy, run_sim
    from repro.workloads.scenarios import available_scenarios, build_scenario_trace

__version__ = "1.6.0"

__all__ = [
    "PdnSpot",
    "CacheInfo",
    "DiskCache",
    "DiskCacheStats",
    "Study",
    "StudyBuilder",
    "Scenario",
    "ResultSet",
    "FlexWattsPdn",
    "PdnMode",
    "OperatingConditions",
    "PdnEvaluation",
    "available_pdns",
    "build_pdn",
    "DomainKind",
    "DomainLoad",
    "WorkloadType",
    "PackageCState",
    "PdnTechnologyParameters",
    "default_parameters",
    "IntervalSimulator",
    "SimulationResult",
    "SimEngine",
    "SimPoint",
    "SimStudy",
    "run_sim",
    "available_scenarios",
    "build_scenario_trace",
    "DesignPoint",
    "DesignSpace",
    "OptimizationOutcome",
    "run_optimization",
    "EvaluationServer",
    "ServeClient",
    "METRICS",
    "MetricsRegistry",
    "RunStats",
    "Tracer",
    "install_tracer",
    "uninstall_tracer",
    "write_chrome_trace",
    "__version__",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.analysis.pdnspot": ("CacheInfo", "PdnSpot"),
    "repro.analysis.resultset": ("ResultSet",),
    "repro.analysis.study": ("Scenario", "Study", "StudyBuilder"),
    "repro.cache.store": ("DiskCache", "DiskCacheStats"),
    "repro.core.flexwatts": ("FlexWattsPdn",),
    "repro.core.hybrid_vr": ("PdnMode",),
    "repro.obs.metrics": ("METRICS", "MetricsRegistry"),
    "repro.obs.runstats": ("RunStats",),
    "repro.obs.trace": ("Tracer", "install_tracer", "uninstall_tracer", "write_chrome_trace"),
    "repro.optimize.runner": ("OptimizationOutcome", "run_optimization"),
    "repro.optimize.space": ("DesignPoint", "DesignSpace"),
    "repro.pdn.base": ("OperatingConditions", "PdnEvaluation"),
    "repro.pdn.registry": ("available_pdns", "build_pdn"),
    "repro.power.domains": ("DomainKind", "DomainLoad", "WorkloadType"),
    "repro.power.parameters": ("PdnTechnologyParameters", "default_parameters"),
    "repro.power.power_states": ("PackageCState",),
    "repro.serve.client": ("ServeClient",),
    "repro.serve.server": ("EvaluationServer",),
    "repro.sim.engine": ("IntervalSimulator", "SimulationResult"),
    "repro.sim.study": ("SimEngine", "SimPoint", "SimStudy", "run_sim"),
    "repro.workloads.scenarios": ("available_scenarios", "build_scenario_trace"),
})
