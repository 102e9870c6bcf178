"""The PDNspot analysis framework.

This package is the user-facing layer of the reproduction: it glues the PDN
models, the performance model, the cost models and the workload suites into
the multi-dimensional exploration tool the paper describes.

* :mod:`repro.analysis.pdnspot` -- the :class:`PdnSpot` facade: evaluate,
  compare and sweep PDNs across TDPs, application ratios, workloads and power
  states, through a keyed evaluation cache (:meth:`PdnSpot.run`,
  :meth:`PdnSpot.evaluate_units`).
* :mod:`repro.analysis.study` -- the declarative :class:`Study` grid and its
  fluent :class:`StudyBuilder`.
* :mod:`repro.analysis.executor` -- the one dispatch path
  (:func:`~repro.analysis.executor.evaluate_units`) behind every engine's
  batch entry point: dedupe, one columnar chunk, cache merge-back and
  canonical reassembly.
* :mod:`repro.analysis.resultset` -- the columnar :class:`ResultSet` container
  with filter/pivot/normalise helpers and JSON/CSV serialisation.
* :mod:`repro.analysis.validation` -- the model-validation harness that mimics
  Sec. 4.3: a synthetic "measured" reference with parameter perturbations and
  measurement noise, against which the models' ETEE predictions are scored.
* :mod:`repro.analysis.comparison` -- normalised PDN comparison tables.
* :mod:`repro.analysis.reporting` -- plain-text table rendering used by the
  examples and benchmark harness.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.analysis.pdnspot import CacheInfo, PdnSpot
    from repro.analysis.resultset import MISSING, ResultSet
    from repro.analysis.study import Scenario, Study, StudyBuilder
    from repro.analysis.validation import ValidationHarness, ValidationRecord, ValidationSummary
    from repro.analysis.comparison import normalised_metric_table
    from repro.analysis.reporting import format_table

__all__ = [
    "PdnSpot",
    "CacheInfo",
    "Study",
    "StudyBuilder",
    "Scenario",
    "ResultSet",
    "MISSING",
    "ValidationHarness",
    "ValidationRecord",
    "ValidationSummary",
    "normalised_metric_table",
    "format_table",
]


__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.analysis.pdnspot": ("CacheInfo", "PdnSpot"),
    "repro.analysis.resultset": ("MISSING", "ResultSet"),
    "repro.analysis.study": ("Scenario", "Study", "StudyBuilder"),
    "repro.analysis.validation": ("ValidationHarness", "ValidationRecord", "ValidationSummary"),
    "repro.analysis.comparison": ("normalised_metric_table",),
    "repro.analysis.reporting": ("format_table",),
})
