"""Normalised PDN comparison tables.

Every evaluation figure in the paper (Fig. 7, Fig. 8a-e) reports its metric
*normalised to the IVR PDN*.  This module holds the helper that produces
such a table from a per-PDN metric.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.util.errors import ConfigurationError


def normalised_metric_table(
    metric_by_pdn: Mapping[str, float],
    reference_name: str = "IVR",
    higher_is_better: bool = True,
) -> Dict[str, float]:
    """Normalise a per-PDN metric against a reference PDN.

    Parameters
    ----------
    metric_by_pdn:
        Raw metric values keyed by PDN name.
    reference_name:
        The PDN every value is divided by (IVR in the paper).
    higher_is_better:
        Only used for sanity: normalisation itself is direction-agnostic, but
        callers document the metric direction through this flag, and it is
        validated to avoid accidentally normalising an empty table.
    """
    if not metric_by_pdn:
        raise ConfigurationError("cannot normalise an empty metric table")
    if reference_name not in metric_by_pdn:
        raise ConfigurationError(
            f"reference PDN {reference_name!r} missing from the metric table"
        )
    reference_value = metric_by_pdn[reference_name]
    if reference_value == 0.0:
        raise ConfigurationError("reference metric value must be non-zero")
    _ = higher_is_better  # direction does not change the arithmetic
    return {name: value / reference_value for name, value in metric_by_pdn.items()}

