"""Benchmark E-DISK: the persistent on-disk evaluation store.

The ``disk-cache`` group tracks the cost trajectory of the two-tier cache
(ISSUE 5): the same study grid evaluated

* **cold** -- a fresh engine writing through to an empty cache directory
  (model evaluation plus the pickling/fsync overhead of populating disk);
* **disk-warm** -- a *fresh* engine (empty memory tier, as every new
  process starts) against the directory the cold run populated: every unit
  must be served from disk without recomputation.

``tools/check_bench_regression.py`` gates the warm column relative to the
cold column from the same run, so CI catches a disk tier whose hits start
costing like misses (lost promotion into the memory tier, per-hit
re-validation, lock contention) independent of runner speed.
"""

import pytest

from repro.analysis.pdnspot import PdnSpot
from repro.analysis.study import Study

GRID_TDPS_W = (4.0, 8.0, 18.0, 50.0)
GRID_ARS = (0.40, 0.56, 0.80)
GRID_POWER_STATES = ("C0_MIN", "C2", "C8")

#: rows = (TDPs x ARs active + TDPs x states idle) x 5 PDNs
GRID_ROWS = (
    len(GRID_TDPS_W) * len(GRID_ARS) + len(GRID_TDPS_W) * len(GRID_POWER_STATES)
) * 5

def _grid_study() -> Study:
    return (
        Study.builder("disk-cache-grid")
        .tdps(*GRID_TDPS_W)
        .application_ratios(*GRID_ARS)
        .power_states(*GRID_POWER_STATES)
        .build()
    )


@pytest.fixture(scope="module")
def grid_reference():
    """The cache-less ResultSet every disk-backed run must reproduce."""
    return PdnSpot().run(_grid_study())


@pytest.fixture(scope="module")
def warm_cache_dir(tmp_path_factory, grid_reference):
    """A cache directory fully populated by one cold run."""
    directory = tmp_path_factory.mktemp("disk-warm")
    spot = PdnSpot(disk_cache=directory)
    assert spot.run(_grid_study()) == grid_reference
    assert spot.disk_cache.stats().entries == GRID_ROWS
    return directory


@pytest.mark.benchmark(group="disk-cache")
def test_bench_disk_cache_cold(benchmark, tmp_path_factory, grid_reference):
    """Cold serial grid writing through to an empty directory."""
    study = _grid_study()

    def setup():
        spot = PdnSpot(disk_cache=tmp_path_factory.mktemp("disk-cold"))
        _ = spot.pdn("FlexWatts").predictor  # calibrate outside the timing
        return (spot,), {}

    def run(spot):
        return spot.run(study)

    resultset = benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    assert resultset == grid_reference


@pytest.mark.benchmark(group="disk-cache")
def test_bench_disk_cache_warm(benchmark, warm_cache_dir, grid_reference):
    """A fresh engine serving the whole grid from the warm directory."""
    study = _grid_study()

    def setup():
        # A fresh engine per round: cold memory tier, exactly like a new
        # process attaching the warm directory.
        return (PdnSpot(disk_cache=warm_cache_dir),), {}

    def run(spot):
        resultset = spot.run(study)
        assert spot.cache_info().misses == 0  # nothing recomputed
        return resultset

    resultset = benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    assert resultset == grid_reference
