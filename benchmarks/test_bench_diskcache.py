"""Benchmark E-DISK: the persistent on-disk simulation store.

The ``disk-cache`` group tracks the cost trajectory of the simulation
engine's disk tier: the same simulation grid evaluated

* **cold** -- a fresh engine writing through to an empty cache directory
  (simulation plus pickling and one SQLite transaction per batch);
* **disk-warm** -- a *fresh* engine (empty memory tier, as every new
  process starts) against the directory the cold run populated: every
  simulation must be served from disk without recomputation.

``tools/check_bench_regression.py`` gates the warm column relative to the
cold column from the same run, so CI catches a disk tier whose hits start
costing like misses (lost promotion into the memory tier, per-row queries,
lock contention) independent of runner speed.
"""

import pytest

from repro.sim.study import SimEngine, SimStudy
from repro.workloads.scenarios import available_scenarios

GRID_TDPS_W = (4.0, 18.0, 50.0)

#: rows = scenarios x TDPs x 5 PDNs (the `repro simulate --tdps 4 18 50` grid)
GRID_ROWS = len(available_scenarios()) * len(GRID_TDPS_W) * 5


def _grid_study() -> SimStudy:
    return SimStudy.over_scenarios(
        available_scenarios(), tdps_w=GRID_TDPS_W, name="disk-cache-grid"
    )


@pytest.fixture(scope="module")
def grid_reference():
    """The cache-less ResultSet every disk-backed run must reproduce."""
    return SimEngine().run(_grid_study())


@pytest.fixture(scope="module")
def warm_cache_dir(tmp_path_factory, grid_reference):
    """A cache directory fully populated by one cold run."""
    directory = tmp_path_factory.mktemp("disk-warm")
    engine = SimEngine(disk_cache=directory)
    assert engine.run(_grid_study()) == grid_reference
    assert engine.disk_cache.stats().entries == GRID_ROWS
    return directory


@pytest.mark.benchmark(group="disk-cache")
def test_bench_disk_cache_cold(benchmark, tmp_path_factory, grid_reference):
    """Cold simulation grid writing through to an empty directory."""
    study = _grid_study()

    def setup():
        return (SimEngine(disk_cache=tmp_path_factory.mktemp("disk-cold")),), {}

    def run(engine):
        return engine.run(study)

    resultset = benchmark.pedantic(run, setup=setup, rounds=5, iterations=1)
    assert resultset == grid_reference


@pytest.mark.benchmark(group="disk-cache")
def test_bench_disk_cache_warm(benchmark, warm_cache_dir, grid_reference):
    """A fresh engine serving the whole grid from the warm directory."""
    study = _grid_study()

    def setup():
        # A fresh engine per round: cold memory tier, exactly like a new
        # process attaching the warm directory.
        return (SimEngine(disk_cache=warm_cache_dir),), {}

    def run(engine):
        resultset = engine.run(study)
        assert engine.cache_info().misses == 0  # nothing recomputed
        return resultset

    resultset = benchmark.pedantic(run, setup=setup, rounds=5, iterations=1)
    assert resultset == grid_reference
