"""Benchmark E-OPT: the design-space exploration subsystem.

Two benchmark columns track the optimizer's perf trajectory:

* ``optimize`` / cold grid serial -- an exhaustive grid search over a
  figure-scale space (5 topologies x 3 tolerance-band sizings, ~2600
  analytic evaluation units through the default four objectives) with the
  memo caches disabled: the seed-equivalent cost of one full search.
* ``optimize`` / warm random search -- a seeded random search against a
  pre-warmed evaluator: every candidate resolves from the memo caches.
  Gated by ``tools/check_bench_regression.py`` relative to the cold serial
  column from the same run, so the gate tracks the search overhead on top
  of the caches rather than the runner's absolute speed.
"""

import pytest

from repro.optimize import (
    CandidateEvaluator,
    DesignSpace,
    resolve_objectives,
    run_optimization,
)

#: The figure-scale search space: every topology x tolerance-band sizing.
SPACE_PDNS = ("IVR", "MBVR", "LDO", "I+MBVR", "FlexWatts")
TOLERANCE_BANDS_V = (0.015, 0.020, 0.025)

#: Candidates of the space (and rows of the grid-search result set).
CANDIDATES = len(SPACE_PDNS) * len(TOLERANCE_BANDS_V)

#: Budget and seed of the warm random-search column.
RANDOM_BUDGET = 10
SEED = 0

def _space() -> DesignSpace:
    return (
        DesignSpace.builder("bench-optimize")
        .pdns(*SPACE_PDNS)
        .parameter("ivr_tolerance_band_v", *TOLERANCE_BANDS_V)
        .build()
    )


@pytest.fixture(scope="module")
def grid_reference():
    """The cached-engine grid outcome the cold runs must reproduce."""
    return run_optimization(_space())


@pytest.mark.benchmark(group="optimize")
def test_bench_optimize_grid_cold_serial(benchmark, grid_reference):
    evaluator = CandidateEvaluator(resolve_objectives(), enable_cache=False)
    evaluator.spot.pdn("FlexWatts").predictor  # calibrate outside the timing
    outcome = benchmark.pedantic(
        run_optimization,
        args=(_space(),),
        kwargs={"evaluator": evaluator},
        rounds=5,
        iterations=1,
    )
    assert len(outcome.results) == CANDIDATES
    assert outcome.results == grid_reference.results
    assert outcome.knee_pdn == "FlexWatts"


@pytest.mark.benchmark(group="optimize")
def test_bench_optimize_random_warm(benchmark, grid_reference):
    """The memo-cached search: every candidate served as cache hits.

    A full grid run warms the shared evaluator first, so the timed random
    search measures pure search/Pareto overhead on top of the caches --
    the quantity the CI regression gate tracks.
    """
    evaluator = CandidateEvaluator(resolve_objectives())
    run_optimization(_space(), evaluator=evaluator)  # warm every candidate
    outcome = benchmark(
        run_optimization,
        _space(),
        strategy="random",
        budget=RANDOM_BUDGET,
        seed=SEED,
        evaluator=evaluator,
    )
    assert len(outcome.results) == RANDOM_BUDGET
    assert evaluator.spot.cache_info().hits > 0
    front_pdns = set(grid_reference.front.unique("pdn"))
    assert "FlexWatts" in front_pdns
