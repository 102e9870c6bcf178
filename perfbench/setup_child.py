"""Set-up probe, run in a fresh interpreter: ``setup_child.py KIND WORKDIR``.

Does what a workload does before it can take its first op -- import the
package, build the engine and calibrate FlexWatts -- and prints the three
phases in milliseconds as one JSON line.  The parent times the whole launch.
"""

import json
import sys
import time

started = time.perf_counter()
kind, workdir = sys.argv[1], sys.argv[2]

import repro  # noqa: E402,F401 - the import is what is being timed
from repro.serve.protocol import build_sweep_study  # noqa: E402,F401

if kind == "serve":
    from repro.serve.server import EvaluationServer  # noqa: E402
imported = time.perf_counter()

if kind == "sweep":
    engine = repro.PdnSpot()
elif kind == "simulate":
    engine = repro.SimEngine()
else:
    engine = EvaluationServer(port=0, cache_dir=workdir)
built = time.perf_counter()

# The daemon calibrates lazily, on its first FlexWatts request.
if kind == "sweep":
    engine.pdn("FlexWatts").predictor
elif kind == "simulate":
    engine.spot.pdn("FlexWatts").predictor
calibrated = time.perf_counter()

print(json.dumps({
    "import_ms": (imported - started) * 1e3,
    "engine_ms": (built - imported) * 1e3,
    "calibrate_ms": (calibrated - built) * 1e3,
}), flush=True)
