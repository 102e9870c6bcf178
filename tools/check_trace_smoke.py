#!/usr/bin/env python3
"""Gate CI on the end-to-end tracing contract of ``--trace``.

Runs a genuine ``python -m repro sweep`` subprocess over a 300-unit grid
with ``--trace``, then checks the exported file:

1. **Valid Chrome trace** -- the file parses as JSON with the
   ``traceEvents`` / ``displayTimeUnit`` / ``otherData`` document shape
   chrome://tracing and Perfetto accept.
2. **One process, one chunk** -- every span carries the sweep's own pid,
   and the ``executor.chunks`` counter reads 1: the grid's misses were
   evaluated as one batch in the sweep process.
3. **Layer coverage** -- executor lifecycle spans (dedupe, dispatch,
   merge-back) and engine spans appear, and one ``setup.import`` span
   covers start-up: it ends before the sweep's first span starts.
4. **Counter track** -- the final metrics samples include the cache-tier
   counters (``cache.*``) and the columnar-dispatch counters
   (``executor.columnar.*``), with totals consistent with the grid size.

Exits non-zero with a diagnostic when any property fails.  Usage (what
.github/workflows/ci.yml runs)::

    PYTHONPATH=src python tools/check_trace_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from typing import List, Optional

#: 5 TDPs x 4 ARs x 3 workloads x 5 PDNs = 300 units, small enough to stay
#: quick on a CI runner.
SWEEP_ARGS = [
    "--tdps", "4", "8", "10", "18", "25",
    "--ars", "0.4", "0.5", "0.56", "0.6",
    "--workloads", "cpu_single_thread", "cpu_multi_thread", "graphics",
    "--format", "json",
]
EXPECTED_UNITS = 5 * 4 * 3 * 5


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def main(argv: Optional[List[str]] = None) -> int:
    del argv  # no options: the gate is deliberately fixed
    with tempfile.TemporaryDirectory(prefix="repro-trace-smoke-") as tmp:
        trace_path = os.path.join(tmp, "trace.json")
        out_path = os.path.join(tmp, "sweep.json")
        command = [
            sys.executable, "-m", "repro", "sweep",
            *SWEEP_ARGS, "--output", out_path, "--trace", trace_path,
        ]
        print("trace smoke gate:", " ".join(command))
        completed = subprocess.run(
            command, env=os.environ.copy(), capture_output=True, text=True,
            timeout=600,
        )
        expect(
            completed.returncode == 0,
            f"sweep exited {completed.returncode}: {completed.stderr[-2000:]}",
        )
        try:
            document = json.loads(open(trace_path, encoding="utf-8").read())
        except (OSError, ValueError) as error:
            raise SystemExit(f"FAIL: trace file unreadable: {error}")

        expect(
            set(document) == {"traceEvents", "displayTimeUnit", "otherData"},
            f"unexpected document keys: {sorted(document)}",
        )
        expect(
            document["otherData"].get("producer") == "repro.obs",
            "missing producer marker in otherData",
        )
        events = document["traceEvents"]
        expect(bool(events), "trace contains no events")
        for event in events:
            expect(
                {"name", "ph", "ts", "pid", "tid"} <= set(event),
                f"malformed event: {event}",
            )

        spans = [event for event in events if event["ph"] == "X"]
        names = {event["name"] for event in spans}
        for required in ("executor.dedupe", "executor.dispatch",
                        "executor.merge_back", "executor.chunk",
                        "engine.run", "engine.columnar_block"):
            expect(required in names, f"missing span {required!r}")

        setup = [event for event in spans if event["name"] == "setup.import"]
        expect(len(setup) == 1, f"expected one setup.import span, got {len(setup)}")
        setup_end = setup[0]["ts"] + setup[0]["dur"]
        expect(setup[0]["dur"] > 0, "setup.import span has no duration")
        expect(
            all(setup_end <= event["ts"] for event in spans if event is not setup[0]),
            "setup.import span overlaps the sweep's spans",
        )
        print(f"  setup.import: {setup[0]['dur'] / 1e3:.1f} ms")

        span_pids = {event["pid"] for event in spans}
        expect(
            len(span_pids) == 1,
            f"expected every span from the sweep's own pid, got {sorted(span_pids)}",
        )
        print(f"  span pid: {span_pids.pop()}")

        counters = {
            event["name"]: event["args"].get("value")
            for event in events
            if event["ph"] == "C" and event.get("cat") == "metrics"
        }
        for required in ("cache.memory.hits", "cache.disk.hits",
                        "cache.lookup.misses", "cache.installs",
                        "executor.columnar.units", "executor.chunks"):
            expect(required in counters, f"missing counter {required!r}")
        expect(
            counters["executor.columnar.units"]
            + counters.get("executor.scalar.units", 0)
            == EXPECTED_UNITS,
            f"dispatch counters cover {counters['executor.columnar.units']} "
            f"units, expected {EXPECTED_UNITS}",
        )
        lookups = (
            counters["cache.memory.hits"]
            + counters["cache.disk.hits"]
            + counters["cache.lookup.misses"]
        )
        expect(
            lookups == EXPECTED_UNITS,
            f"cache-tier counters cover {lookups} lookups, "
            f"expected {EXPECTED_UNITS}",
        )
        expect(
            counters["executor.chunks"] == 1,
            f"expected the sweep's misses in one chunk, got "
            f"executor.chunks == {counters['executor.chunks']}",
        )
        print(f"  events: {len(events)}, spans: {len(spans)}, "
              f"counters: {len(counters)}")
    print("OK: trace smoke gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
