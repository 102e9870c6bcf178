#!/usr/bin/env python3
"""Gate CI on the evaluation daemon's end-to-end contract.

Starts a genuine ``python -m repro serve`` subprocess on an ephemeral port,
then drives it exactly as a user would:

1. **Liveness** -- ``GET /v1/healthz`` answers ``ok`` with the package
   version.
2. **Round trip** -- ``POST /v1/sweep`` returns a ResultSet that is
   bit-identical (``to_json()`` equality) to the same grid evaluated by a
   local in-process engine.
3. **Observability** -- ``GET /v1/stats`` reports the evaluations the
   round trip just performed.
4. **Connection reuse** -- two requests over one ``http.client``
   connection raise the ``serve.connections`` counter by exactly 1.
5. **Clean shutdown** -- SIGTERM, sent while that connection sits idle,
   drains the daemon, which announces ``shutdown complete`` and exits with
   status 0.

Exits non-zero with a diagnostic when any property fails.  Usage (what
.github/workflows/ci.yml runs)::

    PYTHONPATH=src python tools/check_serve_smoke.py
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import urllib.request
from typing import List, Optional
from urllib.parse import urlsplit

SWEEP_BODY = {"tdps": [4.0, 18.0], "ars": [0.4], "pdns": ["IVR", "LDO"]}
STARTUP_TIMEOUT_S = 60.0
SHUTDOWN_TIMEOUT_S = 60.0


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def get_json(url: str, body: Optional[dict] = None) -> dict:
    request = urllib.request.Request(
        url,
        data=None if body is None else json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="GET" if body is None else "POST",
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return json.loads(response.read().decode("utf-8"))


def main(argv: Optional[List[str]] = None) -> int:
    del argv  # no options: the gate is deliberately fixed
    print("serve smoke gate: starting python -m repro serve --port 0 ...")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        env=os.environ.copy(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        assert process.stdout is not None
        announce = process.stdout.readline()
        match = re.search(r"listening on (http://\S+)", announce)
        expect(
            match is not None,
            f"daemon did not announce a listen address: {announce!r}",
        )
        base_url = match.group(1)
        print(f"  daemon up at {base_url}")

        healthz = get_json(f"{base_url}/v1/healthz")
        expect(healthz.get("status") == "ok", f"healthz not ok: {healthz}")

        sys.path.insert(0, "src")
        import repro
        from repro.analysis.pdnspot import PdnSpot
        from repro.serve.protocol import build_sweep_study

        expect(
            healthz.get("version") == repro.__version__,
            f"healthz version {healthz.get('version')} != {repro.__version__}",
        )
        print(f"  healthz: ok (version {healthz['version']})")

        payload = get_json(f"{base_url}/v1/sweep", SWEEP_BODY)
        expect(payload.get("status") == "ok", f"sweep not ok: {payload}")
        local = PdnSpot().run(
            build_sweep_study(
                SWEEP_BODY["tdps"], SWEEP_BODY["ars"], pdns=SWEEP_BODY["pdns"]
            )
        )
        expect(
            payload["resultset"] == json.loads(local.to_json()),
            "server sweep ResultSet differs from the local engine's",
        )
        rows = len(payload["resultset"]["rows"])
        print(f"  sweep: {rows} rows, bit-identical to a local engine run")

        stats = get_json(f"{base_url}/v1/stats")
        requests_served = stats["endpoints"]["sweep"]["requests"]
        expect(
            requests_served == 1,
            f"stats counted {requests_served} sweep requests, expected 1",
        )
        misses = stats["cache"]["memory"]["pdnspot"]["misses"]
        expect(misses == rows, f"stats report {misses} misses for {rows} rows")
        print(f"  stats: 1 sweep request, {misses} evaluations accounted")

        accepted = get_json(f"{base_url}/v1/metrics")["metrics"]["counters"]
        before = accepted["serve.connections"]
        address = urlsplit(base_url)
        connection = http.client.HTTPConnection(
            address.hostname, address.port, timeout=120
        )
        try:
            for path in ("/v1/healthz", "/v1/metrics"):
                connection.request("GET", path)
                response = connection.getresponse()
                expect(response.status == 200, f"{path} answered {response.status}")
                document = json.loads(response.read().decode("utf-8"))
            after = document["metrics"]["counters"]["serve.connections"]
            expect(
                after - before == 1,
                f"two requests on one connection raised serve.connections "
                f"by {after - before}, expected 1",
            )
            print("  keep-alive: two requests, one connection")

            print("  sending SIGTERM with an idle connection open ...")
            process.send_signal(signal.SIGTERM)
            remainder, _ = process.communicate(timeout=SHUTDOWN_TIMEOUT_S)
            returncode = process.returncode
        finally:
            connection.close()
        expect(
            "shutdown complete" in remainder,
            f"daemon never announced shutdown: {remainder!r}",
        )
        expect(returncode == 0, f"daemon exited with status {returncode}")
    finally:
        if process.poll() is None:  # pragma: no cover - cleanup on failure
            process.kill()
            process.wait()

    print("OK: daemon served a bit-identical round trip and shut down cleanly")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
