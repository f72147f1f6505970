"""Host-speed probe: a fixed slice of interpreter work, timed on this thread.

The benchmark host's CPU speed drifts by up to 2x within seconds (shared
cores, frequency changes), so a raw wall-clock latency cannot repeat
within a tenth from run to run.  The probe measures how fast this host
runs plain Python *right now*; the benchmark interleaves it between short
blocks of workload and rescales each block by ``PROBE_NOMINAL /
measured``, reporting every timing in reference-host units.

Three rules keep the probe honest:

* it imports nothing from ``repro`` — only stdlib json/dict/sort/format
  work — so no change to the program under test can move it;
* it is timed with :func:`time.thread_time`, so other threads of the
  process (heartbeats, background reclaimers) cannot slow it and thereby
  hide their own cost;
* the collector is paused while it runs, so the size of the program's
  heap cannot leak into it.
"""

from __future__ import annotations

import gc
import json
import time

#: Thread-CPU seconds one :func:`probe` call takes on the reference host
#: (about the median of repeated runs on a 2-vCPU x86-64 VM, CPython 3.11).
#: Scaled timings read as "what this would have taken on that host".
PROBE_NOMINAL = 0.0004

#: Rows in one unit of probe work, and units per probe call.
_ROWS = 60
_UNITS = 1


def _unit() -> int:
    rows = [
        {"id": "r-%08d" % i, "name": f"n{i}", "tags": {"k": str(i % 7)},
         "v": i * 31 % 1009}
        for i in range(_ROWS)
    ]
    back = json.loads(json.dumps(rows, sort_keys=True))
    back.sort(key=lambda row: (row["v"], row["id"]))
    index = {row["id"]: row for row in back}
    total = 0
    for row in back:
        total += len(row["name"]) + index[row["id"]]["v"]
    return total


def probe() -> float:
    """Run the fixed probe work once; its thread-CPU seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        for __ in range(_UNITS):
            _unit()
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


def speed_factor(measured: float) -> float:
    """Multiplier that turns a time taken at ``measured`` probe speed
    into reference-host units."""
    return PROBE_NOMINAL / measured
