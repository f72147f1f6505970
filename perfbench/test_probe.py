"""Self-tests of the host-speed probe.

Run from the repository root::

    python3 -m pytest -q perfbench/test_probe.py

The probe is only a fair yardstick if nothing the program does can move
it.  These tests check the three ways it could: importing program code,
another busy thread in the process, and a large program heap (and that
the collector is paused while the probe runs).
"""

from __future__ import annotations

import ast
import gc
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import probe  # noqa: E402

#: How far the probe's median may move under each condition.
TOLERANCE = 0.15
ROUNDS = 60


def test_probe_imports_nothing_from_repro():
    tree = ast.parse((HERE / "probe.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not any(name.split(".")[0] == "repro" for name in imported)
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import probe; "
         "probe.probe(); "
         "print(sorted(m for m in sys.modules if m.startswith('repro')))",
         str(HERE)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert loaded.stdout.strip() == "[]"


def test_probe_unmoved_by_a_busy_thread():
    spin = threading.Event()
    parked = threading.Event()
    stop = threading.Event()

    def busy():
        table = {}
        while not stop.is_set():
            if spin.is_set():
                parked.clear()
                for i in range(50):
                    table[i % 97] = str(i)
            else:
                parked.set()
                spin.wait(0.01)

    thread = threading.Thread(target=busy, daemon=True)
    thread.start()
    quiet, loaded = [], []
    try:
        for __ in range(ROUNDS // 10):
            spin.clear()
            assert parked.wait(5)
            quiet += [probe.probe() for __ in range(10)]
            spin.set()
            time.sleep(0.005)
            loaded += [probe.probe() for __ in range(10)]
    finally:
        stop.set()
        spin.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    ratio = statistics.median(loaded) / statistics.median(quiet)
    assert abs(ratio - 1.0) < TOLERANCE, ratio


def test_collector_paused_during_probe(monkeypatch):
    seen = []
    unit = probe._unit
    monkeypatch.setattr(probe, "_unit",
                        lambda: seen.append(gc.isenabled()) or unit())
    probe.probe()
    assert seen and not any(seen)
    assert gc.isenabled()


def _large_registry():
    """An emulator holding 10^4 resources (VPCs, subnets, groups)."""
    from repro.core import build_learned_emulator

    emulator = build_learned_emulator("ec2", seed=7).make_backend()
    for v in range(200):
        vpc = emulator.invoke("CreateVpc", {"CidrBlock": f"10.{v}.0.0/16"})
        assert vpc.success
        for s in range(25):
            assert emulator.invoke("CreateSubnet", {
                "VpcId": vpc.data["id"],
                "CidrBlock": f"10.{v}.{s // 16}.{(s % 16) * 16}/28",
            }).success
        for g in range(24):
            assert emulator.invoke("CreateSecurityGroup", {
                "GroupName": f"g{v}-{g}", "Description": "d",
                "VpcId": vpc.data["id"],
            }).success
    assert len(emulator.registry) == 10_000
    return emulator


def test_probe_unmoved_by_a_large_heap():
    empty = [probe.probe() for __ in range(ROUNDS)]
    emulator = _large_registry()
    full = [probe.probe() for __ in range(ROUNDS)]
    del emulator
    gc.collect()
    empty += [probe.probe() for __ in range(ROUNDS)]
    # The phases are not interleaved, so compare floors: the host's
    # drift between phases moves medians but hardly the fastest probe.
    ratio = min(full) / min(empty)
    assert abs(ratio - 1.0) < TOLERANCE, ratio
    assert gc.isenabled()
