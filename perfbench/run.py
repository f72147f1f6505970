#!/usr/bin/env python3
"""Host-normalised serve benchmark over the learned EC2 emulator.

Run from the repository root::

    python3 perfbench/run.py --workload read-obs --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``read-obs``    in-process ``FrontDoor`` with telemetry and the
  observability plane, 4 tenants of ~10^2 resources, 90% describes;
* ``write-large`` in-process ``FrontDoor``, no telemetry, 1 tenant of
  ~10^4 resources, 40% size-neutral writes;
* ``sharded-rpc`` ``ShardedFrontDoor`` with one worker process, 2 tenants
  of ~10^3 resources, holistic allocation, 30% writes, two client threads.

Every workload is a closed loop (each client waits for its reply) and
advances the virtual clock by a fixed step per request.  The timed part
is cut into short blocks with the host-speed probe (:mod:`probe`) run
between them; each block's times are scaled by ``PROBE_NOMINAL /
measured`` so they read in reference-host units.  Raw wall values are
printed beside them, ungated.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced blocks and prints the per-layer metrics (see
:mod:`layers`), including ``trace.overhead_ratio``.  Every run checks each
reply against the client's model and, after the timed blocks, runs the
front door's linearizability check; any miss makes the run exit 1 with
``"correct": false``.  The last line of standard output is the result
object.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from multiprocessing import resource_tracker  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import probe  # noqa: E402

#: Timed blocks per second of ``--seconds``.  Each workload sizes its
#: blocks to about 25 ms on the reference host (the host's speed moves
#: within a tenth of a second, so the probe must bracket short blocks), so a run
#: measures ``--seconds`` reference-host seconds.  The work is fixed,
#: not the wall time: per-request costs that grow with the requests
#: already served then grow alike in every run, whatever the host's
#: speed, and two commits are compared on the same requests.
BLOCKS_PER_SECOND = 40
#: Untimed blocks at the start of the measurement (caches, first
#: versions, lazily built runtimes).
WARMUP_BLOCKS = 20
#: A run stops early, with what it has, after this many wall seconds
#: per second of ``--seconds`` (a much slower program must still
#: finish inside the harness's time limit).
WALL_LIMIT_FACTOR = 6
#: ``rss_mb`` is read after this many timed blocks: a fixed amount of
#: work, so that memory the program keeps per request (logs, kept
#: traces) does not make the figure follow the host's speed.
RSS_BLOCKS = 80
#: Chunks of consecutive timed blocks whose per-chunk metrics are
#: reported as their median (see :func:`end_to_end`).
CHUNKS = 5
#: Set-ups per run (this process plus fresh child processes); the
#: reported ``setup_s`` is their median.
SETUP_RUNS = 3
#: Seconds a child set-up may take before the run is abandoned.
SETUP_TIMEOUT = 150

END_TO_END = (
    ("throughput_rps", "req/s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("setup_s", "s"),
    ("rss_mb", "MB"),
)

PER_LAYER = (
    ("endpoint.handle_self_us", "us"),
    ("tenancy.resolve_us", "us"),
    ("validation.validate_us", "us"),
    ("admission.admit_us", "us"),
    ("admission.shed_ratio", "ratio"),
    ("allocation.reallocations_per_1k", "count"),
    ("obs.request_self_us", "us"),
    ("obs.kept_ratio", "ratio"),
    ("telemetry.metric_lookups_per_req", "count"),
    ("telemetry.spans_per_req", "count"),
    ("concurrency.read_self_us", "us"),
    ("concurrency.write_self_us", "us"),
    ("mvcc.publish_us", "us"),
    ("mvcc.publish_entries", "count"),
    ("mvcc.read_lock_acquisitions", "count"),
    ("interpreter.read_us", "us"),
    ("interpreter.write_us", "us"),
    ("gc.collections_per_1k", "count"),
    ("gc.pause_us_per_req", "us"),
    ("shard.lock_wait_us", "us"),
    ("shard.rpc_read_us", "us"),
    ("shard.rpc_write_us", "us"),
    ("shard.bytes_per_req", "bytes"),
    ("shard.snapshot_write_us", "us"),
    ("durability.snapshot_bytes", "bytes"),
    ("shard.restarts", "count"),
    ("trace.overhead_ratio", "ratio"),
)


class HostClock:
    """Elapsed wall time, segment by segment, in reference-host units.

    :meth:`mark` closes the segment since the previous mark and scales
    it by the mean of the probes taken at its two ends.  Probe time
    itself is left out of both totals.
    """

    def __init__(self, start: float):
        before = time.perf_counter()
        self.last_probe = probe.probe()
        self.raw = before - start
        self.scaled = self.raw * probe.speed_factor(self.last_probe)
        self.last_end = time.perf_counter()

    def mark(self) -> float:
        """Close the current segment; returns its speed factor."""
        stop = time.perf_counter()
        measured = probe.probe()
        factor = probe.speed_factor((self.last_probe + measured) / 2)
        segment = stop - self.last_end
        self.raw += segment
        self.scaled += segment * factor
        self.last_probe = measured
        self.last_end = time.perf_counter()
        return factor


def pin_to_one_cpu() -> int:
    """Pin this process (and so every thread and process it starts) to
    one CPU, the one the probe then measures; returns it.

    The vCPUs of a shared host change speed independently (simultaneous
    probes on the two vCPUs of a 2-vCPU VM correlated at 0.18), so a
    probe only describes the CPU it ran on.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not ordered:
        return 0.0
    rank = max(1, -(-int(q * 1000) * len(ordered) // 1000))
    return ordered[min(rank, len(ordered)) - 1]


def peak_rss_mb(pids: list) -> float:
    """Summed ``VmHWM`` of the given processes, in MB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def filesystem_of(path: Path) -> str:
    """The filesystem type of the mount holding ``path``."""
    best, kind = "", "unknown"
    target = str(path.resolve())
    with open("/proc/mounts", encoding="utf-8") as mounts:
        for line in mounts:
            fields = line.split()
            point = fields[1]
            inside = target == point or target.startswith(
                point.rstrip("/") + "/")
            if inside and len(point) > len(best):
                best, kind = point, fields[2]
    return kind


class Blocks:
    """The timed part of a run: client threads driven block by block."""

    def __init__(self, workload, seed: int, trace=None):
        self.workload = workload
        self.trace = trace
        self.rngs = [random.Random(f"{seed}:{client}")
                     for client in range(workload.clients)]
        self.failures: list = []
        self.attempted = 0
        self.crashed: list = []
        self._go = threading.Barrier(workload.clients + 1)
        self._done = threading.Barrier(workload.clients + 1)
        self._finished = False
        self._traced = False
        # Per-client results of the current block: read and write
        # latencies (raw seconds), snapshot-write flags, requests issued.
        self._results = [None] * workload.clients
        self._threads = [
            threading.Thread(target=self._client, args=(client,),
                             name=f"perfbench-client-{client}")
            for client in range(workload.clients)
        ]
        for thread in self._threads:
            thread.start()

    def _client(self, client: int) -> None:
        workload = self.workload
        rng = self.rngs[client]
        tenants = workload.client_tenants(client)
        clock = workload.clock
        trace = self.trace
        from workloads import CLOCK_STEP, CheckFailed

        snapshot_write = getattr(workload, "snapshot_write", None)
        count = workload.block_requests // workload.clients
        latency_clock = workload.latency_clock
        step = 0
        while True:
            try:
                self._go.wait(timeout=SETUP_TIMEOUT)
            except threading.BrokenBarrierError:
                return
            if self._finished:
                return
            reads, writes, flags = [], [], []
            attempted = 0
            traced = self._traced
            try:
                for __ in range(count):
                    tenant, is_read, api, params, expect = workload.next_op(
                        rng, tenants, step)
                    step += 1
                    payload = workload.payload(api, params)
                    attempted += 1
                    if traced:
                        trace.begin_request(is_read)
                    began = latency_clock()
                    reply = workload.serve(tenant.key, payload)
                    elapsed = latency_clock() - began
                    if traced:
                        trace.end_request()
                    try:
                        workload.check(tenant, api, params, expect, reply)
                    except CheckFailed as error:
                        self.failures.append(str(error))
                    if is_read:
                        reads.append(elapsed)
                    else:
                        writes.append(elapsed)
                        flags.append(snapshot_write is not None
                                     and snapshot_write(tenant))
                    clock.sleep(CLOCK_STEP)
            except Exception as error:  # report, never hang the run
                self.crashed.append(f"{type(error).__name__}: {error}")
            self._results[client] = (reads, writes, flags, attempted)
            try:
                self._done.wait(timeout=SETUP_TIMEOUT)
            except threading.BrokenBarrierError:
                return

    def block(self, traced: bool = False):
        """Run one block on every client; returns the wall seconds and
        the per-client results."""
        self._traced = traced
        began = time.perf_counter()
        self._go.wait(timeout=SETUP_TIMEOUT)
        self._done.wait(timeout=SETUP_TIMEOUT)
        wall = time.perf_counter() - began
        results = list(self._results)
        for _reads, _writes, _flags, attempted in results:
            self.attempted += attempted
        return wall, results

    def close(self) -> None:
        self._finished = True
        try:
            self._go.wait(timeout=5)
        except threading.BrokenBarrierError:
            pass
        for thread in self._threads:
            thread.join(timeout=30)


def measure(workload, seed: int, seconds: float, trace=None) -> dict:
    """Warm up, then run ``seconds * BLOCKS_PER_SECOND`` timed blocks.
    With ``trace``, odd blocks are traced and even blocks are not."""
    blocks = Blocks(workload, seed, trace)
    host = HostClock(time.perf_counter())
    out = {
        "blocks": [], "snapshot_writes": [], "plain_writes": [],
        "scaled_wall": 0.0, "requests": 0,
        "traced_wall": 0.0, "traced_requests": 0, "factors": [],
    }
    counters = getattr(workload, "counters", None)
    deltas: dict = {}
    try:
        for __ in range(WARMUP_BLOCKS):
            blocks.block()
            host.mark()
        wall_limit = time.perf_counter() + WALL_LIMIT_FACTOR * seconds
        total = max(2, round(seconds * BLOCKS_PER_SECOND))
        index = 0
        while (index < total and not blocks.crashed
               and time.perf_counter() < wall_limit):
            traced = trace is not None and index % 2 == 1
            index += 1
            if traced:
                before = counters() if counters else {}
                trace.install()
            try:
                wall, results = blocks.block(traced)
            finally:
                if traced:
                    trace.uninstall()
            factor = host.mark()
            if index == RSS_BLOCKS:
                out["rss_mb"] = peak_rss_mb(workload.pids())
            out["factors"].append(factor)
            done = sum(len(r[0]) + len(r[1]) for r in results)
            if traced:
                trace.flush_block(factor)
                after = counters() if counters else {}
                for key, value in after.items():
                    deltas[key] = deltas.get(key, 0) + value - before[key]
                out["traced_wall"] += wall * factor
                out["traced_requests"] += done
                continue
            out["scaled_wall"] += wall * factor
            out["requests"] += done
            reads = [value for r in results for value in r[0]]
            writes = [value for r in results for value in r[1]]
            out["blocks"].append((factor, wall, done, reads, writes))
            for _reads, writes, flags, _attempted in results:
                for value, flag in zip(writes, flags):
                    key = "snapshot_writes" if flag else "plain_writes"
                    out[key].append(value * factor)
    finally:
        blocks.close()
    out["attempted"] = blocks.attempted
    out["failures"] = blocks.failures + blocks.crashed
    out["counter_deltas"] = deltas
    return out


def end_to_end(run: dict, setup_s: float, setup_raw: float,
               rss_mb: float) -> tuple[dict, dict, dict]:
    """(scaled, raw, sample counts) end-to-end metrics of one measurement.

    Throughput and the medians are computed per chunk of consecutive
    blocks (``CHUNKS`` of them) and the median of the chunks is
    reported, so an episode in which the probe misjudges the host's
    speed moves at most a chunk or two.  The p99s are taken over the
    whole run: on ``write-large`` about 0.8% of writes pay a collector
    pause ten times a plain write's cost, so the p99 sits just below
    that cliff, and only the whole run's samples keep it far enough
    from the edge (in samples) to repeat.
    """
    blocks = run["blocks"]
    size = max(1, -(-len(blocks) // CHUNKS))
    chunks = [blocks[i:i + size] for i in range(0, len(blocks), size)]

    def samples(part, scaled):
        reads, writes, wall, done = [], [], 0.0, 0
        for factor, block_wall, block_done, block_reads, block_writes in part:
            scale = factor if scaled else 1.0
            reads.extend(value * scale for value in block_reads)
            writes.extend(value * scale for value in block_writes)
            wall += block_wall * scale
            done += block_done
        return sorted(reads), sorted(writes), wall, done

    out = []
    for scaled in (True, False):
        per_chunk = []
        for chunk in chunks:
            reads, writes, wall, done = samples(chunk, scaled)
            per_chunk.append((done / wall if wall else 0.0,
                              percentile(reads, 0.50),
                              percentile(writes, 0.50)))
        reads, writes, _wall, _done = samples(blocks, scaled)
        out.append({
            "throughput_rps": statistics.median(c[0] for c in per_chunk),
            "read_p50_us": statistics.median(c[1] for c in per_chunk) * 1e6,
            "read_p99_us": percentile(reads, 0.99) * 1e6,
            "write_p50_us": statistics.median(c[2] for c in per_chunk) * 1e6,
            "write_p99_us": percentile(writes, 0.99) * 1e6,
        })
    out[0].update(setup_s=setup_s, rss_mb=rss_mb)
    out[1].update(setup_s=setup_raw, rss_mb=rss_mb)
    reads, writes, _wall, _done = samples(blocks, False)
    counts = {
        "chunks": len(chunks),
        "reads": len(reads), "writes": len(writes),
        "reads_beyond_p99": len(reads) - -(-99 * len(reads) // 100),
        "writes_beyond_p99": len(writes) - -(-99 * len(writes) // 100),
    }
    return out[0], out[1], counts


def per_layer(run: dict, trace, workload) -> dict:
    """The per-layer metrics of a traced measurement."""
    totals, counts = trace.totals, trace.counts
    deltas = run["counter_deltas"]
    requests = counts["requests"] or 1
    reads = counts["requests.read"] or 1
    writes = counts["requests.write"] or 1

    def dur(name, cls=None):
        return sum(totals[f"dur.{name}.{c}"]
                   for c in ((cls,) if cls else ("read", "write")))

    def self_time(name, cls=None):
        return sum(totals[f"self.{name}.{c}"]
                   for c in ((cls,) if cls else ("read", "write")))

    from layers import ENVELOPE

    us = 1e6
    plain = sorted(run["plain_writes"])
    snapshot_us = 0.0
    if run["snapshot_writes"] and plain:
        snapshot_us = (statistics.fmean(run["snapshot_writes"])
                       - percentile(plain, 0.5)) * us
    untraced_rps = (run["requests"] / run["scaled_wall"]
                    if run["scaled_wall"] else 0.0)
    traced_rps = (run["traced_requests"] / run["traced_wall"]
                  if run["traced_wall"] else 0.0)
    seen = deltas.get("obs.seen", 0)
    return {
        "endpoint.handle_self_us":
            sum(self_time(name) for name in ENVELOPE) / requests * us,
        "tenancy.resolve_us": dur("tenancy.resolve") / requests * us,
        "validation.validate_us":
            dur("validation.validate") / requests * us,
        "admission.admit_us":
            (dur("admission.admit") + dur("admission.release"))
            / requests * us,
        "admission.shed_ratio":
            counts["admission.sheds"] / max(1, counts["calls.admission.admit"]),
        "allocation.reallocations_per_1k":
            deltas.get("allocation.reallocations", 0) / requests * 1000,
        "obs.request_self_us":
            (self_time("obs.request") + dur("obs.classify")) / requests * us,
        "obs.kept_ratio": deltas.get("obs.kept", 0) / seen if seen else 0.0,
        "telemetry.metric_lookups_per_req":
            counts["metric.lookups"] / requests,
        "telemetry.spans_per_req":
            deltas.get("telemetry.spans", 0) / requests,
        "concurrency.read_self_us":
            self_time("concurrency.invoke", "read") / reads * us,
        "concurrency.write_self_us":
            self_time("concurrency.invoke", "write") / writes * us,
        "mvcc.publish_us":
            (dur("mvcc.publish_version", "write")
             + dur("mvcc.chain_publish", "write")) / writes * us,
        "mvcc.publish_entries":
            counts["mvcc.entries"] / max(1, counts["mvcc.publishes"]),
        "mvcc.read_lock_acquisitions": workload.read_lock_acquisitions(),
        "interpreter.read_us":
            (dur("interpreter.invoke", "read")
             + dur("interpreter.invoke_at", "read")) / reads * us,
        "interpreter.write_us":
            (dur("interpreter.invoke", "write")
             + dur("interpreter.invoke_at", "write")) / writes * us,
        "gc.collections_per_1k": counts["gc.gen2"] / requests * 1000,
        "gc.pause_us_per_req": totals["gc.pause"] / requests * us,
        "shard.lock_wait_us": totals["lock_wait"] / requests * us,
        "shard.rpc_read_us": totals["wire.read"] / reads * us,
        "shard.rpc_write_us": totals["wire.write"] / writes * us,
        "shard.bytes_per_req": counts["wire.bytes"] / requests,
        "shard.snapshot_write_us": snapshot_us,
        "durability.snapshot_bytes": workload.snapshot_bytes(),
        "shard.restarts": workload.restarts(),
        "trace.overhead_ratio":
            traced_rps / untraced_rps if untraced_rps else 0.0,
    }


def self_time_table(trace) -> str:
    """Per-span self time per request of each class (µs, reference-host
    units), one ``#`` line per span name."""
    counts = trace.counts
    names = sorted({key.split(".", 1)[1].rsplit(".", 1)[0]
                    for key in trace.totals if key.startswith("self.")})
    lines = [f"# {'self time per request (us)':36s} {'read':>10s} "
             f"{'write':>10s}"]
    for name in names:
        cells = []
        for cls in ("read", "write"):
            requests = counts[f"requests.{cls}"] or 1
            cells.append(trace.totals[f"self.{name}.{cls}"] / requests * 1e6)
        lines.append(f"#   {name:34s} {cells[0]:10.2f} {cells[1]:10.2f}")
    return "\n".join(lines)


def stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    Shard workers are started with the ``spawn`` method, which also
    starts multiprocessing's resource-tracker process; the tracker
    outlives this process unless it is stopped here, after the workers
    (which hold its pipe open) are gone.
    """
    for child in multiprocessing.active_children():
        child.kill()
        child.join(timeout=10)
    tracker = resource_tracker._resource_tracker
    pid, fd = tracker._pid, tracker._fd
    if pid is None:
        return
    tracker._pid = tracker._fd = None
    os.close(fd)  # end of input: the tracker exits
    deadline = time.monotonic() + 10
    try:
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.01)
    except ChildProcessError:
        pass


def child_setups(args, count: int) -> list:
    """Time ``count`` more set-ups, each in a fresh process.

    Each child runs in a session of its own, so that on a timeout the
    whole group (its shard workers too) is killed and none outlives
    the run.
    """
    samples = []
    for __ in range(count):
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            cwd=str(ROOT), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            stdout, stderr = child.communicate(timeout=SETUP_TIMEOUT)
        except BaseException:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.communicate()
            raise
        if child.returncode != 0:
            raise RuntimeError(
                f"set-up child failed ({child.returncode}): "
                f"{stderr.strip()[-400:]}")
        samples.append(json.loads(stdout.strip().splitlines()[-1]))
    return samples


def host_facts(args, data_dir: Path, workload) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "switch_interval_s": sys.getswitchinterval(),
        "shard_dir_fs": filesystem_of(data_dir.parent),
        "probe_nominal_s": probe.PROBE_NOMINAL,
        "block_requests": workload.block_requests,
        "seed": args.seed,
        "workload": args.workload,
        "flush_policy": "shard WAL fsync off (default); "
                        "snapshots always fsync",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("read-obs", "write-large", "sharded-rpc"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and exit (used internally)")
    args = parser.parse_args(argv)

    source = ROOT / "src" / "repro"
    if not (source / "__init__.py").is_file():
        print(f"perfbench: no repro package at {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    cpu = pin_to_one_cpu()
    setup_clock = HostClock(STARTED)
    from workloads import WORKLOADS

    data_dir = ROOT / ".perfbench-tmp" / f"{args.workload}-{os.getpid()}"
    data_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, data_dir)
    try:
        workload.setup(setup_clock.mark)
        setup_clock.mark()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_clock.scaled,
                              "setup_raw_s": setup_clock.raw}))
            return 0
        workload.start_size = workload.registry_size()
        facts = host_facts(args, data_dir, workload)
        facts.update(workload.facts(), cpu=cpu)
        print("# host " + json.dumps(facts), flush=True)

        trace = None
        if args.trace:
            from layers import LayerTrace

            trace = LayerTrace(workload)
        gc.collect()
        run = measure(workload, args.seed, args.seconds, trace)
        problems = list(run["failures"])
        problems.extend(workload.gate())
        rss_mb = run.get("rss_mb") or peak_rss_mb(workload.pids())
        layers = per_layer(run, trace, workload) if trace else None
    finally:
        try:
            workload.close()
        finally:
            stop_children()
            shutil.rmtree(data_dir, ignore_errors=True)

    print("# samples " + json.dumps({
        "snapshot_writes": len(run["snapshot_writes"]),
        "blocks": len(run["factors"]),
        "probe_factor_min": min(run["factors"], default=0.0),
        "probe_factor_max": max(run["factors"], default=0.0),
    }), flush=True)
    for problem in problems[:10]:
        print(f"# FAILED {problem}", flush=True)

    if trace is not None:
        trace.dump(ROOT / ".perfbench-out" / f"trace-{args.workload}.jsonl")
        print(self_time_table(trace), flush=True)
        units = dict(PER_LAYER)
        metrics = {name: {"value": layers[name], "unit": units[name]}
                   for name, _unit in PER_LAYER}
    else:
        samples = [{"setup_s": setup_clock.scaled,
                    "setup_raw_s": setup_clock.raw}]
        samples += child_setups(args, SETUP_RUNS - 1)
        setup_s = statistics.median(s["setup_s"] for s in samples)
        setup_raw = statistics.median(s["setup_raw_s"] for s in samples)
        scaled, raw, counts = end_to_end(run, setup_s, setup_raw, rss_mb)
        print("# sample_counts " + json.dumps(counts), flush=True)
        print("# raw " + json.dumps(raw), flush=True)
        print("# setup_samples " + json.dumps(
            [round(s["setup_s"], 4) for s in samples]), flush=True)
        units = dict(END_TO_END)
        metrics = {name: {"value": scaled[name], "unit": units[name]}
                   for name, _unit in END_TO_END}
    for name, entry in metrics.items():
        print(f"# {name:36s} {entry['value']:14.4f} {entry['unit']}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, run["attempted"]),
        "failed": len(problems),
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
