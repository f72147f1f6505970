"""Crash-tolerant multi-process sharded serving.

One serving process, one GIL, one failure domain — that is where the
serve stack stopped.  This module splits the registry space across N
**worker processes** (one shard per process, placed by a stable
tenant -> shard hash) and puts a supervising parent in front:

- :class:`ShardSupervisor` spawns the workers (``multiprocessing``
  spawn context — restart-safe while request threads are live), speaks
  a correlation-id RPC over duplex pipes, heartbeats every shard on a
  virtual-clock-compatible loop, and restarts dead workers
  automatically with the next entry of a seeded per-shard kill-schedule
  queue (so injected restart storms converge: the queue drains and the
  shard comes back clean).
- Each :class:`_ShardWorker` owns a private durability directory: a
  CRC-framed tenant-tagged **write-attempt log** (:class:`ShardLog`,
  the ``mid-serve-wal-append`` kill site — a crash there leaves a
  deliberately torn half-line) plus per-tenant snapshot files written
  atomically every ``snapshot_interval`` writes.  Recovery is snapshot
  restore + attempt-log tail replay, then a self-check: a full
  from-scratch replay of every tenant's attempts must be
  **byte-identical** to the recovered registry, and any divergence is
  reported to the supervisor and folded into the linearizability
  verdict.
- :class:`ShardedFrontDoor` keeps the whole single-process serving
  stack (envelope, auth, validation, admission) and swaps only the
  bottom: each tenant's backend is an RPC stub to its owning shard.
  Requests to a dead shard shed with ``ServiceUnavailable`` + a
  Retry-After hint and a ``ShardUnavailable`` marker (so well-behaved
  clients back off for the failover, not forever), while surviving
  shards keep serving untouched.

Why an *attempt* log and not the emulator's WAL: the interpreter burns
a deterministic ID even when a create fails (no counter rollback), and
the WAL records only successful commits — so snapshot+WAL replay
cannot reproduce allocator state after failed attempts.  Logging every
attempt *before* dispatch makes one file serve as both the redo log
(replay re-fails exactly, burning the same IDs) and the per-shard
admitted log the extended linearizability check replays serially.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import tempfile
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from ..durability.journal import JournalWriter, scan_records
from ..durability.snapshot import (
    decode_value,
    encode_value,
    registry_diff,
    write_snapshot,
)
from ..interpreter.emulator import Emulator
from ..interpreter.endpoint import JsonEndpoint
from ..interpreter.errors import ApiResponse
from ..resilience.chaos import (
    KILL_SITES,
    SimulatedCrash,
    install_kill_switch,
)
from ..resilience.policy import VirtualClock
from ..spec import parse_module, serialize_module
from .concurrency import ConcurrentEmulator
from .deadline import current_meta, expired_response
from .frontdoor import ConfigError, FrontDoor, _GuardedBackend
from .loadgen import _canonical
from .tenancy import Tenant, TenantRouter

SHARD_WAL_NAME = "shard.wal"

#: Worker exit status for an injected :class:`SimulatedCrash` — the
#: process dies with no cleanup, no reply and no flushes, the way
#: ``kill -9`` would.
CRASH_EXIT_CODE = 23

#: The kill sites a worker process can die at (all of them reachable
#: from the serve path; the build-side sites never fire in a worker).
WORKER_KILL_SITES = (
    "mid-transition-commit",   # write committed? no — logged, not applied
    "mid-publish",             # write applied, version not yet published
    "mid-serve-wal-append",    # attempt half-written, never dispatched
)


def shard_for(tenant: str, shards: int) -> int:
    """The stable tenant -> shard placement (crc32 hash, mod N)."""
    return zlib.crc32(tenant.encode("utf-8")) % max(1, shards)


def _safe_name(tenant: str) -> str:
    return "".join(
        ch if ch.isalnum() or ch in "-_" else "_" for ch in tenant
    )


# ---------------------------------------------------------------------------
# The per-shard write-attempt log
# ---------------------------------------------------------------------------


class ShardLog:
    """Tenant-tagged log of every write *attempt* one shard admitted.

    Shares the build journal's CRC framing and torn-tail scan.  The
    append is the ``mid-serve-wal-append`` kill site: an injected
    worker death there leaves half a line, flushed but not fsync'd,
    which the recovery scan drops — correctly, because the attempt it
    described never reached the interpreter.
    """

    def __init__(self, path: "str | Path", fsync: bool = True):
        target = Path(path)
        if target.is_dir():
            target = target / SHARD_WAL_NAME
        self.path = target
        self._writer = JournalWriter(
            self.path, fsync=fsync, kill_site="mid-serve-wal-append"
        )
        scan = scan_records(self.path)
        self.dropped = scan.dropped
        self._records = scan.records
        self._writer.open(truncate_to=scan.valid_bytes)
        self._seq = self._records[-1]["seq"] if self._records else 0

    @property
    def seq(self) -> int:
        return self._seq

    @property
    def records(self) -> list[dict]:
        return list(self._records)

    def append(self, tenant: str, api: str, params: dict | None) -> int:
        """Log one attempt about to dispatch; returns its shard seq."""
        self._seq += 1
        record = {
            "type": "attempt",
            "seq": self._seq,
            "tenant": tenant,
            "api": api,
            "params": encode_value(dict(params or {})),
        }
        self._writer.append(record)
        self._records.append(record)
        return self._seq

    def append_reset(self, tenant: str) -> int:
        """A tenant reset is an attempt too (replay must repeat it)."""
        self._seq += 1
        record = {"type": "reset", "seq": self._seq, "tenant": tenant}
        self._writer.append(record)
        self._records.append(record)
        return self._seq

    def close(self) -> None:
        self._writer.close()


# ---------------------------------------------------------------------------
# Worker side (runs in the child process)
# ---------------------------------------------------------------------------


@dataclass
class ShardConfig:
    """Everything one worker needs, picklable across ``spawn``."""

    index: int
    module_text: str
    service: str
    provider: str
    notfound_codes: dict
    data_dir: str
    seed: int = 1
    snapshot_interval: int = 16
    fsync: bool = False
    #: Armed *after* recovery completes, so injected deaths always
    #: target serving, never the recovery replay itself.
    kill_schedule: dict | None = None


class _ShardWorker:
    """One shard's serving state inside its worker process.

    The serve loop is single-threaded (the supervisor serializes RPC
    per shard), so per-request work needs no locking here; the
    :class:`ConcurrentEmulator` wrap is still used for its MVCC
    publish/pin surface (torn-free snapshots, version accounting, and
    the ``mid-publish`` kill site).
    """

    def __init__(self, config: ShardConfig):
        self.config = config
        self.module = parse_module(
            config.module_text, service=config.service,
            provider=config.provider,
        )
        self.data_dir = Path(config.data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.log = ShardLog(self.data_dir / SHARD_WAL_NAME,
                            fsync=config.fsync)
        self._emulators: dict[str, ConcurrentEmulator] = {}
        self._writes_since_snapshot: dict[str, int] = {}
        self.requests = 0
        self.writes = 0
        self.recovery = self._recover()

    # -- construction ------------------------------------------------------

    def _fresh(self) -> Emulator:
        return Emulator(
            self.module, notfound_codes=self.config.notfound_codes,
            mvcc=True,
        )

    def _tenant(self, name: str) -> ConcurrentEmulator:
        concurrent = self._emulators.get(name)
        if concurrent is None:
            concurrent = ConcurrentEmulator(
                self._fresh(), tenant=name, log=None
            )
            self._emulators[name] = concurrent
        return concurrent

    # -- recovery ----------------------------------------------------------

    def _snapshot_path(self, tenant: str) -> Path:
        return self.data_dir / f"tenant-{_safe_name(tenant)}.snapshot.json"

    def _apply(self, concurrent: ConcurrentEmulator, record: dict) -> None:
        if record.get("type") == "reset":
            concurrent.reset()
        else:
            concurrent.invoke(record["api"], decode_value(record["params"]))

    def _recover(self) -> list[dict]:
        """Snapshot restore + attempt-log tail replay, then prove it.

        For every tenant seen in a snapshot file or the attempt log:
        restore the newest snapshot, replay attempts with
        ``seq > snapshot.shard_seq`` through the normal dispatch path
        (failures re-fail identically, burning the same IDs), then run
        the self-check — a full from-scratch replay of the tenant's
        attempts must produce a byte-identical registry.  The report
        rides to the supervisor in the hello message; a non-identical
        recovery is a linearizability failure.
        """
        records = self.log.records
        snapshots: dict[str, dict] = {}
        for path in sorted(self.data_dir.glob("tenant-*.snapshot.json")):
            try:
                payload = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            tenant = payload.get("tenant")
            if isinstance(tenant, str):
                snapshots[tenant] = payload
        tenants = sorted(
            set(snapshots) | {r["tenant"] for r in records}
        )
        reports = []
        for tenant in tenants:
            concurrent = self._tenant(tenant)
            payload = snapshots.get(tenant)
            snap_seq = 0
            if payload is not None:
                concurrent.restore(payload["snapshot"])
                snap_seq = int(payload.get("shard_seq", 0))
            replayed = 0
            for record in records:
                if record["tenant"] != tenant or record["seq"] <= snap_seq:
                    continue
                self._apply(concurrent, record)
                replayed += 1
            control = ConcurrentEmulator(
                self._fresh(), tenant=tenant, log=None
            )
            for record in records:
                if record["tenant"] == tenant:
                    self._apply(control, record)
            want = control.snapshot()
            got = concurrent.snapshot()
            identical = _canonical(want) == _canonical(got)
            reports.append({
                "tenant": tenant,
                "snapshot_seq": snap_seq,
                "replayed": replayed,
                "torn_dropped": self.log.dropped,
                "identical": identical,
                "diff": registry_diff(
                    {**want, "wal_seq": 0}, {**got, "wal_seq": 0}
                )[:5],
            })
        return reports

    # -- serving -----------------------------------------------------------

    def invoke(self, tenant: str, api: str, params: dict) -> ApiResponse:
        concurrent = self._tenant(tenant)
        self.requests += 1
        if concurrent.read_only(api):
            return concurrent.invoke(api, params)
        self.writes += 1
        self.log.append(tenant, api, params)
        response = concurrent.invoke(api, params)
        self._maybe_snapshot(tenant, concurrent)
        return response

    def reset(self, tenant: str) -> None:
        concurrent = self._tenant(tenant)
        self.log.append_reset(tenant)
        concurrent.reset()
        self._maybe_snapshot(tenant, concurrent)

    def _maybe_snapshot(self, tenant: str,
                        concurrent: ConcurrentEmulator,
                        force: bool = False) -> None:
        count = self._writes_since_snapshot.get(tenant, 0) + 1
        if not force and count < self.config.snapshot_interval:
            self._writes_since_snapshot[tenant] = count
            return
        self._writes_since_snapshot[tenant] = 0
        write_snapshot(self._snapshot_path(tenant), {
            "tenant": tenant,
            "shard": self.config.index,
            "shard_seq": self.log.seq,
            "snapshot": concurrent.snapshot(),
        })

    # -- introspection ops --------------------------------------------------

    def snapshot(self, tenant: str) -> dict:
        return self._tenant(tenant).snapshot()

    def admitted(self) -> list[dict]:
        return [
            {
                "type": record.get("type", "attempt"),
                "seq": record["seq"],
                "shard": self.config.index,
                "tenant": record["tenant"],
                "api": record.get("api", "_Reset"),
                "params": decode_value(record.get("params", {})),
            }
            for record in self.log.records
        ]

    def stats(self) -> dict:
        version_stats = [
            emulator.version_stats()
            for emulator in self._emulators.values()
        ]
        return {
            "shard": self.config.index,
            "pid": os.getpid(),
            "requests": self.requests,
            "writes": self.writes,
            "admitted": self.log.seq,
            "tenants": sorted(self._emulators),
            "version_stats": version_stats,
        }

    def shutdown(self) -> None:
        """Final snapshots for every tenant, then close the log."""
        for tenant, concurrent in self._emulators.items():
            self._maybe_snapshot(tenant, concurrent, force=True)
        self.log.close()


def _worker_main(config: ShardConfig, conn) -> None:
    """Child-process entry: recover, say hello, serve until told not to.

    An injected :class:`SimulatedCrash` anywhere in request handling
    exits immediately via ``os._exit`` — no reply, no flush, no
    cleanup — which is exactly the failure the supervisor must detect
    and repair.
    """
    try:
        worker = _ShardWorker(config)
    except Exception as error:  # startup is the one place we report
        try:
            conn.send({
                "type": "hello", "shard": config.index, "ok": False,
                "error": f"{type(error).__name__}: {error}",
            })
        except OSError:
            pass
        os._exit(1)
    conn.send({
        "type": "hello", "shard": config.index, "ok": True,
        "pid": os.getpid(), "recovery": worker.recovery,
        "torn_dropped": worker.log.dropped,
    })
    if config.kill_schedule:
        install_kill_switch(dict(config.kill_schedule))
    running = True
    while running:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break  # parent went away; die quietly
        mid = message.get("id")
        op = message.get("op")
        try:
            if op == "invoke":
                remaining = message.get("deadline_remaining")
                if remaining is not None and remaining <= 0:
                    # The budget died in transit: answer honestly
                    # before the WAL or the emulator spend any work.
                    expired = expired_response("shard")
                    reply = {
                        "id": mid, "ok": True, "success": False,
                        "data": encode_value(expired.data),
                        "error_code": expired.error_code,
                        "error_message": expired.error_message,
                    }
                else:
                    response = worker.invoke(
                        message["tenant"], message["api"],
                        dict(message.get("params") or {}),
                    )
                    reply = {
                        "id": mid, "ok": True,
                        "success": response.success,
                        "data": encode_value(response.data),
                        "error_code": response.error_code,
                        "error_message": response.error_message,
                    }
            elif op == "ping":
                reply = {"id": mid, "ok": True, "pid": os.getpid()}
            elif op == "snapshot":
                reply = {
                    "id": mid, "ok": True,
                    "snapshot": worker.snapshot(message["tenant"]),
                }
            elif op == "admitted":
                reply = {
                    "id": mid, "ok": True, "records": worker.admitted()
                }
            elif op == "stats":
                reply = {"id": mid, "ok": True, **worker.stats()}
            elif op == "recovery":
                reply = {
                    "id": mid, "ok": True, "recovery": worker.recovery
                }
            elif op == "reset":
                worker.reset(message["tenant"])
                reply = {"id": mid, "ok": True}
            elif op == "stall":
                # Test/ops aid: a slow-but-alive worker (heartbeats
                # must not false-positive kill it).
                time.sleep(float(message.get("seconds", 0.0)))
                reply = {"id": mid, "ok": True}
            elif op == "shutdown":
                worker.shutdown()
                reply = {"id": mid, "ok": True}
                running = False
            else:
                reply = {"id": mid, "ok": False,
                         "error": f"unknown op {op!r}"}
        except SimulatedCrash:
            os._exit(CRASH_EXIT_CODE)
        except Exception as error:  # app-level: worker survives
            reply = {
                "id": mid, "ok": False,
                "error": f"{type(error).__name__}: {error}",
            }
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    os._exit(0)


# ---------------------------------------------------------------------------
# Supervisor side (runs in the parent process)
# ---------------------------------------------------------------------------


class _ShardHandle:
    """The parent's view of one shard worker."""

    __slots__ = (
        "index", "process", "conn", "lock", "generation", "next_id",
        "misses", "restarts", "restarting", "recovery",
        "last_restart_seconds",
    )

    def __init__(self, index: int):
        self.index = index
        self.process = None
        self.conn = None
        #: Serializes RPC per shard *and* doubles as the liveness
        #: signal the heartbeat reads: held == a request is in flight,
        #: so the worker is busy, not dead.
        self.lock = threading.Lock()
        self.generation = 0
        self.next_id = 0
        self.misses = 0
        self.restarts = 0
        self.restarting = False
        self.recovery: list[dict] = []
        self.last_restart_seconds = 0.0


class ShardSupervisor:
    """Spawns, heartbeats, restarts and fronts N shard workers.

    The heartbeat loop is virtual-clock compatible: :meth:`tick` is a
    plain method tests drive deterministically (stamping events on the
    shared :class:`VirtualClock`), and ``heartbeat=True`` additionally
    runs it from a small wall-clock thread for live serving.  A shard
    whose RPC lock is busy is *alive by definition* (a request is in
    flight) — slow-but-alive workers are never false-positive killed;
    only a free-lock ping timeout counts as a miss, and only
    ``max_misses`` consecutive misses trigger a restart.

    ``kill_schedules`` maps shard index -> an ordered queue of
    kill-switch schedules; each (re)spawn of that shard arms the next
    entry, and an exhausted queue arms nothing — so a restart storm
    (the same shard killed k times in a row) converges to a clean
    worker.
    """

    def __init__(
        self,
        module,
        notfound_codes: dict | None = None,
        shards: int = 4,
        data_dir: "str | Path | None" = None,
        clock: VirtualClock | None = None,
        telemetry=None,
        seed: int = 1,
        snapshot_interval: int = 16,
        fsync: bool = False,
        kill_schedules: dict | None = None,
        retry_after: float = 0.25,
        rpc_timeout: float = 30.0,
        spawn_timeout: float = 60.0,
        heartbeat: bool = False,
        heartbeat_interval: float = 0.2,
        heartbeat_timeout: float = 1.0,
        max_misses: int = 3,
        auto_restart: bool = True,
    ):
        self.module_text = serialize_module(module)
        self.service = getattr(module, "service", "") or ""
        self.provider = getattr(module, "provider", "aws") or "aws"
        self.notfound_codes = dict(notfound_codes or {})
        self.clock = clock if clock is not None else VirtualClock()
        self.telemetry = telemetry
        self.seed = seed
        self.snapshot_interval = snapshot_interval
        self.fsync = fsync
        self.retry_after = retry_after
        self.rpc_timeout = rpc_timeout
        self.spawn_timeout = spawn_timeout
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.max_misses = max_misses
        self.auto_restart = auto_restart
        self._ctx = multiprocessing.get_context("spawn")
        if data_dir is None:
            data_dir = tempfile.mkdtemp(prefix="repro-shards-")
        self.data_dir = Path(data_dir)
        self._schedules: dict[int, list[dict]] = {
            int(index): list(queue)
            for index, queue in (kill_schedules or {}).items()
        }
        self._closed = False
        self._restart_threads: list[threading.Thread] = []
        self.restart_log: list[dict] = []
        #: Callables ``(shard_index, alive)`` notified on health flips
        #: — the holistic allocator subscribes here so a dead shard's
        #: budget is redistributed to survivors the moment the parent
        #: detects the death (and restored when the shard returns).
        self.health_listeners: list = []
        #: Recovery self-checks that failed byte-identity, across every
        #: generation of every shard (folded into linearizability).
        self.recovery_failures: list[str] = []
        self._handles = []
        for index in range(max(1, shards)):
            handle = _ShardHandle(index)
            process, conn, hello = self._launch(index, generation=0)
            handle.process = process
            handle.conn = conn
            self._adopt_hello(handle, hello)
            self._handles.append(handle)
        self._hb_stop: threading.Event | None = None
        self._hb_thread: threading.Thread | None = None
        if heartbeat:
            self.start_heartbeat()

    # -- spawning ----------------------------------------------------------

    @property
    def shards(self) -> int:
        return len(self._handles)

    def shard_for(self, tenant: str) -> int:
        return shard_for(tenant, self.shards)

    def _next_schedule(self, index: int) -> dict | None:
        queue = self._schedules.get(index)
        if queue:
            return queue.pop(0)
        return None

    def _launch(self, index: int, generation: int):
        config = ShardConfig(
            index=index,
            module_text=self.module_text,
            service=self.service,
            provider=self.provider,
            notfound_codes=self.notfound_codes,
            data_dir=str(self.data_dir / f"shard-{index}"),
            seed=self.seed + index,
            snapshot_interval=self.snapshot_interval,
            fsync=self.fsync,
            kill_schedule=self._next_schedule(index),
        )
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main, args=(config, child_conn),
            name=f"repro-shard-{index}-g{generation}", daemon=True,
        )
        process.start()
        child_conn.close()
        deadline = time.monotonic() + self.spawn_timeout
        while not parent_conn.poll(0.05):
            if time.monotonic() > deadline or not process.is_alive():
                process.terminate()
                raise RuntimeError(
                    f"shard {index} failed to start "
                    f"(generation {generation})"
                )
        hello = parent_conn.recv()
        if not hello.get("ok", False):
            process.join(timeout=5)
            raise RuntimeError(
                f"shard {index} failed during recovery: "
                f"{hello.get('error', 'unknown error')}"
            )
        return process, parent_conn, hello

    def _adopt_hello(self, handle: _ShardHandle, hello: dict) -> None:
        handle.recovery = list(hello.get("recovery", []))
        for report in handle.recovery:
            if not report.get("identical", True):
                detail = "; ".join(report.get("diff", [])[:3])
                self.recovery_failures.append(
                    f"shard {handle.index} generation "
                    f"{handle.generation} tenant {report['tenant']}: "
                    f"recovered registry diverges from full replay"
                    + (f" ({detail})" if detail else "")
                )

    # -- RPC ---------------------------------------------------------------

    def request(self, index: int, payload: dict,
                timeout: float | None = None) -> dict | None:
        """One correlation-id RPC to a shard; ``None`` == unavailable.

        Fails fast when the worker process is dead (a final drain poll
        catches a reply that was already in the pipe) and discards
        stale replies left over from a previously timed-out request.
        """
        handle = self._handles[index]
        timeout = self.rpc_timeout if timeout is None else timeout
        with handle.lock:
            if not handle.process.is_alive():
                self._note_down(handle)
                return None
            handle.next_id += 1
            mid = handle.next_id
            try:
                handle.conn.send({**payload, "id": mid})
            except (BrokenPipeError, OSError):
                self._note_down(handle)
                return None
            deadline = time.monotonic() + timeout
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None  # stuck worker: heartbeats decide
                try:
                    ready = handle.conn.poll(min(0.05, remaining))
                except (BrokenPipeError, OSError):
                    self._note_down(handle)
                    return None
                if ready:
                    try:
                        reply = handle.conn.recv()
                    except (EOFError, OSError):
                        self._note_down(handle)
                        return None
                    if reply.get("id") == mid:
                        return reply
                    continue  # stale reply: drop, keep waiting
                if not handle.process.is_alive():
                    # One last drain: the reply may have raced death.
                    if handle.conn.poll(0):
                        continue
                    self._note_down(handle)
                    return None

    def _note_down(self, handle: _ShardHandle) -> None:
        """Record a dead shard; kick an async restart (caller holds
        the handle lock, so the restart thread proceeds only after the
        failed request returns)."""
        if self.telemetry is not None:
            self.telemetry.event(
                "shard.down", shard=handle.index,
                generation=handle.generation,
                at=round(self.clock.now(), 9),
            )
        self._notify_health(handle.index, alive=False)
        if self._closed or not self.auto_restart or handle.restarting:
            return
        handle.restarting = True
        thread = threading.Thread(
            target=self._restart, args=(handle, handle.generation),
            name=f"repro-shard-restart-{handle.index}", daemon=True,
        )
        self._restart_threads.append(thread)
        thread.start()

    # -- restart -----------------------------------------------------------

    def _restart(self, handle: _ShardHandle,
                 expected_generation: int) -> bool:
        """Replace a dead (or stuck) worker with a freshly recovered one.

        Generation-checked so racing detectors (request threads, the
        heartbeat loop) restart a shard exactly once.
        """
        try:
            with handle.lock:
                if self._closed:
                    return False
                if handle.generation != expected_generation:
                    return False  # someone else already restarted it
                started = time.perf_counter()
                if handle.process.is_alive():
                    handle.process.terminate()
                handle.process.join(timeout=10)
                try:
                    handle.conn.close()
                except OSError:
                    pass
                generation = handle.generation + 1
                process, conn, hello = self._launch(
                    handle.index, generation
                )
                handle.process = process
                handle.conn = conn
                handle.generation = generation
                handle.misses = 0
                handle.restarts += 1
                self._adopt_hello(handle, hello)
                seconds = time.perf_counter() - started
                handle.last_restart_seconds = seconds
                replayed = sum(
                    report.get("replayed", 0)
                    for report in handle.recovery
                )
        finally:
            handle.restarting = False
        self.restart_log.append({
            "shard": handle.index,
            "generation": handle.generation,
            "recovery_seconds": round(seconds, 6),
            "replayed": replayed,
            "at": round(self.clock.now(), 9),
        })
        self._export_restart(handle, seconds, replayed)
        self._notify_health(handle.index, alive=True)
        return True

    def _notify_health(self, index: int, alive: bool) -> None:
        for listener in list(self.health_listeners):
            try:
                listener(index, alive)
            except Exception:
                pass  # a broken listener must never sink the parent

    def _export_restart(self, handle: _ShardHandle, seconds: float,
                        replayed: int) -> None:
        telemetry = self.telemetry
        if telemetry is None:
            return
        now = self.clock.now()
        shard = str(handle.index)
        telemetry.metrics.counter("shard.restarts", shard=shard).inc()
        telemetry.event(
            "shard.restart", shard=handle.index,
            generation=handle.generation,
            recovery_seconds=round(seconds, 6), replayed=replayed,
            at=round(now, 9),
        )
        with telemetry.span(
            "shard.restart", kind="shard", shard=shard
        ) as span:
            span.set("generation", handle.generation)
            span.set("recovery_seconds", round(seconds, 6))
            span.set("replayed", replayed)
        obs = getattr(telemetry, "obs", None)
        if obs is not None:
            obs.store.histogram(
                "shard.restart_seconds", shard=shard
            ).record(now, seconds)

    def kill(self, index: int) -> None:
        """Hard-kill one worker (SIGKILL) — the bench/test fault lever.

        Deliberately does *not* restart: detection and repair are the
        supervisor loop's job, which is what's under test.
        """
        handle = self._handles[index]
        process = handle.process
        if process.is_alive():
            process.kill()
        process.join(timeout=10)

    def restart(self, index: int) -> bool:
        """Explicitly restart one shard (even a healthy one)."""
        handle = self._handles[index]
        return self._restart(handle, handle.generation)

    # -- heartbeat ---------------------------------------------------------

    def tick(self) -> dict:
        """One heartbeat pass over every shard; returns what it saw.

        Deterministically drivable from tests (no background thread
        required); all event timestamps come from the shared clock, so
        virtual-clock runs stay reproducible.
        """
        seen = {"alive": 0, "busy": 0, "missed": 0, "restarted": 0}
        for handle in self._handles:
            if not handle.process.is_alive():
                if self.auto_restart and not handle.restarting:
                    if self._restart(handle, handle.generation):
                        seen["restarted"] += 1
                continue
            if not handle.lock.acquire(blocking=False):
                # A request is in flight: the worker is busy, therefore
                # alive.  Never count a miss against a working shard.
                handle.misses = 0
                seen["busy"] += 1
                continue
            try:
                ok = self._ping_locked(handle)
            finally:
                handle.lock.release()
            if ok:
                handle.misses = 0
                seen["alive"] += 1
                continue
            handle.misses += 1
            seen["missed"] += 1
            self._export_miss(handle)
            if handle.misses >= self.max_misses:
                # Stuck-but-running worker: treat as dead.
                handle.process.terminate()
                if self.auto_restart:
                    if self._restart(handle, handle.generation):
                        seen["restarted"] += 1
        return seen

    def _ping_locked(self, handle: _ShardHandle) -> bool:
        handle.next_id += 1
        mid = handle.next_id
        try:
            handle.conn.send({"op": "ping", "id": mid})
        except (BrokenPipeError, OSError):
            return False
        deadline = time.monotonic() + self.heartbeat_timeout
        while time.monotonic() < deadline:
            try:
                if not handle.conn.poll(0.02):
                    if not handle.process.is_alive():
                        return False
                    continue
                reply = handle.conn.recv()
            except (EOFError, BrokenPipeError, OSError):
                return False
            if reply.get("id") == mid:
                return True
        return False

    def _export_miss(self, handle: _ShardHandle) -> None:
        telemetry = self.telemetry
        if telemetry is None:
            return
        now = self.clock.now()
        shard = str(handle.index)
        telemetry.metrics.counter(
            "shard.heartbeat_misses", shard=shard
        ).inc()
        telemetry.event(
            "shard.heartbeat_miss", shard=handle.index,
            misses=handle.misses, at=round(now, 9),
        )
        obs = getattr(telemetry, "obs", None)
        if obs is not None:
            obs.store.histogram(
                "shard.heartbeat_miss", shard=shard
            ).record(now, float(handle.misses))

    def start_heartbeat(self) -> None:
        """Run :meth:`tick` from a small wall-clock thread."""
        if self._hb_thread is not None:
            return
        self._hb_stop = threading.Event()

        def _loop():
            while not self._hb_stop.wait(self.heartbeat_interval):
                try:
                    self.tick()
                except Exception:
                    if self._closed:
                        return

        self._hb_thread = threading.Thread(
            target=_loop, name="repro-shard-heartbeat", daemon=True
        )
        self._hb_thread.start()

    # -- merged views ------------------------------------------------------

    def admitted_records(self) -> list[dict]:
        """Every shard's attempt log, merged (ordered by shard, seq).

        Per-tenant order is total — a tenant lives on exactly one
        shard — which is what the linearizability replay needs.
        Unreachable shards contribute nothing (their verifier check
        fails separately on the snapshot fetch).
        """
        merged: list[dict] = []
        for handle in self._handles:
            reply = self.request(handle.index, {"op": "admitted"})
            if reply is not None and reply.get("ok"):
                merged.extend(reply["records"])
        return merged

    def shard_stats(self) -> list[dict]:
        stats = []
        for handle in self._handles:
            reply = self.request(handle.index, {"op": "stats"})
            if reply is not None and reply.get("ok"):
                stats.append(reply)
        return stats

    def snapshot(self, index: int, tenant: str) -> dict | None:
        reply = self.request(
            index, {"op": "snapshot", "tenant": tenant}
        )
        if reply is None or not reply.get("ok"):
            return None
        return reply["snapshot"]

    def recovery_reports(self) -> dict[int, list[dict]]:
        """Current-generation recovery self-checks, per shard."""
        return {
            handle.index: list(handle.recovery)
            for handle in self._handles
        }

    @property
    def restarts(self) -> int:
        return sum(handle.restarts for handle in self._handles)

    def generation(self, index: int) -> int:
        return self._handles[index].generation

    def alive(self, index: int) -> bool:
        return self._handles[index].process.is_alive()

    def merge_metrics(self) -> None:
        """Fold worker-side counters into the parent's metric registry
        as shard-labelled series (``repro report`` / ``repro top``)."""
        telemetry = self.telemetry
        if telemetry is None:
            return
        for stats in self.shard_stats():
            shard = str(stats["shard"])
            telemetry.metrics.gauge(
                "shard.requests", shard=shard
            ).set(stats["requests"])
            telemetry.metrics.gauge(
                "shard.admitted", shard=shard
            ).set(stats["admitted"])
            publishes = sum(
                vs.get("publishes", 0)
                for vs in stats["version_stats"]
            )
            telemetry.metrics.gauge(
                "serve.version_publishes", shard=shard
            ).set(publishes)

    # -- shutdown ----------------------------------------------------------

    def close(self) -> None:
        """Graceful shutdown: stop restarts, drain in-flight requests
        (the per-shard lock serializes behind them), flush final
        snapshots, and reap every worker."""
        self._closed = True
        if self._hb_stop is not None:
            self._hb_stop.set()
        if self._hb_thread is not None:
            self._hb_thread.join(timeout=5)
            self._hb_thread = None
        for thread in self._restart_threads:
            thread.join(timeout=10)
        for handle in self._handles:
            with handle.lock:  # waits for the in-flight request
                if handle.process.is_alive():
                    handle.next_id += 1
                    mid = handle.next_id
                    try:
                        handle.conn.send({"op": "shutdown", "id": mid})
                        deadline = time.monotonic() + self.rpc_timeout
                        while time.monotonic() < deadline:
                            if handle.conn.poll(0.05):
                                reply = handle.conn.recv()
                                if reply.get("id") == mid:
                                    break
                            elif not handle.process.is_alive():
                                break
                    except (BrokenPipeError, EOFError, OSError):
                        pass
                try:
                    handle.conn.close()
                except OSError:
                    pass
            handle.process.join(timeout=10)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5)

    def __enter__(self) -> "ShardSupervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Front-door integration
# ---------------------------------------------------------------------------


class _ShardBackend:
    """One tenant's RPC stub to its owning shard worker.

    Looks like a :class:`ConcurrentEmulator` to the serving stack
    (classification, reset, snapshot) but dispatches over the
    supervisor's pipe RPC.  When the shard is down, every call sheds
    with ``ServiceUnavailable`` + a Retry-After hint and a
    ``ShardUnavailable`` marker, which rides inside the error envelope
    the way admission throttle metadata does — clients back off for
    the failover window, then succeed against the restarted worker.
    """

    def __init__(self, supervisor: ShardSupervisor, tenant: str, probe):
        self.supervisor = supervisor
        self.tenant = tenant
        self.shard = supervisor.shard_for(tenant)
        self._probe = probe  # local emulator, classification only
        self.mvcc = False    # versions live worker-side
        self.log = None

    # -- classification (local, no RPC) ------------------------------------

    def api_names(self) -> list[str]:
        return self._probe.api_names()

    def supports(self, api: str) -> bool:
        return self._probe.supports(api)

    def read_only(self, api: str) -> bool:
        return self._probe.read_only(api)

    # -- remote dispatch ----------------------------------------------------

    def invoke(self, api: str, params: dict | None = None) -> ApiResponse:
        payload = {
            "op": "invoke", "tenant": self.tenant, "api": api,
            "params": dict(params or {}),
        }
        meta = current_meta()
        if meta is not None and meta.deadline is not None:
            # The deadline crosses the RPC hop as *remaining budget* —
            # the worker has no shared clock, only what the parent
            # measures at send time.
            remaining = meta.remaining(self.supervisor.clock.now())
            if remaining is not None and remaining <= 0:
                telemetry = self.supervisor.telemetry
                if telemetry is not None:
                    telemetry.metrics.counter(
                        "allocation.deadline_expired",
                        tenant=self.tenant, stage="shard",
                    ).inc()
                return expired_response("shard")
            payload["deadline_remaining"] = remaining
        reply = self.supervisor.request(self.shard, payload)
        if reply is None:
            return self._unavailable()
        if not reply.get("ok"):
            return ApiResponse.fail(
                "InternalError", reply.get("error", "shard worker error")
            )
        return ApiResponse(
            success=reply["success"],
            data=decode_value(reply["data"]),
            error_code=reply.get("error_code", ""),
            error_message=reply.get("error_message", ""),
        )

    def _unavailable(self) -> ApiResponse:
        retry_after = self.supervisor.retry_after
        return ApiResponse(
            success=False,
            data={
                "RetryAfterSeconds": retry_after,
                "ShardUnavailable": True,
                "Shard": self.shard,
            },
            error_code="ServiceUnavailable",
            error_message=(
                f"shard {self.shard} is restarting; "
                f"retry in {retry_after}s"
            ),
        )

    def reset(self) -> None:
        self.supervisor.request(
            self.shard, {"op": "reset", "tenant": self.tenant}
        )

    def snapshot(self) -> dict:
        snapshot = self.supervisor.snapshot(self.shard, self.tenant)
        if snapshot is None:
            raise RuntimeError(
                f"shard {self.shard} unavailable for snapshot of "
                f"tenant {self.tenant!r}"
            )
        return snapshot


class ShardTenantRouter(TenantRouter):
    """A :class:`TenantRouter` whose tenants dispatch to shard workers.

    Keeps the resolution/auth/guard surface of the base router; only
    ``_make_tenant`` changes — the backend is an RPC stub placed by
    the stable tenant -> shard hash instead of an in-process
    :class:`ConcurrentEmulator`.
    """

    def __init__(self, supervisor: ShardSupervisor, probe, **kwargs):
        super().__init__(emulator_factory=None, **kwargs)
        self.supervisor = supervisor
        self.probe = probe

    def _make_tenant(self, name: str) -> Tenant:
        backend = _ShardBackend(self.supervisor, name, self.probe)
        guarded = (
            backend if self.guard is None else self.guard(name, backend)
        )
        endpoint = JsonEndpoint(
            backend=guarded,
            seed=self.seed + len(self._tenants),
            telemetry=self.telemetry,
        )
        return Tenant(
            name=name, emulator=backend, backend=guarded,
            endpoint=endpoint,
        )


class ShardedFrontDoor(FrontDoor):
    """The front door, fanned out over shard worker processes.

    The envelope/auth/validation/admission layers are unchanged; the
    per-tenant backend routes to the owning shard over RPC.  Supplies
    its own :meth:`verify_linearizable` (merged per-shard attempt logs,
    replayed serially, compared byte-for-byte against RPC-fetched
    shard snapshots — with recovery self-check failures folded in) and
    :meth:`mvcc_stats` (worker version accounting, merged);
    :class:`~repro.serve.loadgen.LoadGenerator` picks both up
    automatically.
    """

    def __init__(
        self,
        module,
        emulator_factory,
        shards: int = 4,
        data_dir: "str | Path | None" = None,
        kill_schedules: dict | None = None,
        notfound_codes: dict | None = None,
        snapshot_interval: int = 16,
        fsync: bool = False,
        retry_after: float = 0.25,
        rpc_timeout: float = 30.0,
        heartbeat: bool = False,
        heartbeat_interval: float = 0.2,
        heartbeat_timeout: float = 1.0,
        max_misses: int = 3,
        auto_restart: bool = True,
        **kwargs,
    ):
        if kwargs.get("network") is not None:
            raise ConfigError(
                "ShardedFrontDoor does not compose with netem region "
                "routing (network=) yet: shard placement (tenant -> "
                "worker process) and region placement (resource -> "
                "region replica) are separate maps with no "
                "cross-product routing — a request would need a "
                "(shard, region) pair the RPC layer cannot address.  "
                "Track ROADMAP item 1 (shard x region placement); "
                "until then run the network on a single-process "
                "FrontDoor."
            )
        super().__init__(module, emulator_factory, **kwargs)
        probe = emulator_factory()
        if notfound_codes is None:
            notfound_codes = dict(getattr(probe, "notfound_codes", {}))
        base = self.router
        self.supervisor = ShardSupervisor(
            module,
            notfound_codes=notfound_codes,
            shards=shards,
            data_dir=data_dir,
            clock=self.clock,
            telemetry=self.telemetry,
            seed=base.seed,
            snapshot_interval=snapshot_interval,
            fsync=fsync,
            kill_schedules=kill_schedules,
            retry_after=retry_after,
            rpc_timeout=rpc_timeout,
            heartbeat=heartbeat,
            heartbeat_interval=heartbeat_interval,
            heartbeat_timeout=heartbeat_timeout,
            max_misses=max_misses,
            auto_restart=auto_restart,
        )
        self.router = ShardTenantRouter(
            supervisor=self.supervisor,
            probe=probe,
            max_tenants=base.max_tenants,
            require_key=base.require_key,
            guard=lambda name, backend: _GuardedBackend(
                self, name, backend
            ),
            telemetry=self.telemetry,
            seed=base.seed,
        )
        if self.allocator is not None:
            # Shard-health-aware fairness: the allocator learns the
            # placement map and follows every health flip, so a dead
            # shard's budget flows to tenants on surviving shards.
            self.allocator.bind_shards(
                self.supervisor.shard_for, self.supervisor.shards
            )
            self.supervisor.health_listeners.append(
                self.allocator.set_shard_health
            )

    # -- merged wire surface -----------------------------------------------

    @property
    def admitted(self) -> "_MergedAdmitted":
        return _MergedAdmitted(self.supervisor)

    def verify_linearizable(self) -> tuple[bool, list[str]]:
        """The extended check: merged per-shard attempt logs, replayed
        serially per tenant, must reproduce each shard's live registry
        byte-for-byte — and every worker recovery (every generation)
        must have passed its byte-identity self-check."""
        mismatches = list(self.supervisor.recovery_failures)
        records = self.supervisor.admitted_records()
        by_tenant: dict[str, list[dict]] = {}
        for record in records:
            by_tenant.setdefault(record["tenant"], []).append(record)
        for tenant in sorted(by_tenant):
            replica = self.emulator_factory()
            for record in sorted(
                by_tenant[tenant], key=lambda r: r["seq"]
            ):
                if record["type"] == "reset":
                    replica.reset()
                else:
                    replica.invoke(record["api"], record["params"])
            shard = self.supervisor.shard_for(tenant)
            live = self.supervisor.snapshot(shard, tenant)
            if live is None:
                mismatches.append(
                    f"tenant {tenant}: shard {shard} unavailable for "
                    "the linearizability snapshot"
                )
                continue
            if _canonical(replica.snapshot()) != _canonical(live):
                mismatches.append(
                    f"tenant {tenant}: serial replay of the merged "
                    f"shard-{shard} attempt log diverges from the "
                    "worker's live registry"
                )
        self.supervisor.merge_metrics()
        return (not mismatches), mismatches

    def mvcc_stats(self) -> dict:
        """Worker-side version accounting, merged across shards.

        Counts cover the *current* generation of each worker (a
        restarted shard's chain starts fresh — its durable state is
        what recovery proves, not its version counters).
        """
        merged = {
            "tenants": 0,
            "mvcc_tenants": 0,
            "publishes": 0,
            "publish_copied": 0,
            "reclaimed": 0,
            "versions_live": 0,
            "pinned_reads": 0,
            "read_lock_acquisitions": 0,
            "write_lock_acquisitions": 0,
            "shards": self.supervisor.shards,
            "restarts": self.supervisor.restarts,
        }
        for stats in self.supervisor.shard_stats():
            for per_tenant in stats["version_stats"]:
                merged["tenants"] += 1
                if per_tenant.get("mvcc"):
                    merged["mvcc_tenants"] += 1
                    for key in ("publishes", "publish_copied", "reclaimed",
                                "versions_live", "pinned_reads"):
                        merged[key] += per_tenant.get(key, 0)
                for key in ("read_lock_acquisitions",
                            "write_lock_acquisitions"):
                    merged[key] += per_tenant.get(key, 0)
        return merged

    def close(self) -> None:
        self.supervisor.close()

    def __enter__(self) -> "ShardedFrontDoor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _MergedAdmitted:
    """A read-only merged view over every shard's attempt log, shaped
    like :class:`~repro.serve.concurrency.AdmittedLog` where the CLI
    and load generator need it (length, records, JSONL dump)."""

    def __init__(self, supervisor: ShardSupervisor):
        self.supervisor = supervisor

    @property
    def records(self) -> list[dict]:
        return self.supervisor.admitted_records()

    def per_tenant(self, tenant: str) -> list[dict]:
        return [r for r in self.records if r["tenant"] == tenant]

    def __len__(self) -> int:
        return len(self.records)

    def dump_jsonl(self, path: "str | Path") -> Path:
        target = Path(path)
        with open(target, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return target


# ---------------------------------------------------------------------------
# Kill-schedule parsing (CLI / CI)
# ---------------------------------------------------------------------------


def parse_kill_schedule(text: str) -> dict[int, list[dict]]:
    """Parse ``shard:site:hit[,shard:site:hit...]`` into per-shard
    schedule queues.

    Repeated entries for the same shard queue up in order: each
    (re)spawn of that shard arms the next one, so
    ``"0:mid-publish:3,0:mid-serve-wal-append:2"`` kills shard 0's
    first generation at its 3rd publish and its second generation at
    its 2nd WAL append — and the third generation runs clean.
    """
    schedules: dict[int, list[dict]] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 3:
            raise ValueError(
                f"bad kill-schedule entry {chunk!r}; "
                "expected shard:site:hit"
            )
        shard_text, site, hit_text = parts
        try:
            shard = int(shard_text)
            hit = int(hit_text)
        except ValueError:
            raise ValueError(
                f"bad kill-schedule entry {chunk!r}; shard and hit "
                "must be integers"
            ) from None
        if site not in KILL_SITES:
            raise ValueError(
                f"unknown kill site {site!r}; "
                f"expected one of {list(KILL_SITES)}"
            )
        if shard < 0 or hit < 1:
            raise ValueError(
                f"bad kill-schedule entry {chunk!r}; shard must be "
                ">= 0 and hit >= 1"
            )
        schedules.setdefault(shard, []).append({site: hit})
    return schedules
