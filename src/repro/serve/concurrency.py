"""Thread-safe concurrent dispatch over one emulator.

:class:`ConcurrentEmulator` lets N worker threads issue mixed
read/write traffic against a single :class:`~repro.interpreter.Emulator`
without corrupting the registry, the WAL ordering or the ID allocator.
It runs in one of two modes, chosen at construction:

**MVCC (default).**  When the inner emulator supports versioned reads
(``Emulator(mvcc=True)``, which is the default), reads never take a
lock at all: each read pins the newest published
:class:`~repro.interpreter.machine.RegistryVersion` — an immutable,
structurally shared snapshot of the registry — and dispatches against
it via :meth:`Emulator.invoke_at`, including through the compiled pure
route.  Writes serialize under a small writer mutex: dispatch, WAL
append, admitted-log append, then an atomic publish of the new version
into the :class:`~repro.serve.mvcc.VersionChain`, which also runs
epoch-based reclamation of superseded versions (a retired version is
dropped once no reader pins it or anything older).  A writer therefore
never stalls a reader and a reader never delays a writer; read
throughput scales with cores until the GIL, not until the lock.

**RW-lock fallback.**  With ``Emulator(mvcc=False)`` — or an inner
backend that lacks the versioned-read surface — reads share a
:class:`~repro.serve.locks.RWLock` and writes take its exclusive side,
exactly the pre-MVCC behaviour.

In both modes:

- mutating APIs are a total order (writer mutex or exclusive lock);
- every write *attempt* that reaches the interpreter is appended to
  the :class:`AdmittedLog` while writers are still excluded, so the
  log's per-tenant order is exactly the commit order.  Failed
  attempts are logged too: a failed create still burns a deterministic
  ID, so serial replay must repeat the failure to reproduce the
  allocator state byte-for-byte.

The wrapper sits at the *bottom* of the backend stack, directly around
the emulator.  Chaos and resilience proxies belong outside it: their
injected faults fire before any pin or lock and are therefore never
logged as admitted work — which is exactly right, because an injected
throttle mutates nothing.

Linearizability falls out: replaying one tenant's admitted log
serially against a fresh emulator of the same module reproduces the
concurrent run's final registry exactly (see
:func:`repro.serve.loadgen.verify_linearizable`) — and under MVCC each
read additionally observed exactly one published version, recorded on
its trace as ``registry.version``.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from time import perf_counter

from ..durability.snapshot import snapshot_version
from ..interpreter.errors import ApiResponse
from ..obs.tracectx import current_request
from ..resilience.chaos import kill_point
from .locks import RWLock
from .mvcc import ReaderSlots, VersionChain


class AdmittedLog:
    """The serially-ordered record of write attempts the serve path
    admitted — one entry per attempt, in commit order per tenant."""

    def __init__(self):
        self._records: list[dict] = []
        self._lock = threading.Lock()

    def append(self, tenant: str, api: str, params: dict,
               success: bool) -> int:
        with self._lock:
            seq = len(self._records) + 1
            self._records.append({
                "seq": seq,
                "tenant": tenant,
                "api": api,
                "params": dict(params or {}),
                "success": success,
            })
        return seq

    @property
    def records(self) -> list[dict]:
        with self._lock:
            return list(self._records)

    def per_tenant(self, tenant: str) -> list[dict]:
        return [r for r in self.records if r["tenant"] == tenant]

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def dump_jsonl(self, path: "str | Path") -> Path:
        """Write the log as JSONL (the CI stress job's artifact)."""
        target = Path(path)
        with open(target, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return target


class ConcurrentEmulator:
    """An emulator wrapper that makes ``invoke`` thread-safe.

    ``inner`` must expose the emulator classification surface
    (``read_only``); in practice it is an
    :class:`~repro.interpreter.Emulator`.

    ``mvcc`` defaults to auto-detection: lock-free versioned reads are
    used exactly when the inner backend opts in (``inner.mvcc``) *and*
    exposes the versioned dispatch surface (``invoke_at`` /
    ``publish_version``); anything else — including modeled-latency
    bench wrappers that only forward ``invoke`` — falls back to the
    RW lock.  Pass ``mvcc=False`` to force the fallback.
    """

    def __init__(self, inner, tenant: str = "default",
                 log: AdmittedLog | None = None,
                 lock: RWLock | None = None,
                 mvcc: bool | None = None,
                 telemetry=None):
        if not hasattr(inner, "read_only"):
            raise TypeError(
                "ConcurrentEmulator wraps the emulator itself "
                f"(chaos/resilience proxies go outside it), got "
                f"{type(inner).__name__}"
            )
        self.inner = inner
        self.tenant = tenant
        self.log = log
        self.lock = lock or RWLock()
        self.telemetry = telemetry
        if mvcc is None:
            mvcc = bool(getattr(inner, "mvcc", False)) and hasattr(
                inner, "invoke_at"
            )
        elif mvcc and not hasattr(inner, "invoke_at"):
            raise TypeError(
                f"mvcc=True requires a versioned-read backend; "
                f"{type(inner).__name__} has no invoke_at"
            )
        self.mvcc = bool(mvcc)
        if self.mvcc:
            #: Serializes mutating dispatch and version publish.  Much
            #: smaller than the RW lock: readers never touch it, so it
            #: is only ever contended writer-vs-writer.
            self._writer = threading.Lock()
            self._slots = ReaderSlots()
            self._chain = VersionChain(inner.publish_version(),
                                       self._slots)
            #: Entries (and chunk pointers) copied by every publish
            #: after the first: the O(touched) publish cost as a count.
            self._publish_copied = 0
        else:
            self._writer = None
            self._slots = None
            self._chain = None

    # -- delegated surface ---------------------------------------------------

    def api_names(self) -> list[str]:
        return self.inner.api_names()

    def supports(self, api: str) -> bool:
        return self.inner.supports(api)

    def read_only(self, api: str) -> bool:
        return self.inner.read_only(api)

    @property
    def registry(self):
        return self.inner.registry

    def reset(self) -> None:
        if self.mvcc:
            with self._writer:
                self.inner.reset()
                if self.log is not None:
                    self.log.append(self.tenant, "_Reset", {}, True)
                self._publish()
            return
        with self.lock.write():
            self.inner.reset()
            if self.log is not None:
                self.log.append(self.tenant, "_Reset", {}, True)

    def snapshot(self) -> dict:
        """A registry snapshot that is never torn.

        Under MVCC this pins the newest published version and dumps it
        without any locking — writers keep publishing while the dump
        runs, and the result is byte-identical to what a stop-the-world
        snapshot at publish time would have produced.  The fallback
        takes the shared lock (readers run concurrently, writers are
        excluded)."""
        if self.mvcc:
            slot = self._slots.slot()
            version = self._chain.pin(slot)
            try:
                return snapshot_version(version)
            finally:
                slot.pinned = None
                slot.reads += 1
        with self.lock.read():
            return self.inner.snapshot()

    def restore(self, snapshot: dict) -> None:
        """Restore a snapshot as a *new* published version.

        Readers pinned to older versions keep reading them untouched
        (the emulator swaps the registry wholesale; see
        :meth:`Emulator.restore`), and every read started after this
        returns observes the restored state."""
        if self.mvcc:
            with self._writer:
                self.inner.restore(snapshot)
                self._publish()
            return
        with self.lock.write():
            self.inner.restore(snapshot)

    def recover(self, snapshot: dict,
                records: list[dict] | None = None) -> int:
        """Snapshot restore + WAL tail replay, published atomically:
        readers observe either the pre-recovery version or the fully
        recovered one, never a mid-replay state."""
        if self.mvcc:
            with self._writer:
                replayed = self.inner.recover(snapshot, records)
                self._publish()
            return replayed
        with self.lock.write():
            return self.inner.recover(snapshot, records)

    def place(self, instance_id: str, region: str) -> None:
        """Record a region placement and republish, so replica
        snapshots taken right after a regional write already carry the
        placement (the netem front door calls this instead of poking
        ``registry.place`` directly)."""
        if self.mvcc:
            with self._writer:
                self.inner.registry.place(instance_id, region)
                self._publish()
            return
        with self.lock.write():
            self.inner.registry.place(instance_id, region)

    # -- dispatch --------------------------------------------------------------

    def invoke(self, api: str, params: dict | None = None) -> ApiResponse:
        ctx = current_request()
        if self.inner.read_only(api):
            if self.mvcc:
                # Lock-free read: pin the newest published version
                # (two atomic attribute operations) and dispatch
                # against it.  No mutex, no condition variable, no
                # contention with writers — and zero lock_wait_s.
                slot = self._slots.slot()
                version = self._chain.pin(slot)
                try:
                    response = self.inner.invoke_at(version, api, params)
                finally:
                    slot.pinned = None
                    slot.reads += 1
                if ctx is not None:
                    ctx.registry_version = version.version
                return response
            waited = perf_counter() if ctx is not None else 0.0
            with self.lock.read():
                if ctx is not None:
                    ctx.lock_wait_s += perf_counter() - waited
                return self.inner.invoke(api, params)
        waited = perf_counter() if ctx is not None else 0.0
        if self.mvcc:
            with self._writer:
                if ctx is not None:
                    ctx.lock_wait_s += perf_counter() - waited
                response = self.inner.invoke(api, params)
                if self.log is not None:
                    self.log.append(
                        self.tenant, api, params or {}, response.success
                    )
                version = self._publish()
            if ctx is not None:
                ctx.registry_version = version.version
            return response
        with self.lock.write():
            if ctx is not None:
                ctx.lock_wait_s += perf_counter() - waited
            response = self.inner.invoke(api, params)
            if self.log is not None:
                self.log.append(
                    self.tenant, api, params or {}, response.success
                )
            return response

    def _publish(self):
        """Publish the post-write registry state into the version
        chain.  Caller holds the writer mutex.

        ``mid-publish`` is a kill site: a shard worker dying here has
        committed the write but never published its version — recovery
        must replay the logged attempt and converge on the same
        registry anyway."""
        kill_point("mid-publish")
        version = self.inner.publish_version()
        swung = version is not self._chain.current
        freed = self._chain.publish(version)
        if swung:
            self._publish_copied += version.copied
        telemetry = self.telemetry
        if telemetry is not None:
            if freed:
                telemetry.metrics.counter("serve.reclaimed").inc(freed)
            # A failed write leaves the registry untouched: the cached
            # publish returns the same version object and the chain
            # no-ops — don't count (or trace) a publish that didn't
            # happen.
            if swung:
                telemetry.metrics.counter("serve.version_publishes").inc()
                telemetry.metrics.counter("serve.publish_copied").inc(
                    version.copied
                )
                telemetry.metrics.gauge("serve.versions_live").set(
                    self._chain.live
                )
                with telemetry.span(
                    "serve.publish", kind="serve", tenant=self.tenant
                ) as span:
                    span.set("registry.version", version.version)
                    span.set("reclaimed", freed)
                    span.set("copied", version.copied)
                    span.set("versions_live", self._chain.live)
        return version

    def version_stats(self) -> dict:
        """Version-churn and lock accounting for this tenant.

        ``read_lock_acquisitions`` is the lock-free proof: under MVCC
        it must stay exactly zero (reads never touch the RW lock), and
        the benches and CI assert it does.  ``publish_copied`` is the
        publish cost as a count: the entries and chunk pointers every
        publish after the first copied (see
        :func:`~repro.interpreter.versionmap.derive`)."""
        stats = {
            "mvcc": self.mvcc,
            "read_lock_acquisitions": self.lock.read_acquisitions,
            "write_lock_acquisitions": self.lock.write_acquisitions,
        }
        if self.mvcc:
            stats.update(
                publishes=self._chain.publishes,
                publish_copied=self._publish_copied,
                reclaimed=self._chain.reclaimed,
                versions_live=self._chain.live,
                pinned_reads=self._slots.reads(),
                reader_threads=len(self._slots),
            )
        return stats

    def drift_check(self, api: str,
                    params: dict | None = None) -> tuple[bool, str]:
        """Compiled-vs-evaluator agreement for one read, atomically.

        Under MVCC both evaluations run against a *single* pinned
        version, so consistency is structural — no locking needed and
        no concurrent writer can fake a divergence.  The fallback gets
        the same guarantee by holding one shared-lock acquisition
        across both runs.  Returns ``(match, detail)``; ``detail``
        names the first disagreement found.
        """
        if self.mvcc:
            slot = self._slots.slot()
            version = self._chain.pin(slot)
            try:
                live = self.inner.invoke_at(version, api, params)
                reference = self.inner.reference_invoke(
                    api, params, at=version
                )
            finally:
                slot.pinned = None
                slot.reads += 1
        else:
            with self.lock.read():
                live = self.inner.invoke(api, params)
                reference = self.inner.reference_invoke(api, params)
        if live.success != reference.success:
            return False, (
                f"compiled success={live.success} "
                f"evaluator success={reference.success}"
            )
        if not live.success:
            if live.error_code == reference.error_code:
                return True, ""
            return False, (
                f"compiled error {live.error_code!r} != "
                f"evaluator error {reference.error_code!r}"
            )
        if live.data == reference.data:
            return True, ""
        return False, "payload mismatch between compiled and evaluator"
