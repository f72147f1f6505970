"""Thread-safe concurrent dispatch over one emulator.

:class:`ConcurrentEmulator` lets N worker threads issue mixed
read/write traffic against a single :class:`~repro.interpreter.Emulator`
without corrupting the registry, the WAL ordering or the ID allocator.
Reads never take a lock: each read pins the newest published
:class:`~repro.interpreter.machine.RegistryVersion` — an immutable,
structurally shared snapshot of the registry — and dispatches against
it via :meth:`Emulator.invoke_at`, including through the compiled pure
route.  Writes serialize under one writer mutex: dispatch, WAL append,
admitted-log append, then an atomic publish of the new version into
the :class:`~repro.serve.mvcc.VersionChain`, which also runs
epoch-based reclamation of superseded versions (a retired version is
dropped once no reader pins it or anything older).  A writer therefore
never stalls a reader and a reader never delays a writer; read
throughput scales with cores until the GIL, not until a lock.

- mutating APIs are a total order (the writer mutex);
- every write *attempt* that reaches the interpreter is appended to
  the :class:`AdmittedLog` while other writers are still excluded, so
  the log's per-tenant order is exactly the commit order.  Failed
  attempts are logged too: a failed create still burns a deterministic
  ID, so serial replay must repeat the failure to reproduce the
  allocator state byte-for-byte.

The wrapper sits at the *bottom* of the backend stack, directly around
the emulator.  Chaos and resilience proxies belong outside it: their
injected faults fire before any pin or publish and are therefore never
logged as admitted work — which is exactly right, because an injected
throttle mutates nothing.

Linearizability falls out: replaying one tenant's admitted log
serially against a fresh emulator of the same module reproduces the
concurrent run's final registry exactly (see
:meth:`repro.serve.frontdoor.FrontDoor.verify_linearizable`) — and
each read observed exactly one published version, recorded on its
trace as ``registry.version``.
"""

from __future__ import annotations

import json
import threading
from collections import namedtuple
from pathlib import Path
from time import perf_counter

from ..durability.snapshot import snapshot_version
from ..interpreter.errors import ApiResponse
from ..obs.tracectx import current_request
from ..resilience.chaos import kill_point
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


#: Reads take no lock, so their lock count is the constant 0.  It stays
#: readable as ``emulator.lock.read_acquisitions`` only because the
#: benchmark's correctness gate (``perfbench/workloads.py``) asserts
#: the lock-free read contract through that attribute.
NO_READ_LOCK = namedtuple("NoReadLock", "read_acquisitions")(0)

#: The per-tenant :meth:`ConcurrentEmulator.version_stats` counters
#: that :func:`sum_version_stats` adds up.
_SUMMED = (
    "publishes", "publish_copied", "reclaimed", "versions_live",
    "pinned_reads",
)


def sum_version_stats(per_tenant) -> dict:
    """Add up per-tenant :meth:`ConcurrentEmulator.version_stats`.

    ``read_lock_acquisitions`` is the lock-free read contract as a
    number: reads pin versions and never take a lock, so it is 0 by
    construction.
    """
    stats = dict.fromkeys(("tenants",) + _SUMMED, 0)
    for tenant_stats in per_tenant:
        stats["tenants"] += 1
        for key in _SUMMED:
            stats[key] += tenant_stats.get(key, 0)
    stats["read_lock_acquisitions"] = NO_READ_LOCK.read_acquisitions
    return stats


class ConcurrentEmulator:
    """An emulator wrapper that makes ``invoke`` thread-safe.

    ``inner`` must expose the emulator's classification surface
    (``read_only``) and its versioned surface (``invoke_at`` for
    pinned reads, ``publish_version`` for writes); in practice it is
    an :class:`~repro.interpreter.Emulator`, or a wrapper that
    forwards those methods.  Anything else is rejected with
    :class:`TypeError` here, at construction, rather than on its
    first request.
    """

    #: See :data:`NO_READ_LOCK`.
    lock = NO_READ_LOCK

    def __init__(self, inner, tenant: str = "default",
                 log: AdmittedLog | None = None,
                 telemetry=None):
        missing = [
            name for name in ("read_only", "invoke_at", "publish_version")
            if not hasattr(inner, name)
        ]
        if missing:
            raise TypeError(
                "ConcurrentEmulator wraps the emulator itself "
                "(chaos/resilience proxies go outside it); "
                f"{type(inner).__name__} has no {', '.join(missing)}"
            )
        self.inner = inner
        self.tenant = tenant
        self.log = log
        self.telemetry = telemetry
        #: Serializes mutating dispatch and version publish.  Readers
        #: never touch it, so it is only ever contended writer-vs-writer.
        self._writer = threading.Lock()
        self._slots = ReaderSlots()
        self._chain = VersionChain(inner.publish_version(), self._slots)
        #: Entries (and chunk pointers) copied by every publish after
        #: the first: the O(touched) publish cost as a count.
        self._publish_copied = 0

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
        with self._writer:
            self.inner.reset()
            if self.log is not None:
                self.log.append(self.tenant, "_Reset", {}, True)
            self._publish()

    def snapshot(self) -> dict:
        """A registry snapshot that is never torn.

        Pins the newest published version and dumps it without any
        locking — writers keep publishing while the dump runs, and the
        result is byte-identical to what a stop-the-world snapshot at
        publish time would have produced."""
        slot = self._slots.slot()
        version = self._chain.pin(slot)
        try:
            return snapshot_version(version)
        finally:
            slot.pinned = None
            slot.reads += 1

    def restore(self, snapshot: dict) -> None:
        """Restore a snapshot as a *new* published version.

        Readers pinned to older versions keep reading them untouched
        (the emulator swaps the registry wholesale; see
        :meth:`Emulator.restore`), and every read started after this
        returns observes the restored state."""
        with self._writer:
            self.inner.restore(snapshot)
            self._publish()

    def recover(self, snapshot: dict,
                records: list[dict] | None = None) -> int:
        """Snapshot restore + WAL tail replay, published atomically:
        readers observe either the pre-recovery version or the fully
        recovered one, never a mid-replay state."""
        with self._writer:
            replayed = self.inner.recover(snapshot, records)
            self._publish()
        return replayed

    def place(self, instance_id: str, region: str) -> None:
        """Record a region placement and republish, so replica
        snapshots taken right after a regional write already carry the
        placement (the netem front door calls this instead of poking
        ``registry.place`` directly)."""
        with self._writer:
            self.inner.registry.place(instance_id, region)
            self._publish()

    # -- dispatch --------------------------------------------------------------

    def invoke(self, api: str, params: dict | None = None) -> ApiResponse:
        ctx = current_request()
        if self.inner.read_only(api):
            # Lock-free read: pin the newest published version (two
            # atomic attribute operations) and dispatch against it.
            # No mutex, no condition variable, no contention with
            # writers — and zero lock_wait_s.
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
        """Version-churn accounting for this tenant.

        ``pinned_reads`` counts the reads that pinned a version (every
        read does); ``publish_copied`` is the publish cost as a count:
        the entries and chunk pointers every publish after the first
        copied (see :func:`~repro.interpreter.versionmap.derive`)."""
        return {
            "publishes": self._chain.publishes,
            "publish_copied": self._publish_copied,
            "reclaimed": self._chain.reclaimed,
            "versions_live": self._chain.live,
            "pinned_reads": self._slots.reads(),
            "reader_threads": len(self._slots),
        }

    def drift_check(self, api: str,
                    params: dict | None = None) -> tuple[bool, str]:
        """Compiled-vs-evaluator agreement for one read, atomically.

        Both evaluations run against a *single* pinned version, so
        consistency is structural — no locking needed and no
        concurrent writer can fake a divergence.  Returns
        ``(match, detail)``; ``detail`` names the first disagreement
        found.
        """
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
