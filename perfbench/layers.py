"""Per-layer spans recorded from the benchmark's own files.

:class:`LayerTrace` wraps the public entry points of each serve layer
(at class level, for the traced blocks only) and records one span per
call: name, start, end, parent and the request it belongs to.  A
layer's self time is its span's duration minus the time its child spans
cover.  Counts are taken at the same boundaries (metric lookups, tracer
spans, admission sheds, shard wire bytes, collector pauses), so each
ratio is measured where the work happens.

Worker-side layers of the sharded path are invisible from here: the
shard RPC is seen only as wire time, bytes and the handle-lock wait.
"""

from __future__ import annotations

import gc
import json
import threading
import time
from collections import defaultdict
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

from repro.interpreter.emulator import Emulator
from repro.interpreter.endpoint import JsonEndpoint
from repro.obs.plane import ObsPlane
from repro.obs.windows import WindowedStore
from repro.serve.admission import AdmissionController
from repro.serve.concurrency import ConcurrentEmulator
from repro.serve.frontdoor import FrontDoor, _GuardedBackend
from repro.serve.mvcc import VersionChain
from repro.serve.shard import ShardSupervisor
from repro.serve.tenancy import TenantRouter
from repro.serve.validation import RequestValidator
from repro.telemetry.metrics import MetricsRegistry

#: (class, method, span name) for every wrapped entry point.
SPANNED = (
    (FrontDoor, "dispatch", "frontdoor.dispatch"),
    (_GuardedBackend, "invoke", "frontdoor.guard"),
    (JsonEndpoint, "dispatch", "endpoint.dispatch"),
    (TenantRouter, "resolve", "tenancy.resolve"),
    (RequestValidator, "validate", "validation.validate"),
    (AdmissionController, "release", "admission.release"),
    (ObsPlane, "classify", "obs.classify"),
    (ConcurrentEmulator, "invoke", "concurrency.invoke"),
    (Emulator, "invoke", "interpreter.invoke"),
    (Emulator, "invoke_at", "interpreter.invoke_at"),
    (VersionChain, "publish", "mvcc.chain_publish"),
    (ShardSupervisor, "request", "shard.request"),
)

#: Spans whose self time is the envelope layer's own work: the wire
#: codec (the request root), the front door's dispatch glue, the JSON
#: endpoint and the guard that calls validation and admission.
ENVELOPE = ("request", "frontdoor.dispatch", "endpoint.dispatch",
            "frontdoor.guard")

#: Requests whose raw spans are written out at the end of a run.
KEEP_REQUESTS = 2000


class _Span:
    __slots__ = ("name", "span_id", "parent", "start", "children")

    def __init__(self, name, span_id, parent, start):
        self.name = name
        self.span_id = span_id
        self.parent = parent
        self.start = start
        self.children = 0.0


class _ConnProxy:
    """Stands in for a shard handle's pipe end; times the wire and
    counts its bytes.  Pickles exactly as ``Connection.send``/``recv``
    do, so what crosses the pipe is unchanged."""

    def __init__(self, conn, trace: "LayerTrace"):
        self.conn = conn
        self.trace = trace

    def send(self, obj) -> None:
        buf = ForkingPickler.dumps(obj)
        self.trace.wire_send(len(buf))
        self.conn.send_bytes(buf)

    def recv(self):
        buf = self.conn.recv_bytes()
        self.trace.wire_recv(len(buf))
        return ForkingPickler.loads(buf)

    def poll(self, timeout=0.0):
        return self.conn.poll(timeout)

    def close(self) -> None:
        self.conn.close()


class LayerTrace:
    """Spans and counts for the traced blocks of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.local = threading.local()
        self.lock = threading.Lock()
        self._undo: list = []
        self._next_id = 0
        self.kept: list[tuple] = []
        # Block accumulators (raw seconds), folded into the totals with
        # the block's host-speed factor by :meth:`flush_block`.
        self._block = defaultdict(float)
        self.totals = defaultdict(float)
        self.counts = defaultdict(int)
        self._gc_started = 0.0

    # -- spans ----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def begin_request(self, is_read: bool) -> None:
        with self.lock:
            self._next_id += 1
            rid = self._next_id
        self.local.rid = rid
        self.local.cls = "read" if is_read else "write"
        self.local.spans = 0
        self.local.lock_wait = None
        self._stack().append(_Span("request", 0, None, time.perf_counter()))

    def end_request(self) -> None:
        self.exit(self._stack()[-1])
        with self.lock:
            self.counts["requests"] += 1
            self.counts[f"requests.{self.local.cls}"] += 1

    def enter(self, name: str) -> _Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        self.local.spans += 1
        span = _Span(name, self.local.spans,
                     parent.span_id if parent else None,
                     time.perf_counter())
        stack.append(span)
        return span

    def exit(self, span: _Span) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - span.start
        if stack:
            stack[-1].children += duration
        cls = self.local.cls
        with self.lock:
            block = self._block
            block[f"dur.{span.name}.{cls}"] += duration
            block[f"self.{span.name}.{cls}"] += duration - span.children
            self.counts[f"calls.{span.name}"] += 1
            if self.local.rid <= KEEP_REQUESTS:
                self.kept.append((self.local.rid, span.span_id, span.parent,
                                  span.name, cls, span.start, end))

    def flush_block(self, factor: float) -> None:
        """Fold the block's raw times into the totals, in
        reference-host units."""
        with self.lock:
            for key, value in self._block.items():
                self.totals[key] += value * factor
            self._block.clear()

    # -- shard wire -----------------------------------------------------------

    def wire_send(self, size: int) -> None:
        now = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1].name == "shard.request":
            self.local.lock_wait = now - stack[-1].start
        self.local.sent_at = now
        with self.lock:
            self.counts["wire.bytes"] += size

    def wire_recv(self, size: int) -> None:
        now = time.perf_counter()
        cls = self.local.cls
        with self.lock:
            self.counts["wire.bytes"] += size
            self._block[f"wire.{cls}"] += now - self.local.sent_at
            if self.local.lock_wait is not None:
                self._block["lock_wait"] += self.local.lock_wait
                self.local.lock_wait = None

    # -- collector ------------------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        with self.lock:
            self._block["gc.pause"] += time.perf_counter() - self._gc_started
            if info.get("generation") == 2:
                self.counts["gc.gen2"] += 1

    # -- install / uninstall ----------------------------------------------------

    def install(self) -> None:
        trace = self
        for cls, attr, name in SPANNED:
            original = cls.__dict__[attr]

            def wrapper(*args, _original=original, _name=name, **kwargs):
                span = trace.enter(_name)
                try:
                    return _original(*args, **kwargs)
                finally:
                    trace.exit(span)

            setattr(cls, attr, wrapper)
            self._undo.append((cls, attr, original))

        admit = AdmissionController.__dict__["admit"]

        def admit_wrapper(*args, **kwargs):
            span = trace.enter("admission.admit")
            try:
                decision = admit(*args, **kwargs)
            finally:
                trace.exit(span)
            if not decision.admitted:
                with trace.lock:
                    trace.counts["admission.sheds"] += 1
            return decision

        AdmissionController.admit = admit_wrapper
        self._undo.append((AdmissionController, "admit", admit))

        publish = Emulator.__dict__["publish_version"]

        def publish_wrapper(*args, **kwargs):
            span = trace.enter("mvcc.publish_version")
            try:
                version = publish(*args, **kwargs)
            finally:
                trace.exit(span)
            with trace.lock:
                trace.counts["mvcc.publishes"] += 1
                trace.counts["mvcc.entries"] += len(version)
            return version

        Emulator.publish_version = publish_wrapper
        self._undo.append((Emulator, "publish_version", publish))

        obs_request = ObsPlane.__dict__["request"]

        def request_wrapper(*args, **kwargs):
            return _SpanContext(obs_request(*args, **kwargs), trace,
                                "obs.request")

        ObsPlane.request = request_wrapper
        self._undo.append((ObsPlane, "request", obs_request))

        for cls in (MetricsRegistry, WindowedStore):
            lookup = cls.__dict__["_get"]

            def lookup_wrapper(*args, _lookup=lookup, **kwargs):
                with trace.lock:
                    trace.counts["metric.lookups"] += 1
                return _lookup(*args, **kwargs)

            cls._get = lookup_wrapper
            self._undo.append((cls, "_get", lookup))

        supervisor = getattr(self.workload.front, "supervisor", None)
        if supervisor is not None:
            for handle in supervisor._handles:
                handle.conn = _ConnProxy(handle.conn, self)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        supervisor = getattr(self.workload.front, "supervisor", None)
        if supervisor is not None:
            for handle in supervisor._handles:
                if isinstance(handle.conn, _ConnProxy):
                    handle.conn = handle.conn.conn
        while self._undo:
            cls, attr, original = self._undo.pop()
            setattr(cls, attr, original)

    def dump(self, path: Path) -> None:
        """Write the kept requests' raw spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for rid, sid, parent, name, cls, start, end in self.kept:
                out.write(json.dumps({
                    "request": rid, "span": sid, "parent": parent,
                    "name": name, "class": cls,
                    "start": start, "end": end,
                }) + "\n")


class _SpanContext:
    """A context manager that records a span around another one."""

    __slots__ = ("inner", "trace", "name", "span")

    def __init__(self, inner, trace: LayerTrace, name: str):
        self.inner = inner
        self.trace = trace
        self.name = name
        self.span = None

    def __enter__(self):
        self.span = self.trace.enter(self.name)
        return self.inner.__enter__()

    def __exit__(self, *exc_info):
        try:
            return self.inner.__exit__(*exc_info)
        finally:
            self.trace.exit(self.span)
