"""Hierarchical tracing spans on the pipeline's virtual clock.

A span is one timed unit of pipeline work (a build, an extraction
pass, one resource's generation, one LLM request, one emulated API
call).  Spans nest: the tracer keeps a stack, so whatever is opened
while another span is active becomes its child, and the finished tree
mirrors the call structure of the run (build -> extraction pass ->
resource -> LLM call; alignment round -> trace -> API call).

Time comes from the same clock abstraction the resilience layer uses
(:class:`~repro.resilience.policy.VirtualClock` by default), so a
traced run is exactly reproducible: durations measure *virtual*
seconds — backoff waits, breaker cooldowns — not host wall time.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class SpanEvent:
    """A point-in-time fact attached to a span (a retry, a trip)."""

    name: str
    time: float
    attributes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "time": self.time,
            "attributes": dict(self.attributes),
        }


class Span:
    """One timed, attributed unit of work in the trace tree."""

    __slots__ = (
        "name", "kind", "span_id", "parent_id", "start", "end",
        "status", "attributes", "events", "children",
    )

    def __init__(
        self,
        name: str,
        kind: str = "",
        span_id: str = "",
        parent_id: str | None = None,
        start: float = 0.0,
        attributes: dict | None = None,
    ):
        self.name = name
        self.kind = kind
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end = start
        self.status = "ok"
        self.attributes = dict(attributes or {})
        self.events: list[SpanEvent] = []
        self.children: list[Span] = []

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def set(self, key: str, value: object) -> None:
        """Attach (or overwrite) one attribute."""
        self.attributes[key] = value

    def event(self, name: str, time: float, **attributes: object) -> SpanEvent:
        record = SpanEvent(name=name, time=time, attributes=dict(attributes))
        self.events.append(record)
        return record

    def to_dict(self) -> dict:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "status": self.status,
            "attributes": dict(self.attributes),
            "events": [event.to_dict() for event in self.events],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, kind={self.kind!r}, "
                f"id={self.span_id!r}, children={len(self.children)})")


class Tracer:
    """Builds the span tree for one run.

    Strictly nested usage (``with tracer.span(...)``) per thread is
    the only supported shape.  The span stack is thread-local, so a
    pipeline that fans work out onto a thread pool keeps each worker's
    spans properly nested; a worker's *root* span attaches to the
    anchor span (see :meth:`anchored`) its orchestrator set before the
    fan-out, so the finished tree still mirrors the run's structure.
    Ids stay sequential under a lock; their assignment order between
    concurrent workers is the only nondeterminism a parallel run adds.
    """

    def __init__(self, clock):
        self.clock = clock
        self.roots: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._anchor: Span | None = None
        self._count = 0

    @property
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def current(self) -> Span | None:
        """The innermost open span on the calling thread, if any."""
        stack = self._stack
        return stack[-1] if stack else None

    @property
    def span_count(self) -> int:
        return self._count

    @contextmanager
    def anchored(self):
        """Anchor worker-thread root spans to the caller's current span.

        Used around a thread-pool fan-out: spans opened by a thread
        with an empty stack become children of the span that was
        current here, instead of disconnected roots.
        """
        previous = self._anchor
        self._anchor = self.current
        try:
            yield
        finally:
            self._anchor = previous

    @contextmanager
    def span(self, name: str, kind: str = "", **attributes: object):
        """Open a child span of the current span for the ``with`` body."""
        stack = self._stack
        parent = stack[-1] if stack else self._anchor
        with self._lock:
            self._count += 1
            span_id = f"s{self._count}"
            record = Span(
                name=name,
                kind=kind,
                span_id=span_id,
                parent_id=parent.span_id if parent is not None else None,
                start=self.clock.now(),
                attributes=attributes,
            )
            if parent is not None:
                parent.children.append(record)
            else:
                self.roots.append(record)
        stack.append(record)
        try:
            yield record
        except BaseException as error:
            record.status = "error"
            record.attributes.setdefault("exception", type(error).__name__)
            # A simulated process death carries its kill site; stamping
            # it on the span makes crash-injection runs greppable in
            # the exported trace (duck-typed: no import of the chaos
            # layer from here).
            site = getattr(error, "site", None)
            if site is not None:
                record.attributes.setdefault("crash_site", site)
            raise
        finally:
            record.end = self.clock.now()
            stack.pop()

    def discard_root(self, span: Span) -> bool:
        """Drop a finished root span (and its subtree) from the trace.

        The tail sampler's eviction hook: a request tree it decides
        not to keep is removed wholesale, so the exported trace stays
        bounded under load.  Returns whether the span was actually a
        root (an attached child cannot be discarded this way).
        """
        with self._lock:
            roots = self.roots
            # The sampler discards a request's root as the request
            # finishes, so it sits at (or near) the tail; scanning from
            # the front would cost one step per kept root.
            for index in range(len(roots) - 1, -1, -1):
                if roots[index] is span:
                    del roots[index]
                    return True
        return False

    def walk(self):
        """Every finished-or-open span, pre-order (parents first)."""
        pending = list(reversed(self.roots))
        while pending:
            span = pending.pop()
            yield span
            pending.extend(reversed(span.children))
