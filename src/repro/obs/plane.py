"""The serving-time observability plane.

One :class:`ObsPlane` rides one :class:`~repro.telemetry.Telemetry`
(as ``telemetry.obs``) and gives the serve path four things the batch
registry cannot:

- a **windowed store** (:mod:`repro.obs.windows`) keyed by (tenant,
  api, region, outcome, code), recorded once per request at virtual
  completion time with the trace id as exemplar;
- an **SLO engine** (:mod:`repro.obs.slo`) evaluating burn-rate
  alerts over those windows;
- a **propagated request context** + **tail sampler**
  (:mod:`repro.obs.tracectx`): every request gets a root span and a
  context the lower layers stamp hops and waits onto; at completion
  the sampler keeps error/shed/slow trees and a seeded fraction of
  the healthy ones, discarding the rest from the tracer so trace
  output stays bounded under load;
- an optional **drift monitor** (:mod:`repro.obs.drift`) re-running a
  seeded fraction of reads through the tree-walking evaluator.

The per-request hot path is deliberately small: one span, one
windowed record, one crc32 draw.  Everything else (hop child spans,
SLO evaluation, dashboards) happens on the kept-trace path or at
query time.
"""

from __future__ import annotations

from contextlib import contextmanager

from ..telemetry.spans import Span
from .slo import SLOEngine, SLOSpec
from .tracectx import (
    CURRENT_REQUEST,
    RequestContext,
    TailSampler,
    TraceIdAllocator,
)
from .windows import WindowedStore

#: Error codes that count against availability SLOs (the service
#: failed the caller).  Everything else — validation rejects, missing
#: resources — is the *caller's* error: the service answered
#: correctly, so the request is good for SLO purposes and eligible
#: for probabilistic (rather than guaranteed) trace sampling.
INFRA_CODES = frozenset({
    "ServiceUnavailable",
    "RequestTimeout",
    "RequestLimitExceeded",
    "InternalFailure",
    "InternalError",
    "CircuitOpen",
    "ThrottlingException",
})


class ObsPlane:
    """One serving run's live observability: windows, SLOs, sampling."""

    def __init__(
        self,
        telemetry,
        seed: int = 7,
        resolution: float = 0.25,
        capacity: int = 4096,
        slos: "list[SLOSpec] | None" = None,
        sample_keep: float = 0.05,
        slow_threshold_s: float = 1.0,
        drift_rate: float = 0.0,
    ):
        self.telemetry = telemetry
        self.clock = telemetry.clock
        self.store = WindowedStore(resolution=resolution, capacity=capacity)
        self.slo = SLOEngine(self.store, slos or [])
        self.sampler = TailSampler(
            keep_rate=sample_keep,
            slow_threshold_s=slow_threshold_s,
            seed=seed,
        )
        self._trace_ids = TraceIdAllocator(seed)
        self.drift = None
        if drift_rate > 0:
            from .drift import DriftMonitor

            self.drift = DriftMonitor(self, rate=drift_rate, seed=seed)
        telemetry.obs = self

    # -- the per-request hot path --------------------------------------------

    @contextmanager
    def request(self, tenant: str, api: str):
        """Wrap one request: root span, propagated context, sampling.

        The body runs with a :class:`RequestContext` installed in the
        context variable, so admission, the region gate and the
        concurrency layer can stamp what they see; at exit the request
        is classified, recorded into the windowed store, and its trace
        tree is kept or discarded by the tail sampler.
        """
        start = self.clock.now()
        ctx = RequestContext(
            self._trace_ids.next_id(), tenant, api, start
        )
        token = CURRENT_REQUEST.set(ctx)
        root = None
        try:
            with self.telemetry.span(
                "serve.request", kind="serve",
                trace_id=ctx.trace_id, tenant=tenant, api=api,
            ) as span:
                root = span
                ctx.root = span
                yield ctx
        except BaseException as error:
            # An exception the body already classified (a malformed
            # envelope is a client error) keeps that outcome.
            if not ctx.error_code:
                ctx.outcome = "error"
                ctx.error_code = type(error).__name__
            raise
        finally:
            CURRENT_REQUEST.reset(token)
            if root is not None:
                self._finish(ctx, root, max(0.0, root.end - root.start))

    def classify(self, ctx: RequestContext, code: str) -> None:
        """Map one response's error code onto the request's outcome."""
        if not code:
            ctx.outcome = "ok"
            ctx.error_code = ""
        elif ctx.shed:
            ctx.outcome = "shed"
            ctx.error_code = code
        elif code in INFRA_CODES:
            ctx.outcome = "error"
            ctx.error_code = code
        else:
            ctx.outcome = "client_error"
            ctx.error_code = code

    def _finish(self, ctx: RequestContext, root: Span,
                latency_s: float) -> None:
        now = self.clock.now()
        # Decide sampling *before* recording: exemplars must point at
        # trace ids that survive into the exported span set, so only
        # kept traces are linkable from histogram windows.
        decision = self.sampler.decide(ctx, latency_s)
        exemplar = ctx.trace_id if decision["sampled"] else ""
        self.store.histogram(
            "serve.requests",
            tenant=ctx.tenant, api=ctx.api,
            region=ctx.resource_region or "-",
            outcome=ctx.outcome, code=ctx.error_code or "-",
        ).record(now, latency_s, exemplar=exemplar)
        for hop in ctx.hops:
            self.store.histogram(
                "net.rtt", src=hop["src"], dst=hop["dst"],
            ).record(hop.get("at", now), hop["rtt_s"],
                     exemplar=exemplar)

        root.set("outcome", ctx.outcome)
        if ctx.error_code:
            root.set("error_code", ctx.error_code)
        if ctx.client_region:
            root.set("client_region", ctx.client_region)
        if ctx.resource_region:
            root.set("resource_region", ctx.resource_region)
        if ctx.hops:
            root.set("rtt_total_s", round(ctx.rtt_total_s, 9))
        if ctx.failover:
            root.set("failover", True)
        if ctx.queue_depth:
            root.set("queue_depth", ctx.queue_depth)
        if ctx.lock_wait_s:
            root.set("lock_wait_s", round(ctx.lock_wait_s, 6))
        if ctx.registry_version:
            # The single published version this request observed
            # (pinned for reads, published for writes) on the MVCC
            # serve path.
            root.set("registry.version", ctx.registry_version)

        if decision["sampled"]:
            root.set("sampled", True)
            root.set("sample_reason", decision["reason"])
            self._materialize_hops(ctx, root)
        else:
            self.telemetry.tracer.discard_root(root)

    def _materialize_hops(self, ctx: RequestContext, root: Span) -> None:
        """Render the context's hop records as child spans.

        Done only for kept traces — a dropped tree never pays for its
        children.  Hop span ids derive from the root's, so they stay
        unique without touching the tracer's counter.
        """
        for index, hop in enumerate(ctx.hops, 1):
            failover = hop["reason"] == "replica_failover"
            span = Span(
                name="replica.failover" if failover else "net.hop",
                kind="net",
                span_id=f"{root.span_id}.h{index}",
                parent_id=root.span_id,
                start=hop.get("at", root.start) - hop["rtt_s"],
                attributes={
                    "src": hop["src"], "dst": hop["dst"],
                    "rtt_s": hop["rtt_s"],
                    "delivered": hop["delivered"],
                },
            )
            span.end = span.start + hop["rtt_s"]
            if hop["reason"] and not failover:
                span.attributes["reason"] = hop["reason"]
                if not hop["delivered"]:
                    span.status = "error"
            root.children.append(span)

    # -- reporting -----------------------------------------------------------

    def request_rate(self, lookback: float, tenant: str = "") -> float:
        where = {"tenant": tenant} if tenant else {}
        return self.store.rate(
            "serve.requests", lookback, self.clock.now(), **where
        )

    def slo_report(self) -> dict:
        return self.slo.report(self.clock.now())

    def report(self) -> dict:
        """The plane's full JSON-ready summary for one run."""
        out = {
            "resolution": self.store.resolution,
            "series": len(self.store),
            "sampling": self.sampler.as_dict(),
            "slo": self.slo_report() if self.slo.specs else None,
        }
        if self.drift is not None:
            out["drift"] = self.drift.as_dict()
        return out
