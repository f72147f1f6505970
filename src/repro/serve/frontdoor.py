"""The production-shaped front door over any backend.

``FrontDoor`` composes the serving layers in the order a real cloud
edge does::

    JSON envelope  (per-tenant JsonEndpoint: request ids, error shape)
      -> authentication       (TenantRouter: per-key namespaces)
      -> request validation   (RequestValidator: spec-derived types)
      -> admission control    (AdmissionController: buckets, queue,
                               degraded mode)
      -> [network routing, if a NetEm is configured: the request
          crosses the (client-region -> resource-region) link and can
          pay RTT, get lost, or bounce off a partition]
      -> [chaos / resilience proxies, if configured]
      -> concurrent dispatch  (ConcurrentEmulator: RW lock, admitted
                               log)
      -> the emulator

Every layer speaks :class:`~repro.interpreter.errors.ApiResponse`, so
a shed, a validation reject and an interpreter error all come back
through the same wire envelope a success does — clients cannot tell
the front door from the cloud's except by behaviour, which is the
paper's bar for the emulator itself (§2).
"""

from __future__ import annotations

import json
from functools import partial

from ..interpreter.endpoint import RequestIdSequence
from ..interpreter.errors import ApiResponse
from ..obs.tracectx import current_request
from ..resilience.policy import VirtualClock
from ..spec import ast
from .admission import AdmissionController
from .deadline import DeadlineError, envelope_meta, request_meta
from .tenancy import AuthError, Tenant, TenantRouter
from .validation import RequestValidator


class ConfigError(ValueError):
    """A front-door composition the serving layer cannot honor.

    Raised at construction time — never mid-request — when two
    features are configured together that do not compose yet, with a
    message naming the gap and the roadmap item tracking it.  The
    canonical case today: :class:`~repro.serve.shard.ShardedFrontDoor`
    with ``network=`` (shard × region placement, ROADMAP item 1).
    """


class _GuardedBackend:
    """Validation + admission in front of one tenant's backend stack."""

    __slots__ = ("frontdoor", "tenant_name", "inner", "_emulator")

    def __init__(self, frontdoor: "FrontDoor", tenant_name: str, inner):
        self.frontdoor = frontdoor
        self.tenant_name = tenant_name
        self.inner = inner
        self._emulator = None

    def _concurrent(self):
        """This tenant's concurrency-layer emulator (for the region
        gate: placement lookups and post-write snapshot publishes)."""
        if self._emulator is None:
            tenant = self.frontdoor.router.get(self.tenant_name)
            if tenant is not None:
                self._emulator = tenant.emulator
        return self._emulator

    # -- delegated surface -------------------------------------------------

    def api_names(self) -> list[str]:
        return self.inner.api_names()

    def supports(self, api: str) -> bool:
        return self.inner.supports(api)

    def reset(self) -> None:
        self.inner.reset()

    def read_only(self, api: str) -> bool:
        return self.inner.read_only(api)

    # -- guarded dispatch --------------------------------------------------

    def invoke(self, api: str, params: dict | None = None) -> ApiResponse:
        front = self.frontdoor
        params = params or {}
        if front.telemetry is not None:
            front.telemetry.metrics.counter(
                "serve.requests", tenant=self.tenant_name
            ).inc()
        rejected = front.validator.validate(api, params)
        if rejected is not None:
            return rejected
        read_only = self.inner.read_only(api)
        decision = front.admission.admit(
            self.tenant_name, api, read_only=read_only
        )
        if not decision.admitted:
            return decision.response
        try:
            gate = front.region_gate
            emulator = self._concurrent() if gate is not None else None
            if gate is not None and emulator is not None:
                response = gate.route(
                    self.tenant_name, emulator, api, params, read_only,
                    lambda: self.inner.invoke(api, params),
                )
            else:
                response = self.inner.invoke(api, params)
            if read_only:
                self._maybe_drift(api, params)
            return response
        finally:
            front.admission.release(self.tenant_name)

    def _maybe_drift(self, api: str, params: dict) -> None:
        """Offer this read to the drift monitor, when one is attached.

        The probe runs against the tenant's concurrency-wrapped
        emulator directly — *inside* any chaos proxies — so injected
        faults can never masquerade as compiled/evaluator divergence.
        """
        obs = getattr(self.frontdoor.telemetry, "obs", None)
        if obs is None or obs.drift is None:
            return
        ctx = current_request()
        if ctx is None:
            return
        emulator = self._concurrent()
        if emulator is not None:
            obs.drift.maybe_check(ctx, emulator, api, params)


class FrontDoor:
    """A hardened, multi-tenant serving layer over learned emulators.

    Parameters
    ----------
    module:
        The spec module every tenant serves (validation derives from
        it).
    emulator_factory:
        Zero-argument callable building one fresh base emulator per
        tenant; also used by the linearizability check to build clean
        replicas for serial replay.
    wrap:
        Optional proxy stack (e.g. a chaos wrapper) interposed between
        admission and the concurrency layer, per tenant.
    rate / burst / max_concurrent / queue_depth / degrade_after /
    recover_after:
        Admission-control knobs (see :class:`AdmissionController`).
    allocation:
        Optional :class:`~repro.serve.allocation.AllocationConfig`.
        When given, admission switches from independent per-tenant
        buckets to the holistic weighted max-min allocator: one shared
        pool of rate/slot/queue budget, work-conserving redistribution
        of unused grant, per-tenant retry side-budgets, and (under the
        sharded front door) shard-health-aware rebalancing.  ``rate``/
        ``burst`` are ignored in this mode — the pool is the config's
        ``total_rate``/``total_burst``.
    network:
        Optional :class:`~repro.netem.NetEm`.  When given, every
        admitted request is routed over the (client-region ->
        resource-region) path by a
        :class:`~repro.netem.routing.RegionGate`: latency is charged
        on the shared clock, lossy links time requests out,
        partitioned links reject writes with ``ServiceUnavailable``
        and (when ``stale_reads``) fail reads over to the client
        region's trailing replica, ``replication_lag`` virtual seconds
        behind the authority.  The network's clock should be the front
        door's clock — pass the same instance to both.
    """

    def __init__(
        self,
        module: ast.SpecModule,
        emulator_factory,
        clock: VirtualClock | None = None,
        telemetry=None,
        wrap=None,
        network=None,
        home_region: str | None = None,
        client_regions: dict[str, str] | None = None,
        stale_reads: bool = True,
        replication_lag: float = 0.25,
        placer=None,
        rate: float = 50.0,
        burst: float = 20.0,
        max_concurrent: int = 16,
        queue_depth: int = 64,
        degrade_after: int = 8,
        recover_after: int = 1,
        allocation=None,
        max_tenants: int = 32,
        require_key: bool = False,
        seed: int = 1,
    ):
        self.module = module
        self.telemetry = telemetry
        if clock is not None:
            self.clock = clock
        elif telemetry is not None:
            self.clock = telemetry.clock
        elif network is not None:
            self.clock = network.clock
        else:
            self.clock = VirtualClock()
        self.validator = RequestValidator(module, telemetry=telemetry)
        allocator = None
        if allocation is not None:
            from .allocation import AllocationConfig, HolisticAllocator

            if allocation is True:
                allocation = AllocationConfig()
            allocator = HolisticAllocator(
                clock=self.clock, config=allocation,
                telemetry=telemetry,
            )
            # The pool's totals *are* the building's global bounds.
            max_concurrent = allocation.total_slots
            queue_depth = allocation.total_queue
        self.allocator = allocator
        self.admission = AdmissionController(
            clock=self.clock, rate=rate, burst=burst,
            max_concurrent=max_concurrent, queue_depth=queue_depth,
            degrade_after=degrade_after, recover_after=recover_after,
            allocator=allocator, telemetry=telemetry,
        )
        self.router = TenantRouter(
            emulator_factory, max_tenants=max_tenants,
            require_key=require_key, wrap=wrap,
            guard=lambda name, backend: _GuardedBackend(
                self, name, backend
            ),
            telemetry=telemetry, seed=seed,
        )
        self.emulator_factory = emulator_factory
        self.network = network
        self.region_gate = None
        if network is not None:
            from ..netem.routing import RegionGate

            self.region_gate = RegionGate(
                network, emulator_factory,
                home_region=home_region,
                placer=placer,
                client_regions=client_regions,
                stale_reads=stale_reads,
                replication_lag=replication_lag,
                telemetry=telemetry,
            )
        #: Request ids for envelopes minted before tenant resolution
        #: (authentication failures).
        self._auth_ids = RequestIdSequence(seed)

    # -- wire surface --------------------------------------------------------

    @property
    def admitted(self):
        """The commit-ordered admitted-request log (all tenants)."""
        return self.router.admitted

    def tenant(self, api_key: str | None = None) -> Tenant:
        """Resolve (or create) the tenant for an API key."""
        return self.router.resolve(api_key)

    def dispatch(self, request: dict, api_key: str | None = None) -> dict:
        """Handle one decoded request envelope for one tenant.

        The envelope may carry ``DeadlineSeconds`` (the client's
        remaining budget, minted into an absolute virtual deadline at
        arrival) and ``Retry: true`` (the request is a retry, drawn
        from the tenant's capped retry side-budget under the holistic
        allocator); both propagate through every serving layer on the
        request-meta context.
        """
        try:
            tenant = self.router.resolve(api_key)
        except AuthError as error:
            return self._auth_envelope(error)
        return self._serve(tenant, request)

    def _serve(self, tenant: Tenant, request: dict) -> dict:
        """:meth:`dispatch` after tenant resolution: envelope meta,
        the observability root span, then the tenant's endpoint."""
        try:
            deadline, retry = (
                envelope_meta(request, self.clock)
                if isinstance(request, dict) else (None, False)
            )
        except DeadlineError as error:
            return {
                "ResponseMetadata": {
                    "RequestId": self._auth_ids.next()
                },
                "Error": {
                    "Code": "InvalidParameterValue",
                    "Message": str(error),
                },
            }
        obs = getattr(self.telemetry, "obs", None)
        if obs is None:
            if deadline is None and not retry:
                return tenant.endpoint.dispatch(request)
            with request_meta(deadline, retry):
                return tenant.endpoint.dispatch(request)
        api = ""
        if isinstance(request, dict):
            api = str(request.get("Action", ""))
        with obs.request(tenant.name, api) as ctx:
            if deadline is None and not retry:
                body = tenant.endpoint.dispatch(request)
            else:
                with request_meta(deadline, retry):
                    body = tenant.endpoint.dispatch(request)
            error_body = body.get("Error") if isinstance(body, dict) else None
            obs.classify(ctx, (error_body or {}).get("Code", ""))
        return body

    def handle(self, payload: "str | bytes",
               api_key: str | None = None) -> str:
        """Handle one JSON-encoded request; always returns valid JSON.

        The tenant's endpoint decodes the payload and encodes the
        reply (malformed envelopes answer ``SerializationException``);
        in between, the request takes the same path as
        :meth:`dispatch` — ``DeadlineSeconds``, ``Retry`` and the
        observability root span included.
        """
        try:
            tenant = self.router.resolve(api_key)
        except AuthError as error:
            return json.dumps(self._auth_envelope(error))
        return tenant.endpoint.handle(
            payload, dispatch=partial(self._serve, tenant)
        )

    def invoke(self, api: str, params: dict | None = None,
               api_key: str | None = None,
               deadline: float | None = None,
               retry: bool = False) -> ApiResponse:
        """The response-typed path (no JSON envelope), still guarded.

        ``deadline`` is relative seconds of remaining client budget
        (minted absolute here, at arrival); ``retry`` marks the call
        as drawing from the tenant's retry side-budget.
        """
        try:
            tenant = self.router.resolve(api_key)
        except AuthError as error:
            return error.to_response()
        absolute = None
        if deadline is not None:
            # A non-positive budget is an already-expired deadline,
            # not the absence of one — admission sheds it honestly.
            now = self.clock.now()
            absolute = now + deadline if deadline > 0 else now
        obs = getattr(self.telemetry, "obs", None)
        if obs is None:
            if absolute is None and not retry:
                return tenant.backend.invoke(api, params)
            with request_meta(absolute, retry):
                return tenant.backend.invoke(api, params)
        with obs.request(tenant.name, api) as ctx:
            if absolute is None and not retry:
                response = tenant.backend.invoke(api, params)
            else:
                with request_meta(absolute, retry):
                    response = tenant.backend.invoke(api, params)
            obs.classify(
                ctx, "" if response.success else response.error_code
            )
        return response

    def _auth_envelope(self, error: AuthError) -> dict:
        if self.telemetry is not None:
            self.telemetry.metrics.counter(
                "serve.auth_rejects", code=error.code
            ).inc()
        return {
            "ResponseMetadata": {"RequestId": self._auth_ids.next()},
            "Error": {"Code": error.code, "Message": error.message},
        }
