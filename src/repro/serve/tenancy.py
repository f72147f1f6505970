"""Tenant isolation: one registry namespace per API key.

Real cloud front doors scope every request to the calling account;
one tenant's resources, faults and throttles must never be visible to
another.  :class:`TenantRouter` maps each API key to its own backend
instance — a fresh emulator over the *shared* compiled module (the
compiler's closures are stateless, so N tenants cost N registries,
not N compilations) — plus the per-tenant serving state: the version chain,
the chaos wrapper (each tenant gets its own fault schedule lane, so
one tenant's bad weather stays theirs) and the JSON endpoint with its
deterministic request-id stream.

Authentication is deliberately minimal (this is an emulator, not an
IAM): a key either resolves or fails with the cloud's own codes —
``MissingAuthenticationToken`` for no key where one is required,
``UnrecognizedClientException`` when the tenant table is full and the
key is new.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..interpreter.endpoint import JsonEndpoint
from ..interpreter.errors import ApiResponse
from .concurrency import AdmittedLog, ConcurrentEmulator

#: Cloud-style authentication failure codes.
MISSING_TOKEN = "MissingAuthenticationToken"
UNRECOGNIZED_CLIENT = "UnrecognizedClientException"

DEFAULT_TENANT = "default"


class AuthError(Exception):
    """A request failed tenant resolution."""

    def __init__(self, code: str, message: str):
        self.code = code
        self.message = message
        super().__init__(f"{code}: {message}")

    def to_response(self) -> ApiResponse:
        return ApiResponse.fail(self.code, self.message)


@dataclass
class Tenant:
    """One tenant's isolated serving state."""

    name: str
    emulator: ConcurrentEmulator
    backend: object           # the full stack the endpoint dispatches to
    endpoint: JsonEndpoint

    @property
    def log(self) -> AdmittedLog | None:
        return self.emulator.log


class TenantRouter:
    """Resolves API keys to isolated per-tenant backends.

    ``emulator_factory`` builds one fresh base
    :class:`~repro.interpreter.Emulator` per tenant (typically
    ``build.make_backend`` with a shared compiled module);
    ``wrap`` optionally interposes a proxy stack (chaos, resilience)
    *outside* the concurrency layer.  ``guard`` is installed by the
    front door: it wraps the outermost backend with validation and
    admission control before the endpoint sees it.
    """

    def __init__(
        self,
        emulator_factory,
        max_tenants: int = 32,
        require_key: bool = False,
        wrap=None,
        guard=None,
        telemetry=None,
        seed: int = 1,
    ):
        self.emulator_factory = emulator_factory
        self.max_tenants = max_tenants
        self.require_key = require_key
        self.wrap = wrap
        self.guard = guard
        self.telemetry = telemetry
        self.seed = seed
        self._tenants: dict[str, Tenant] = {}
        self._lock = threading.Lock()
        #: One commit-ordered log shared by every tenant (records are
        #: tenant-tagged; per-tenant order is what linearizability
        #: replays).
        self.admitted = AdmittedLog()

    # -- resolution ----------------------------------------------------------

    def resolve(self, api_key: str | None) -> Tenant:
        """The tenant for ``api_key``, created on first use."""
        if not api_key:
            if self.require_key:
                raise AuthError(
                    MISSING_TOKEN,
                    "Request is missing an authentication token.",
                )
            api_key = DEFAULT_TENANT
        tenant = self._tenants.get(api_key)
        if tenant is not None:
            return tenant
        with self._lock:
            tenant = self._tenants.get(api_key)
            if tenant is not None:
                return tenant
            if len(self._tenants) >= self.max_tenants:
                raise AuthError(
                    UNRECOGNIZED_CLIENT,
                    "The security token included in the request is "
                    "invalid (tenant table is full).",
                )
            tenant = self._make_tenant(api_key)
            self._tenants[api_key] = tenant
            if self.telemetry is not None:
                self.telemetry.metrics.counter("serve.tenants").inc()
            return tenant

    def _make_tenant(self, name: str) -> Tenant:
        concurrent = ConcurrentEmulator(
            self.emulator_factory(), tenant=name, log=self.admitted,
            telemetry=self.telemetry,
        )
        backend = concurrent if self.wrap is None else self.wrap(concurrent)
        guarded = (
            backend if self.guard is None else self.guard(name, backend)
        )
        endpoint = JsonEndpoint(
            backend=guarded,
            seed=self.seed + len(self._tenants),
            telemetry=self.telemetry,
        )
        return Tenant(
            name=name, emulator=concurrent, backend=guarded,
            endpoint=endpoint,
        )

    # -- introspection -------------------------------------------------------

    def tenants(self) -> list[Tenant]:
        with self._lock:
            return list(self._tenants.values())

    def get(self, name: str) -> Tenant | None:
        return self._tenants.get(name)

    def __len__(self) -> int:
        with self._lock:
            return len(self._tenants)
