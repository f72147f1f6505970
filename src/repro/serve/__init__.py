"""The hardened concurrent serving layer.

``repro.serve`` turns a single-threaded learned emulator into a
production-shaped, multi-tenant service front end:

- :mod:`concurrency` — thread-safe dispatch (lock-free pinned reads,
  serialized writes) and the commit-ordered admitted-request log;
- :mod:`mvcc` — the version chain and reader pins behind those reads;
- :mod:`validation` — spec-derived request validation;
- :mod:`admission` — per-tenant token buckets, the bounded admission
  queue and degraded-mode overload shedding;
- :mod:`tenancy` — per-API-key registry namespaces;
- :mod:`frontdoor` — the composed stack;
- :mod:`loadgen` — the deterministic seeded load generator and the
  serial-replay linearizability check behind ``repro serve-bench``;
- :mod:`shard` — crash-tolerant multi-process sharding: the worker
  supervisor, heartbeat failure detection, WAL-replay shard recovery
  and the sharded front door behind ``serve-bench --shards``;
- :mod:`allocation` — holistic weighted max-min fair allocation of
  rate/slot/queue budgets across tenants and shards, with per-tenant
  retry side-budgets (``serve-bench --fair``);
- :mod:`deadline` — request-meta deadline propagation and the
  ``ExpiredBeforeDispatch`` shed shape.
"""

from .admission import (
    AdmissionController,
    AdmissionDecision,
    OVERLOADED,
    THROTTLED,
    TenantMeter,
)
from .allocation import (
    AllocationConfig,
    HolisticAllocator,
    TenantAllocation,
)
from .concurrency import AdmittedLog, ConcurrentEmulator
from .deadline import (
    DeadlineError,
    EXPIRED_CODE,
    EXPIRED_MARKER,
    RequestMeta,
    current_meta,
    request_meta,
)
from .frontdoor import ConfigError, FrontDoor
from .loadgen import LoadGenerator, LoadReport, verify_linearizable
from .shard import (
    ShardConfig,
    ShardedFrontDoor,
    ShardLog,
    ShardSupervisor,
    ShardTenantRouter,
    parse_kill_schedule,
    shard_for,
)
from .tenancy import (
    AuthError,
    DEFAULT_TENANT,
    MISSING_TOKEN,
    Tenant,
    TenantRouter,
    UNRECOGNIZED_CLIENT,
)
from .validation import RequestValidator, VALIDATION_ERROR

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmittedLog",
    "AllocationConfig",
    "AuthError",
    "ConcurrentEmulator",
    "ConfigError",
    "DeadlineError",
    "DEFAULT_TENANT",
    "EXPIRED_CODE",
    "EXPIRED_MARKER",
    "FrontDoor",
    "HolisticAllocator",
    "LoadGenerator",
    "LoadReport",
    "MISSING_TOKEN",
    "OVERLOADED",
    "RequestValidator",
    "ShardConfig",
    "ShardLog",
    "ShardSupervisor",
    "ShardTenantRouter",
    "ShardedFrontDoor",
    "THROTTLED",
    "Tenant",
    "TenantAllocation",
    "TenantMeter",
    "TenantRouter",
    "RequestMeta",
    "UNRECOGNIZED_CLIENT",
    "VALIDATION_ERROR",
    "current_meta",
    "parse_kill_schedule",
    "request_meta",
    "shard_for",
    "verify_linearizable",
]
