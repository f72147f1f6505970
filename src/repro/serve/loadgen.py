"""Deterministic seeded load generation and the linearizability check.

``serve-bench`` drives open-loop traffic at configurable concurrency
and read/write mix through a :class:`~repro.serve.frontdoor.FrontDoor`
— optionally under a chaos profile — then *proves* the concurrent run
was linearizable: the admitted-request log, replayed serially against
a fresh emulator, must produce a registry byte-identical to the
concurrent run's final snapshot.  Zero lost, duplicated or torn
mutations, by construction checked rather than asserted.

Traffic is deterministic per ``(seed, worker)``: each worker derives
its own RNG stream, so the *offered* request sequence never depends on
thread scheduling (the interleaving does, which is the point — the
check must hold for every interleaving).  Virtual time advances
``1/offered_rate`` clock-seconds per request, so the token buckets see
a load expressed as a rate, not as wall time.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field

from ..interpreter.emulator import normalize_key
from ..spec import ast


@dataclass
class LoadReport:
    """What one load run offered, received and proved."""

    requests: int = 0
    reads: int = 0
    writes: int = 0
    by_code: dict = field(default_factory=dict)  # "" = success
    shed: int = 0
    admitted_writes: int = 0
    workers: int = 0
    tenants: int = 0
    wall_seconds: float = 0.0
    linearizable: bool | None = None
    mismatches: list = field(default_factory=list)
    #: Reads answered from a trailing replica (netem stale serving).
    stale_reads: int = 0
    #: Retry-After honoring: how many shed responses carried a hint
    #: the generator slept on, the virtual seconds slept, and a
    #: bounded sample of the honored request records.
    retry_after_honored: int = 0
    retry_after_seconds: float = 0.0
    retry_after_log: list = field(default_factory=list)
    #: Shard-failover backoff, accounted separately from admission
    #: sheds: responses carrying the ``ShardUnavailable`` marker whose
    #: Retry-After the generator slept on, the virtual seconds waited,
    #: and a bounded per-request log of the failover waits.
    failover_honored: int = 0
    failover_seconds: float = 0.0
    failover_log: list = field(default_factory=list)
    #: Per-tenant outcome splits — the raw material of fairness
    #: claims: ``{tenant: {"requests", "ok", "shed"}}``.
    by_tenant: dict = field(default_factory=dict)
    #: Requests shed with ``ExpiredBeforeDispatch`` (the propagated
    #: deadline died before any layer did work).
    deadline_expired: int = 0
    #: Retries the generator re-offered (``Retry: true``) after
    #: honoring a shed's Retry-After, and how many of those bounced
    #: off an exhausted retry side-budget.
    retries_sent: int = 0
    retry_budget_exhausted: int = 0
    #: The observability plane's summary (SLO budgets, burn alerts,
    #: sampling, drift) when one was attached to the front door.
    obs: dict | None = None
    #: Aggregated MVCC version accounting across tenants (publishes,
    #: reclaimed, pinned reads; see
    #: :func:`~repro.serve.concurrency.sum_version_stats`) — ``None``
    #: until a verifying run collects it.
    mvcc: dict | None = None

    @property
    def throughput_rps(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.requests / self.wall_seconds

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "reads": self.reads,
            "writes": self.writes,
            "by_code": dict(sorted(self.by_code.items())),
            "shed": self.shed,
            "admitted_writes": self.admitted_writes,
            "workers": self.workers,
            "tenants": self.tenants,
            "wall_seconds": round(self.wall_seconds, 6),
            "throughput_rps": round(self.throughput_rps, 3),
            "linearizable": self.linearizable,
            "mismatches": list(self.mismatches),
            "stale_reads": self.stale_reads,
            "retry_after_honored": self.retry_after_honored,
            "retry_after_seconds": round(self.retry_after_seconds, 6),
            "retry_after_log": list(self.retry_after_log),
            "failover_honored": self.failover_honored,
            "failover_seconds": round(self.failover_seconds, 6),
            "failover_log": list(self.failover_log),
            "by_tenant": {
                tenant: dict(split)
                for tenant, split in sorted(self.by_tenant.items())
            },
            "deadline_expired": self.deadline_expired,
            "retries_sent": self.retries_sent,
            "retry_budget_exhausted": self.retry_budget_exhausted,
            "obs": self.obs,
            "mvcc": self.mvcc,
        }


#: Shed codes the admission layer produces.
SHED_CODES = frozenset({"RequestLimitExceeded", "ServiceUnavailable"})


class _TrafficModel:
    """Seeded request synthesis over one module's API surface."""

    def __init__(self, module: ast.SpecModule, classifier):
        self.module = module
        self._index = {
            api: (sm_name, transition)
            for api, (sm_name, transition)
            in module.transition_index().items()
            if not api.startswith("_")
        }
        self.reads = sorted(
            api for api in self._index if classifier(api)
        )
        self.creates = sorted(
            api for api, (__, t) in self._index.items()
            if t.category == "create"
        )
        self.other_writes = sorted(
            api for api in self._index
            if api not in self.reads and api not in self.creates
        )

    def owning_sm(self, api: str) -> str:
        return self._index[api][0]

    def _value(self, rng, param, ids_by_sm: dict) -> object:
        type_ = param.type
        norm = normalize_key(param.name)
        if type_.kind == "sm" or norm.endswith("id"):
            pool = ids_by_sm.get(type_.sm_name) if type_.sm_name else None
            if not pool:
                pool = [
                    value
                    for values in ids_by_sm.values() for value in values
                ]
            if pool and rng.random() < 0.9:
                return rng.choice(pool[-8:])
            return f"missing-{norm}"
        if "cidr" in norm:
            return rng.choice((
                "10.0.0.0/16", "10.1.0.0/16", "10.0.1.0/24",
                "10.0.2.0/24", "192.168.0.0/20",
            ))
        if type_.kind == "bool":
            return rng.random() < 0.5
        if type_.kind == "int":
            return rng.randrange(1, 8)
        if type_.kind == "enum" and type_.enum_values:
            return rng.choice(type_.enum_values)
        if type_.kind == "list":
            return []
        if type_.kind == "map":
            return {"Name": f"lg-{rng.randrange(100)}"}
        return rng.choice(("name", "default", "standard", "primary"))

    def request(self, rng, read_ratio: float,
                ids_by_sm: dict) -> tuple[str, dict, bool]:
        """One deterministic request: (api, params, is_read)."""
        if self.reads and rng.random() < read_ratio:
            api = rng.choice(self.reads)
            is_read = True
        elif self.creates and (not ids_by_sm or rng.random() < 0.6):
            api = rng.choice(self.creates)
            is_read = False
        elif self.other_writes:
            api = rng.choice(self.other_writes)
            is_read = False
        else:
            api = rng.choice(self.creates or self.reads)
            is_read = not self.creates
        __, transition = self._index[api]
        params = {
            param.name: self._value(rng, param, ids_by_sm)
            for param in transition.params
            if rng.random() >= 0.05  # occasionally omit one
        }
        return api, params, is_read


class LoadGenerator:
    """Drives deterministic concurrent traffic through a front door."""

    def __init__(
        self,
        frontdoor,
        seed: int = 11,
        workers: int = 8,
        requests_per_worker: int = 250,
        read_ratio: float = 0.7,
        tenants: int = 1,
        offered_rate: float | None = None,
        latency: float = 0.0,
        honor_retry_after: bool = True,
        max_retry_after: float = 5.0,
        aggressor: str | None = None,
        aggressor_weight: float = 10.0,
        deadline: float | None = None,
        retry_shed: bool = False,
    ):
        self.frontdoor = frontdoor
        self.seed = seed
        self.workers = workers
        self.requests_per_worker = requests_per_worker
        self.read_ratio = read_ratio
        self.tenant_names = [
            f"tenant-{index}" for index in range(max(1, tenants))
        ]
        #: Requests per virtual clock-second offered to the buckets
        #: (None: advance the clock generously so rate never sheds).
        self.offered_rate = offered_rate
        self.latency = latency
        #: Back off by the admission layer's own Retry-After hint —
        #: *full-jittered*: the actual wait is uniform in
        #: ``[0, min(hint, max_retry_after)]``, so a cohort of shed
        #: clients desynchronizes instead of returning as one
        #: thundering herd when the hint elapses.
        self.honor_retry_after = honor_retry_after
        self.max_retry_after = max_retry_after
        #: The noisy neighbor: this tenant is offered
        #: ``aggressor_weight`` times more traffic than each victim.
        self.aggressor = aggressor
        self.aggressor_weight = aggressor_weight
        #: When set, every envelope carries ``DeadlineSeconds`` — the
        #: propagated budget the serving layers shed against.
        self.deadline = deadline
        #: Re-offer each shed request once, marked ``Retry: true``, so
        #: runs exercise the capped retry side-budget.
        self.retry_shed = retry_shed
        probe = frontdoor.emulator_factory()
        self.model = _TrafficModel(frontdoor.module, probe.read_only)

    def _pick_tenant(self, rng) -> str:
        if self.aggressor and self.aggressor in self.tenant_names:
            weights = [
                self.aggressor_weight if name == self.aggressor else 1.0
                for name in self.tenant_names
            ]
            return rng.choices(self.tenant_names, weights=weights)[0]
        return rng.choice(self.tenant_names)

    # -- drive ---------------------------------------------------------------

    def _worker(self, worker_index: int, report: LoadReport,
                lock: threading.Lock) -> None:
        import random

        rng = random.Random(self.seed * 1_000_003 + worker_index)
        clock = self.frontdoor.clock
        pace = (
            1.0 / self.offered_rate if self.offered_rate else None
        )
        ids_by_sm: dict[str, list[str]] = {}
        local_codes: dict[str, int] = {}
        local_tenants: dict[str, dict] = {}
        local_honored: list[dict] = []
        local_failover: list[dict] = []
        reads = writes = sheds = stale = 0
        honored = 0
        honored_seconds = 0.0
        failover = 0
        failover_seconds = 0.0
        expired = 0
        retries = 0
        retry_exhausted = 0
        for __ in range(self.requests_per_worker):
            tenant = self._pick_tenant(rng)
            api, params, is_read = self.model.request(
                rng, self.read_ratio, ids_by_sm
            )
            if pace is not None:
                clock.sleep(pace)
            else:
                clock.sleep(1.0)  # unconstrained: buckets never empty
            if self.latency:
                time.sleep(self.latency)
            envelope = {"Action": api, "Parameters": params}
            if self.deadline is not None:
                envelope["DeadlineSeconds"] = self.deadline
            body = self.frontdoor.dispatch(envelope, api_key=tenant)
            error = body.get("Error")
            code = error.get("Code", "") if error else ""
            local_codes[code] = local_codes.get(code, 0) + 1
            split = local_tenants.setdefault(
                tenant, {"requests": 0, "ok": 0, "shed": 0}
            )
            split["requests"] += 1
            if not error:
                split["ok"] += 1
            if is_read:
                reads += 1
            else:
                writes += 1
            if error and error.get("ExpiredBeforeDispatch") is True:
                expired += 1
                split["shed"] += 1
            if code in SHED_CODES:
                sheds += 1
                split["shed"] += 1
                hint = error.get("RetryAfterSeconds")
                if (
                    self.honor_retry_after
                    and isinstance(hint, (int, float))
                    and hint > 0
                ):
                    # Full jitter (AWS-style): sleep uniform in
                    # [0, min(hint, cap)] so a cohort of shed clients
                    # returns spread out, not as a synchronized herd.
                    cap = min(float(hint), self.max_retry_after)
                    delay = rng.uniform(0.0, cap)
                    clock.sleep(delay)
                    honored += 1
                    honored_seconds += delay
                    entry = {
                        "worker": worker_index,
                        "api": api,
                        "code": code,
                        "hint": round(float(hint), 6),
                        "honored": round(delay, 6),
                        "jittered": round(delay, 6),
                    }
                    # A shard-unavailable shed is a *failover* wait —
                    # honored the same way, accounted separately so a
                    # run can tell backpressure from a dying worker.
                    if error.get("ShardUnavailable"):
                        failover += 1
                        failover_seconds += delay
                        if len(local_failover) < 25:
                            local_failover.append(
                                {**entry, "shard": error.get("Shard")}
                            )
                    elif len(local_honored) < 25:
                        local_honored.append(entry)
                if self.retry_shed:
                    retries += 1
                    retry_env = dict(envelope)
                    retry_env["Retry"] = True
                    retry_body = self.frontdoor.dispatch(
                        retry_env, api_key=tenant
                    )
                    retry_error = retry_body.get("Error") or {}
                    if retry_error.get("RetryBudgetExhausted") is True:
                        retry_exhausted += 1
                    elif not retry_body.get("Error"):
                        created = retry_body.get("id")
                        if isinstance(created, str) and created:
                            sm = self.model.owning_sm(api)
                            ids_by_sm.setdefault(sm, []).append(created)
            if not error:
                if body.get("Stale") is True:
                    stale += 1
                created = body.get("id")
                if isinstance(created, str) and created:
                    sm = self.model.owning_sm(api)
                    ids_by_sm.setdefault(sm, []).append(created)
        with lock:
            report.requests += reads + writes
            report.reads += reads
            report.writes += writes
            report.shed += sheds
            report.stale_reads += stale
            report.retry_after_honored += honored
            report.retry_after_seconds += honored_seconds
            report.failover_honored += failover
            report.failover_seconds += failover_seconds
            report.deadline_expired += expired
            report.retries_sent += retries
            report.retry_budget_exhausted += retry_exhausted
            for tenant, split in local_tenants.items():
                merged = report.by_tenant.setdefault(
                    tenant, {"requests": 0, "ok": 0, "shed": 0}
                )
                for key, value in split.items():
                    merged[key] += value
            # Keep the honored-delay logs bounded across workers.
            room = 50 - len(report.retry_after_log)
            if room > 0:
                report.retry_after_log.extend(local_honored[:room])
            room = 50 - len(report.failover_log)
            if room > 0:
                report.failover_log.extend(local_failover[:room])
            for code, count in local_codes.items():
                report.by_code[code] = report.by_code.get(code, 0) + count

    def run(self, verify: bool = True) -> LoadReport:
        """Run the full load, then (optionally) prove linearizability."""
        report = LoadReport(
            workers=self.workers, tenants=len(self.tenant_names)
        )
        lock = threading.Lock()
        threads = [
            threading.Thread(
                target=self._worker, args=(index, report, lock),
                name=f"loadgen-{index}", daemon=True,
            )
            for index in range(self.workers)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        report.wall_seconds = time.perf_counter() - start
        report.admitted_writes = len(self.frontdoor.admitted)
        obs = getattr(self.frontdoor.telemetry, "obs", None)
        if obs is not None:
            report.obs = obs.report()
        if verify:
            ok, mismatches = self.frontdoor.verify_linearizable()
            report.linearizable = ok
            report.mismatches = mismatches
            report.mvcc = self.frontdoor.mvcc_stats()
        return report


# ---------------------------------------------------------------------------
# Linearizability: serial replay of the admitted log
# ---------------------------------------------------------------------------


def _canonical(snapshot: dict) -> str:
    snapshot = dict(snapshot)
    snapshot["wal_seq"] = 0  # replicas never carry a WAL
    # Region placements are assigned by the front door's network gate,
    # which the serial-replay replica runs without; they are routing
    # metadata, not API-visible state, so they are excluded from the
    # linearizability comparison.
    snapshot.pop("placements", None)
    return json.dumps(snapshot, sort_keys=True)


def replay_diff(emulator_factory, records, live: dict) -> str:
    """Serial replay of one tenant's write attempts vs its live state.

    Builds a fresh emulator from ``emulator_factory``, replays
    ``records`` (admitted-log records in commit order; ``_Reset``
    records reset the replica) and compares canonical snapshots
    byte-for-byte with the snapshot ``live``.  A lost, duplicated,
    torn or re-ordered mutation anywhere in the concurrent run shows up
    as a diff (IDs, state values and allocator counters are all in the
    snapshot).  Returns ``""`` when they match, else a short
    description of the difference.
    """
    replica = emulator_factory()
    for record in records:
        if record["api"] == "_Reset":
            replica.reset()
        else:
            replica.invoke(record["api"], record["params"])
    want = _canonical(live)
    got = _canonical(replica.snapshot())
    if want == got:
        return ""
    return f"live {len(want)}B != replay {len(got)}B"


def verify_linearizable(frontdoor) -> tuple[bool, list[str]]:
    """``frontdoor.verify_linearizable()``; see
    :meth:`repro.serve.frontdoor.FrontDoor.verify_linearizable`."""
    return frontdoor.verify_linearizable()
