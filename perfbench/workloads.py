"""The three serve workloads: set-up, seeded traffic, and the correctness model.

Every workload serves the learned EC2 emulator (built from its docs at
set-up, as a user's test suite would) behind a front door, and talks to
it the way the repository's own load generator does: a JSON request
text goes in, the server side decodes it, runs ``FrontDoor.dispatch``
(envelope, tenancy, observability plane, validation, admission,
concurrency, interpreter) and encodes the reply, and JSON text comes
back.  ``FrontDoor.handle`` is not used because it skips the
observability plane's per-request root span and sampling, which
``read-obs`` exists to measure.

Resources are VPCs, subnets (``/28`` slices of their VPC) and security
groups.  The client keeps a model of every resource it created and
checks each describe reply against it, so a wrong answer fails the run.
Writes are size-neutral: security-group create/delete churn alternates
per tenant, and ``ModifyVpcAttribute`` flips a flag.  The order of
request kinds is a fixed schedule; the seed picks the targets.
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

from repro.core import build_learned_emulator
from repro.obs import ObsPlane, default_slos
from repro.serve import AllocationConfig, FrontDoor, ShardedFrontDoor
from repro.serve.loadgen import verify_linearizable
from repro.telemetry import Telemetry

#: Virtual seconds the client advances the shared clock after each
#: request: well under every admission rate in use (independent buckets
#: refill 50 tokens/s per tenant; the holistic pool 200/s), so windows
#: roll over and nothing sheds by design.
CLOCK_STEP = 0.05

#: Writes per tenant between the shard worker's full snapshots (the
#: ``ShardedFrontDoor`` default, restated so the benchmark can tell
#: which writes paid for one).
SNAPSHOT_INTERVAL = 16


class CheckFailed(Exception):
    """A reply disagreed with the client's model of the registry."""


class Tenant:
    """The client's model of one tenant's resources."""

    def __init__(self, key: str):
        self.key = key
        #: vpc id -> {"cidr", "hostnames", "subnets": [cidr, ...]}
        self.vpcs: dict[str, dict] = {}
        self.vpc_ids: list[str] = []
        #: subnet id -> (cidr, vpc id)
        self.subnets: dict[str, tuple[str, str]] = {}
        self.subnet_ids: list[str] = []
        #: sg id -> (group name, vpc id)
        self.sgs: dict[str, tuple[str, str]] = {}
        self.sg_ids: list[str] = []
        self.churn_pending = False
        self.created_groups = 0
        #: Writes confirmed (prefill included), for snapshot accounting.
        self.writes = 0
        #: Requests issued by the traffic schedule, in all and per class.
        self.issued = 0
        self.issued_reads = 0
        self.issued_writes = 0

    @property
    def size(self) -> int:
        return len(self.vpcs) + len(self.subnets) + len(self.sgs)


def _every(index: int, share: float) -> bool:
    """Whether the ``index``-th event is one of an evenly spread
    ``share`` of all events."""
    return int((index + 1) * share) > int(index * share)


def _vpc_cidr(index: int) -> str:
    return f"10.{index}.0.0/16"


def _subnet_cidr(vpc_index: int, index: int) -> str:
    return f"10.{vpc_index}.{index // 16}.{(index % 16) * 16}/28"


class Workload:
    """One seeded, closed-loop serve workload.

    Subclasses set the layout and the traffic mix and build the front
    door; ``run.py`` calls :meth:`setup`, then :meth:`next_op` /
    :meth:`serve` / :meth:`check` per request, then :meth:`gate`.
    """

    name = ""
    #: (tenants, vpcs per tenant, subnets per vpc, groups per vpc)
    layout = (1, 1, 1, 1)
    #: Share of requests that are describes.
    read_share = 0.9
    #: Share of writes that are group churn (the rest flip a VPC flag).
    churn_share = 1.0
    #: Client threads; each drives its own tenants.
    clients = 1
    #: Requests per timed block (split evenly across clients), sized to
    #: about 25 ms on the reference host.
    block_requests = 24
    #: The clock a request's latency is read from.  In process, a request
    #: runs start to finish on its client thread, so its thread CPU time
    #: is its latency minus the host preempting the vCPU (the probe is
    #: read from the same clock).  Across processes, wall time.
    latency_clock = staticmethod(time.thread_time)

    def __init__(self, seed: int, data_dir: Path):
        self.seed = seed
        self.data_dir = data_dir
        self.tenants: list[Tenant] = []
        self.front = None
        self.telemetry = None
        self.clock = None
        self.start_size = 0

    # -- set-up -------------------------------------------------------------

    def build_front(self, build):
        raise NotImplementedError

    def setup(self, mark) -> None:
        """Build the emulator, start the front door, prefill the tenants
        through the public path.  ``mark`` is called between phases (and
        every few dozen prefill requests) so the caller can interleave
        its host-speed probe."""
        build = build_learned_emulator("ec2", mode="constrained", seed=7)
        mark()
        self.front = self.build_front(build)
        self.clock = self.front.clock
        mark()
        count, vpcs, subnets, groups = self.layout
        for t in range(count):
            self.tenants.append(Tenant(f"tenant-{t}"))
        issued = 0
        for tenant in self.tenants:
            for v in range(vpcs):
                cidr = _vpc_cidr(v)
                body = self._expect_ok(tenant, "CreateVpc",
                                       {"CidrBlock": cidr})
                tenant.vpcs[body["id"]] = {
                    "cidr": cidr, "hostnames": False, "subnets": [],
                }
                tenant.vpc_ids.append(body["id"])
            for v, vpc_id in enumerate(tenant.vpc_ids):
                for s in range(subnets):
                    cidr = _subnet_cidr(v, s)
                    body = self._expect_ok(tenant, "CreateSubnet", {
                        "VpcId": vpc_id, "CidrBlock": cidr,
                    })
                    tenant.subnets[body["id"]] = (cidr, vpc_id)
                    tenant.subnet_ids.append(body["id"])
                    tenant.vpcs[vpc_id]["subnets"].append(cidr)
                for __ in range(groups):
                    self._create_group(tenant, vpc_id)
                issued += subnets + groups
                if issued >= 200:
                    issued = 0
                    mark()

    def _expect_ok(self, tenant: Tenant, api: str, params: dict) -> dict:
        body = json.loads(self.serve(tenant.key, json.dumps(
            {"Action": api, "Parameters": params})))
        self.clock.sleep(CLOCK_STEP)
        if not api.startswith("Describe"):
            tenant.writes += 1
        if "Error" in body:
            raise CheckFailed(f"{api} {params}: {body['Error']}")
        return body

    def _create_group(self, tenant: Tenant, vpc_id: str) -> None:
        tenant.created_groups += 1
        name = f"{tenant.key}-g{tenant.created_groups}"
        body = self._expect_ok(tenant, "CreateSecurityGroup", {
            "GroupName": name, "Description": "perfbench", "VpcId": vpc_id,
        })
        tenant.sgs[body["id"]] = (name, vpc_id)
        tenant.sg_ids.append(body["id"])

    # -- the wire -------------------------------------------------------------

    def serve(self, key: str, payload: str) -> str:
        """The server side of one wire request: decode, dispatch, encode."""
        return json.dumps(self.front.dispatch(json.loads(payload),
                                              api_key=key))

    # -- traffic ------------------------------------------------------------

    def client_tenants(self, client: int) -> list[Tenant]:
        return self.tenants[client::self.clients]

    def next_op(self, rng: random.Random, tenants: list[Tenant], step: int):
        """The ``step``-th request of a client:
        ``(tenant, is_read, api, payload, expect)``.

        The schedule of kinds is fixed: tenants take turns, and each
        tenant's reads and writes (and within them the resource types
        and write kinds) are spread evenly in the configured shares.
        Only the targets (which VPC, subnet or group) come from the
        seeded ``rng``, so every seed runs the same mix in the same
        order, and allocation-driven costs such as collector pauses
        land alike.  ``expect`` is what the reply must contain; for
        writes the model is updated by :meth:`check` once the reply
        confirms the write.
        """
        tenant = tenants[step % len(tenants)]
        tenant.issued += 1
        if not _every(tenant.issued - 1, 1.0 - self.read_share):
            kind = tenant.issued_reads % 3
            tenant.issued_reads += 1
            if kind == 0:
                vpc_id = tenant.vpc_ids[rng.randrange(len(tenant.vpc_ids))]
                vpc = tenant.vpcs[vpc_id]
                return (tenant, True, "DescribeVpcs", {"VpcId": vpc_id}, {
                    "cidr_block": vpc["cidr"],
                    "enable_dns_hostnames": vpc["hostnames"],
                    "subnet_cidrs": list(vpc["subnets"]),
                })
            if kind == 1:
                subnet_id = tenant.subnet_ids[
                    rng.randrange(len(tenant.subnet_ids))]
                cidr, vpc_id = tenant.subnets[subnet_id]
                return (tenant, True, "DescribeSubnets",
                        {"SubnetId": subnet_id},
                        {"cidr_block": cidr, "vpc": vpc_id})
            sg_id = tenant.sg_ids[rng.randrange(len(tenant.sg_ids))]
            name, vpc_id = tenant.sgs[sg_id]
            return (tenant, True, "DescribeSecurityGroups",
                    {"SecurityGroupId": sg_id},
                    {"group_name": name, "vpc": vpc_id})
        tenant.issued_writes += 1
        if _every(tenant.issued_writes - 1, self.churn_share):
            if tenant.churn_pending:
                index = rng.randrange(len(tenant.sg_ids))
                sg_id = tenant.sg_ids[index]
                return (tenant, False, "DeleteSecurityGroup",
                        {"SecurityGroupId": sg_id}, {"index": index})
            vpc_id = tenant.vpc_ids[rng.randrange(len(tenant.vpc_ids))]
            name = f"{tenant.key}-g{tenant.created_groups + 1}"
            return (tenant, False, "CreateSecurityGroup", {
                "GroupName": name, "Description": "perfbench",
                "VpcId": vpc_id,
            }, {})
        vpc_id = tenant.vpc_ids[rng.randrange(len(tenant.vpc_ids))]
        flag = not tenant.vpcs[vpc_id]["hostnames"]
        return (tenant, False, "ModifyVpcAttribute",
                {"VpcId": vpc_id, "EnableDnsHostnames": flag}, {})

    @staticmethod
    def payload(api: str, params: dict) -> str:
        return json.dumps({"Action": api, "Parameters": params})

    def check(self, tenant: Tenant, api: str, params: dict, expect: dict,
              reply: str) -> None:
        """Hold one reply to the model; apply confirmed writes to it."""
        body = json.loads(reply)
        if "Error" in body:
            raise CheckFailed(f"{api} {params}: {body['Error']}")
        if api.startswith("Describe"):
            for key, want in expect.items():
                if body.get(key) != want:
                    raise CheckFailed(
                        f"{api} {params}: {key}={body.get(key)!r}, "
                        f"expected {want!r}")
            return
        tenant.writes += 1
        if api == "CreateSecurityGroup":
            sg_id = body.get("id", "")
            if not sg_id.startswith("sg-") or sg_id in tenant.sgs:
                raise CheckFailed(f"CreateSecurityGroup returned {sg_id!r}")
            tenant.created_groups += 1
            tenant.sgs[sg_id] = (params["GroupName"], params["VpcId"])
            tenant.sg_ids.append(sg_id)
            tenant.churn_pending = True
        elif api == "DeleteSecurityGroup":
            index = expect["index"]
            sg_id = tenant.sg_ids[index]
            tenant.sg_ids[index] = tenant.sg_ids[-1]
            tenant.sg_ids.pop()
            del tenant.sgs[sg_id]
            tenant.churn_pending = False
        elif api == "ModifyVpcAttribute":
            tenant.vpcs[params["VpcId"]]["hostnames"] = (
                params["EnableDnsHostnames"])

    # -- the end-of-run gate --------------------------------------------------

    def gate(self) -> list[str]:
        """Correctness problems found after the timed blocks (empty: ok)."""
        problems = []
        verify = getattr(self.front, "verify_linearizable", None)
        if verify is not None:
            ok, mismatches = verify()
        else:
            ok, mismatches = verify_linearizable(self.front)
        if not ok:
            problems.extend(f"linearizability: {m}" for m in mismatches[:5])
        if self.read_lock_acquisitions():
            problems.append(
                f"{self.read_lock_acquisitions()} MVCC read(s) took a lock")
        degraded = self.degraded_tenants()
        if degraded:
            problems.append(f"admission degraded tenant(s) {degraded}")
        if self.restarts():
            problems.append(f"{self.restarts()} shard restart(s)")
        end_size = self.registry_size()
        if abs(end_size - self.start_size) > 0.01 * self.start_size:
            problems.append(
                f"registry grew from {self.start_size} to {end_size}")
        modelled = sum(tenant.size for tenant in self.tenants)
        if end_size != modelled:
            problems.append(
                f"registry holds {end_size} resources, client made {modelled}")
        return problems

    def registry_size(self) -> int:
        """Resources the server holds, over all tenants."""
        return sum(len(tenant.emulator.registry)
                   for tenant in self.front.router.tenants())

    def read_lock_acquisitions(self) -> int:
        return sum(
            tenant.emulator.lock.read_acquisitions
            for tenant in self.front.router.tenants()
        )

    def degraded_tenants(self) -> list[str]:
        """Tenants admission put in degraded mode (every shed reply
        already fails its request's check; this catches the shed that
        degraded a tenant yet still answered its read)."""
        meters = self.front.admission._meters
        return sorted(name for name, meter in meters.items()
                      if meter.degraded)

    def counters(self) -> dict:
        """Cumulative program counters the traced run takes deltas of."""
        out = {}
        telemetry = self.telemetry
        if telemetry is not None:
            out["telemetry.spans"] = telemetry.tracer.span_count
            if telemetry.obs is not None:
                out["obs.seen"] = telemetry.obs.sampler.seen
                out["obs.kept"] = telemetry.obs.sampler.kept
        if self.front.allocator is not None:
            out["allocation.reallocations"] = (
                self.front.allocator.reallocations)
        return out

    def snapshot_bytes(self) -> float:
        return 0.0

    def restarts(self) -> int:
        return 0

    def pids(self) -> list[int]:
        return [os.getpid()]

    def facts(self) -> dict:
        return {"tenants": len(self.tenants), "resources": self.start_size}

    def close(self) -> None:
        pass


class ReadObs(Workload):
    """Obs-heavy reads at 10^2 resources per tenant."""

    name = "read-obs"
    layout = (4, 4, 12, 12)
    read_share = 0.9
    churn_share = 1.0
    block_requests = 200

    def build_front(self, build):
        self.telemetry = Telemetry(service="ec2")
        ObsPlane(self.telemetry, seed=self.seed,
                 slos=default_slos([f"tenant-{t}"
                                    for t in range(self.layout[0])]))
        return FrontDoor(build.module, build.make_backend,
                         telemetry=self.telemetry, seed=self.seed)


class WriteLarge(Workload):
    """Size-neutral writes against one 10^4-resource tenant, no obs."""

    name = "write-large"
    layout = (1, 200, 25, 24)
    read_share = 0.6
    churn_share = 0.5
    block_requests = 60

    def build_front(self, build):
        return FrontDoor(build.module, build.make_backend, seed=self.seed)


class ShardedRpc(Workload):
    """Two tenants of 10^3 resources behind one shard worker process."""

    name = "sharded-rpc"
    layout = (2, 20, 25, 24)
    read_share = 0.7
    churn_share = 0.5
    clients = 2
    block_requests = 24
    latency_clock = staticmethod(time.perf_counter)

    def build_front(self, build):
        self.telemetry = Telemetry(service="ec2")
        ObsPlane(self.telemetry, seed=self.seed,
                 slos=default_slos([f"tenant-{t}"
                                    for t in range(self.layout[0])]))
        return ShardedFrontDoor(
            build.module, build.make_backend, shards=1,
            data_dir=self.data_dir, snapshot_interval=SNAPSHOT_INTERVAL,
            telemetry=self.telemetry, allocation=AllocationConfig(),
            seed=self.seed,
        )

    def read_lock_acquisitions(self) -> int:
        return self.front.mvcc_stats()["read_lock_acquisitions"]

    def restarts(self) -> int:
        return self.front.supervisor.restarts

    def registry_size(self) -> int:
        supervisor = self.front.supervisor
        return sum(
            len(supervisor.snapshot(supervisor.shard_for(tenant.key),
                                    tenant.key)["instances"])
            for tenant in self.tenants
        )

    def pids(self) -> list[int]:
        return [os.getpid()] + [
            handle.process.pid for handle in self.front.supervisor._handles
        ]

    def snapshot_write(self, tenant: Tenant) -> bool:
        """Whether the write just confirmed for ``tenant`` made the
        worker take a full snapshot (every ``SNAPSHOT_INTERVAL``-th
        write per tenant, prefill included)."""
        return tenant.writes % SNAPSHOT_INTERVAL == 0

    def snapshot_bytes(self) -> float:
        files = list(
            Path(self.data_dir).glob("shard-*/tenant-*.snapshot.json"))
        if not files:
            return 0.0
        return sum(path.stat().st_size for path in files) / len(files)

    def close(self) -> None:
        if self.front is not None:
            self.front.close()


WORKLOADS = {cls.name: cls for cls in (ReadObs, WriteLarge, ShardedRpc)}
