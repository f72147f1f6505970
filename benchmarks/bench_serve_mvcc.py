"""Lock-free MVCC serve reads: the scaling proof and its guardrails.

The MVCC refactor's claim has three measurable parts, each pinned
here against the RW-lock fallback measured by
``bench_serve_concurrency.py`` (the committed baseline):

1. **Reads scale without locking.**  The same modeled-service-latency
   methodology as the lock bench — a real ``time.sleep`` per request,
   released-GIL I/O stand-in — but through a wrapper that forwards the
   versioned-read surface, so the concurrency layer pins published
   registry versions instead of taking the shared lock.  The proof of
   "zero locking" is a counter, not an adjective: the tenant's RW lock
   must record **0** read acquisitions over the whole run.

2. **Reads do not stall behind writes.**  Under the RW lock, one
   writer holding the exclusive side stalls every reader for its full
   modeled service time; under MVCC, readers keep dispatching against
   the last published version.  The bench runs the same read load
   under continuous write churn in both modes and requires MVCC to
   come out strictly ahead — this is the structural gap, robust to
   scheduler noise in a way raw scaling ratios are not.

3. **Writes pay almost nothing for it, at any registry size.**
   Publishing a version after each commit copies only the chunks of
   the structurally shared version map that the commit touched, plus
   the chunk list (see :mod:`repro.interpreter.versionmap`);
   steady-state write throughput (no modeled latency — raw dispatch,
   where the publish cost would actually show) must stay within 10%
   of the RW-lock fallback's, and raw write latency at 10^4 resources
   must stay within 1.5x of its value at 10^2.

A clean and a hostile-chaos 8-worker soak close the file: serial
replay linearizability and snapshot byte-identity must hold while the
read path stays lock-free.
"""

import os
import threading
import time

from repro.resilience.chaos import ChaosEngine, ChaosProxy, HOSTILE_PROFILE
from repro.serve import ConcurrentEmulator, FrontDoor, LoadGenerator

#: Modeled per-request service time (seconds) — same figure as the
#: RW-lock bench so the two JSONs are directly comparable.
SERVICE_LATENCY_S = 0.002


class _ModeledMvccEmulator:
    """A modeled-latency emulator that keeps the versioned-read surface.

    The lock bench's wrapper deliberately hides ``invoke_at`` so the
    concurrency layer falls back to the RW lock; this one forwards the
    whole MVCC surface, so the same modeled workload runs lock-free.
    """

    def __init__(self, inner, latency: float = SERVICE_LATENCY_S):
        self.inner = inner
        self.latency = latency
        self.mvcc = inner.mvcc

    def api_names(self):
        return self.inner.api_names()

    def supports(self, api):
        return self.inner.supports(api)

    def read_only(self, api):
        return self.inner.read_only(api)

    def reset(self):
        self.inner.reset()

    def snapshot(self):
        return self.inner.snapshot()

    def restore(self, snapshot):
        self.inner.restore(snapshot)

    def recover(self, snapshot, records=None):
        return self.inner.recover(snapshot, records)

    @property
    def registry(self):
        return self.inner.registry

    @property
    def wal_seq(self):
        return self.inner.wal_seq

    def publish_version(self):
        return self.inner.publish_version()

    def invoke(self, api, params=None):
        time.sleep(self.latency)
        return self.inner.invoke(api, params)

    def invoke_at(self, version, api, params=None):
        time.sleep(self.latency)
        return self.inner.invoke_at(version, api, params)

    def reference_invoke(self, api, params=None, at=None):
        return self.inner.reference_invoke(api, params, at=at)


def _read_throughput(front: FrontDoor, vpc: str, workers: int,
                     reads_per_worker: int) -> float:
    """Wall-clock read throughput at a given worker count."""
    start_line = threading.Barrier(workers + 1)
    failures: list[str] = []

    def reader():
        start_line.wait()
        for __ in range(reads_per_worker):
            response = front.invoke(
                "DescribeVpcs", {"VpcId": vpc}, api_key="bench"
            )
            if not response.success:
                failures.append(response.error_code)

    threads = [threading.Thread(target=reader) for __ in range(workers)]
    for thread in threads:
        thread.start()
    start_line.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    assert not failures, failures[:3]
    return (workers * reads_per_worker) / elapsed


def _make_front(build, mvcc: bool) -> FrontDoor:
    if mvcc:
        factory = lambda: _ModeledMvccEmulator(build.make_backend())  # noqa: E731
    else:
        # Same modeled wrapper shape, but without the MVCC surface —
        # the concurrency layer auto-selects the RW-lock fallback.
        factory = lambda: _LockedModeled(build.make_backend())  # noqa: E731
    return FrontDoor(
        build.module, factory,
        rate=1e9, burst=1e9, max_concurrent=64, queue_depth=256,
    )


class _LockedModeled:
    """The RW-lock twin: modeled latency, no versioned-read surface."""

    def __init__(self, inner, latency: float = SERVICE_LATENCY_S):
        self.inner = inner
        self.latency = latency

    def api_names(self):
        return self.inner.api_names()

    def supports(self, api):
        return self.inner.supports(api)

    def read_only(self, api):
        return self.inner.read_only(api)

    def reset(self):
        self.inner.reset()

    def snapshot(self):
        return self.inner.snapshot()

    @property
    def registry(self):
        return self.inner.registry

    def invoke(self, api, params=None):
        time.sleep(self.latency)
        return self.inner.invoke(api, params)


def test_mvcc_read_path_scales_lock_free(learned_builds, bench_metrics):
    """8 pinned readers overlap fully — and the lock counter stays 0."""
    build = learned_builds["ec2"]
    front = _make_front(build, mvcc=True)
    created = front.invoke(
        "CreateVpc", {"CidrBlock": "10.0.0.0/16"}, api_key="bench"
    )
    assert created.success
    vpc = created.data["id"]

    tenant = front.router.get("bench")
    assert tenant.emulator.mvcc, "expected the lock-free MVCC path"

    backend = tenant.emulator.inner
    unlocked_calls = 80
    start = time.perf_counter()
    for __ in range(unlocked_calls):
        assert backend.invoke("DescribeVpcs", {"VpcId": vpc}).success
    unlocked = unlocked_calls / (time.perf_counter() - start)

    single = _read_throughput(front, vpc, workers=1, reads_per_worker=80)
    eight = _read_throughput(front, vpc, workers=8, reads_per_worker=40)
    speedup = eight / single
    honest = eight / unlocked

    stats = tenant.emulator.version_stats()
    print(f"\nmvcc read path: unlocked {unlocked:,.0f}/s, "
          f"1 worker {single:,.0f}/s, 8 workers {eight:,.0f}/s "
          f"({speedup:.2f}x, {honest:.2f}x vs unlocked), "
          f"{stats['pinned_reads']} pinned reads, "
          f"{stats['read_lock_acquisitions']} read locks")
    bench_metrics.gauge("read_throughput_unlocked_1_thread_per_s",
                        round(unlocked, 1))
    bench_metrics.gauge("read_throughput_1_worker_per_s", round(single, 1))
    bench_metrics.gauge("read_throughput_8_workers_per_s", round(eight, 1))
    bench_metrics.gauge("read_scaling_8v1", round(speedup, 3))
    bench_metrics.gauge("read_scaling_8v1_unlocked", round(honest, 3))
    bench_metrics.gauge("read_lock_acquisitions",
                        stats["read_lock_acquisitions"])
    bench_metrics.gauge("pinned_reads", stats["pinned_reads"])
    bench_metrics.gauge("workers", 8)
    bench_metrics.gauge("cpu_count", os.cpu_count() or 1)
    # The zero-lock proof: every read pinned a version instead.
    assert stats["read_lock_acquisitions"] == 0
    assert stats["pinned_reads"] >= 8 * 40
    assert speedup >= 2.0, f"mvcc read path scaled only {speedup:.2f}x"


def _churned_read_throughput(front: FrontDoor, vpc: str,
                             readers: int, reads_per_worker: int) -> float:
    """Read throughput while one paced writer mutates continuously.

    The writer pauses *outside* the lock between operations and
    deletes what it creates, for two reasons.  A tight create-only
    loop through the writer-preferring RW lock starves readers
    outright (the writer re-acquires before any queued reader passes
    the gate — the lock's documented bias, which MVCC is precisely
    the answer to), and an ever-growing registry makes per-op cost
    drift upward mid-measurement.  Paced steady-state churn keeps the
    comparison about the structural stall: RW-lock readers lose the
    writer's full in-lock service time every cycle, MVCC readers
    lose nothing.
    """
    stop = threading.Event()

    def writer():
        while not stop.is_set():
            created = front.invoke(
                "CreateSubnet",
                {"VpcId": vpc, "CidrBlock": "10.0.1.0/24"},
                api_key="bench",
            )
            time.sleep(SERVICE_LATENCY_S)  # pause outside the lock
            if created.success:
                front.invoke(
                    "DeleteSubnet",
                    {"SubnetId": created.data["id"]},
                    api_key="bench",
                )
                time.sleep(SERVICE_LATENCY_S)

    churn = threading.Thread(target=writer, daemon=True)
    churn.start()
    try:
        return _read_throughput(front, vpc, readers, reads_per_worker)
    finally:
        stop.set()
        churn.join()


def test_mvcc_reads_dont_stall_behind_writes(learned_builds,
                                             bench_metrics):
    """Under continuous write churn, MVCC reads must beat the RW lock.

    This is the structural gap: the writer holds the exclusive lock
    for its full modeled service time, stalling every RW-lock reader,
    while MVCC readers keep serving the last published version.
    """
    build = learned_builds["ec2"]
    rates = {}
    for mode, mvcc in (("mvcc", True), ("rwlock", False)):
        front = _make_front(build, mvcc=mvcc)
        created = front.invoke(
            "CreateVpc", {"CidrBlock": "10.0.0.0/16"}, api_key="bench"
        )
        assert created.success
        rates[mode] = _churned_read_throughput(
            front, created.data["id"], readers=8, reads_per_worker=30
        )
        if mvcc:
            stats = front.router.get("bench").emulator.version_stats()
            assert stats["read_lock_acquisitions"] == 0
            bench_metrics.gauge("churn_publishes", stats["publishes"])
            bench_metrics.gauge("churn_reclaimed", stats["reclaimed"])
            bench_metrics.gauge("churn_versions_live",
                                stats["versions_live"])
    advantage = rates["mvcc"] / rates["rwlock"]
    print(f"\nreads under write churn: mvcc {rates['mvcc']:,.0f}/s vs "
          f"rwlock {rates['rwlock']:,.0f}/s ({advantage:.2f}x)")
    bench_metrics.gauge("churned_read_mvcc_per_s",
                        round(rates["mvcc"], 1))
    bench_metrics.gauge("churned_read_rwlock_per_s",
                        round(rates["rwlock"], 1))
    bench_metrics.gauge("churned_read_advantage", round(advantage, 3))
    assert advantage > 1.0, (
        f"MVCC reads under churn only {advantage:.2f}x the RW lock"
    )


def test_write_path_within_10pct_of_rwlock(learned_builds, bench_metrics):
    """Publish-per-commit must not tax writes beyond 10%.

    No modeled latency here: raw single-thread write dispatch through
    the concurrency layer, where the version publish would actually
    show up.  Steady-state: one
    create + one delete per iteration, so the registry — and thus the
    publish cost — stays constant size.
    """
    build = learned_builds["ec2"]
    iterations = 400

    def write_rate(mvcc: bool) -> float:
        emulator = ConcurrentEmulator(build.make_backend(mvcc=mvcc))
        assert emulator.mvcc is mvcc
        best = 0.0
        for __ in range(3):
            emulator.reset()
            start = time.perf_counter()
            for index in range(iterations):
                created = emulator.invoke(
                    "CreateVpc", {"CidrBlock": "10.0.0.0/16"}
                )
                assert created.success
                emulator.invoke(
                    "DeleteVpc", {"VpcId": created.data["id"]}
                )
            best = max(
                best, 2 * iterations / (time.perf_counter() - start)
            )
        return best

    locked = write_rate(False)
    versioned = write_rate(True)
    ratio = versioned / locked
    print(f"\nwrite path: rwlock {locked:,.0f}/s, "
          f"mvcc {versioned:,.0f}/s ({ratio:.3f}x)")
    bench_metrics.gauge("write_rwlock_per_s", round(locked, 1))
    bench_metrics.gauge("write_mvcc_per_s", round(versioned, 1))
    bench_metrics.gauge("write_throughput_ratio", round(ratio, 3))
    assert ratio >= 0.90, (
        f"MVCC write path at {ratio:.3f}x of the RW-lock baseline"
    )


#: Registry sizes for the write-latency curve, and the gate on it.
WRITE_SCALING_SIZES = (100, 1000, 10000)
WRITE_SCALING_BOUND = 1.5


def test_write_latency_flat_in_registry_size(learned_builds,
                                             bench_metrics):
    """Raw MVCC write latency must not grow with the registry.

    No modeled sleep: one thread, ``ConcurrentEmulator`` over the real
    emulator, prefilled with N VPCs, then size-neutral CreateVpc +
    DeleteVpc pairs — each write commits and publishes a version.
    Best of five rounds per size.  A publish that copied the whole
    registry made this O(N) (about 25x from 10^2 to 10^4); a publish
    that copies only what the commit touched keeps it flat.
    """
    build = learned_builds["ec2"]
    pairs = 200
    latency = {}
    for size in WRITE_SCALING_SIZES:
        emulator = ConcurrentEmulator(build.make_backend())
        inner = emulator.inner
        for index in range(size):
            assert inner.invoke(
                "CreateVpc", {"CidrBlock": f"10.{index % 200}.0.0/16"}
            ).success
        best = float("inf")
        for __ in range(5):
            start = time.perf_counter()
            for __ in range(pairs):
                created = emulator.invoke(
                    "CreateVpc", {"CidrBlock": "10.0.0.0/16"}
                )
                assert created.success
                assert emulator.invoke(
                    "DeleteVpc", {"VpcId": created.data["id"]}
                ).success
            best = min(best, (time.perf_counter() - start) / (2 * pairs))
        assert len(inner.registry) == size
        latency[size] = best * 1e6
        stats = emulator.version_stats()
        bench_metrics.gauge(f"write_us_1e{len(str(size)) - 1}",
                            round(latency[size], 2))
        bench_metrics.gauge(
            f"publish_copied_per_write_1e{len(str(size)) - 1}",
            round(stats["publish_copied"] / (stats["publishes"] - 1), 1),
        )
    scaling = latency[WRITE_SCALING_SIZES[-1]] / latency[WRITE_SCALING_SIZES[0]]
    print("\nraw mvcc write latency: " + ", ".join(
        f"{size:,} resources {us:.1f} us" for size, us in latency.items()
    ) + f" ({scaling:.2f}x from 10^2 to 10^4)")
    bench_metrics.gauge("write_scaling_1e4_v_1e2", round(scaling, 3))
    assert scaling <= WRITE_SCALING_BOUND, (
        f"MVCC write latency grew {scaling:.2f}x from 10^2 to 10^4 "
        "resources"
    )


def test_mvcc_soaks_stay_linearizable(learned_builds, bench_metrics):
    """Clean + hostile 8-worker soaks: serial replay byte-identity and
    zero read-lock acquisitions, with chaos outside the version chain."""
    build = learned_builds["ec2"]
    for profile, wrap, seed in (
        ("clean", None, 51),
        ("hostile",
         (lambda backend: ChaosProxy(
             backend, ChaosEngine(HOSTILE_PROFILE, seed=53))),
         52),
    ):
        front = FrontDoor(
            build.module, build.make_backend, wrap=wrap,
            rate=1e9, burst=1e9, max_concurrent=64, queue_depth=256,
        )
        generator = LoadGenerator(
            front, seed=seed, workers=8, requests_per_worker=250,
            read_ratio=0.6, tenants=2,
        )
        report = generator.run()
        assert report.linearizable, report.mismatches
        assert report.requests == 2000
        stats = report.mvcc
        assert stats["mvcc_tenants"] == stats["tenants"] > 0
        assert stats["read_lock_acquisitions"] == 0
        assert stats["publishes"] > 0
        print(f"\n{profile} soak: {report.throughput_rps:,.0f} req/s, "
              f"{stats['publishes']} publishes, "
              f"{stats['reclaimed']} reclaimed, linearizable")
        bench_metrics.gauge(f"soak_{profile}_req_per_s",
                            round(report.throughput_rps, 1))
        bench_metrics.gauge(f"soak_{profile}_publishes",
                            stats["publishes"])
        bench_metrics.gauge(f"soak_{profile}_reclaimed",
                            stats["reclaimed"])
        bench_metrics.gauge(f"soak_{profile}_read_lock_acquisitions",
                            stats["read_lock_acquisitions"])
