"""Lock-free MVCC serve reads: the scaling proof and its guardrails.

The serve layer has one concurrency mode: reads pin published
registry versions and take no lock, writes serialize under one writer
mutex and publish a new version.  The RW lock it replaced is gone, and
its measurements stay committed as the baselines these gates compare
against: ``BENCH_serve_concurrency.json`` (read scaling), the
``serve_mvcc`` section of ``BENCH_baseline.json`` (reads under write
churn) and :data:`RW_WRITE_RATE_FACTOR` (the write path).  Nothing
rewrites those figures.

1. **Reads scale without locking.**  A modeled per-request service
   time — a real ``time.sleep``, the released-GIL stand-in for I/O
   wait — makes concurrency visible on any core count.  8-worker read
   throughput must clear 2x one worker's and stay within 10% of the
   RW lock's committed scaling.

2. **Reads do not stall behind writes.**  Under an RW lock, one writer
   holding the exclusive side stalls every reader for its full modeled
   service time; pinned readers keep dispatching against the last
   published version.  The same read load under continuous write churn
   must beat the RW lock's committed rate.

3. **Writes pay almost nothing for it, at any registry size.**
   Publishing a version after each commit copies only the chunks of
   the structurally shared version map that the commit touched, plus
   the chunk list (see :mod:`repro.interpreter.versionmap`).  The
   write rate relative to the raw emulator's must stay within 10% of
   the RW lock's relative rate, and raw write latency at 10^4
   resources within 1.5x of its value at 10^2.

The single-thread front-door overhead and a clean and a hostile-chaos
8-worker soak close the file: serial replay linearizability and
snapshot byte-identity must hold.
"""

import json
import os
import statistics
import threading
import time
from pathlib import Path

from repro.resilience.chaos import ChaosEngine, ChaosProxy, HOSTILE_PROFILE
from repro.serve import ConcurrentEmulator, FrontDoor, LoadGenerator

#: The repository root, where the committed baselines live.
ROOT = Path(__file__).resolve().parent.parent

#: Modeled per-request service time (seconds) — the figure the
#: committed RW-lock baselines were measured with.
SERVICE_LATENCY_S = 0.002

#: Write rate of the RW-lock serve path over the raw ``Emulator``'s,
#: measured with :func:`write_rate_factor` on the learned ec2 build at
#: commit 45e158c, the last with the RW-lock path (2-vCPU Linux VM,
#: Python 3.11).  Four runs of 400 chunk pairs, alternated with runs of
#: the MVCC path, read 0.693, 0.700, 0.711 and 0.720 (MVCC: 0.698,
#: 0.694, 0.707 and 0.713); this is their median.  Thread CPU time
#: makes it a property of the code rather than of the host's load.
RW_WRITE_RATE_FACTOR = 0.705

#: Write rate floor, as a fraction of the RW lock's.
WRITE_RATIO_BOUND = 0.90

#: CreateVpc+DeleteVpc pairs per timed chunk, and chunk pairs per
#: measurement.
CHUNK_PAIRS = 25
CHUNKS = 400


class ModeledLatencyEmulator:
    """An emulator whose every dispatch takes ``latency`` wall seconds
    longer.

    ``invoke`` and ``invoke_at`` sleep, then dispatch; everything else
    — classification, the versioned-read surface, snapshots — is the
    inner emulator's, so the concurrency layer serves it exactly as it
    serves a bare emulator.
    """

    def __init__(self, inner, latency: float = SERVICE_LATENCY_S):
        self.inner = inner
        self.latency = latency

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def invoke(self, api, params=None):
        time.sleep(self.latency)
        return self.inner.invoke(api, params)

    def invoke_at(self, version, api, params=None):
        time.sleep(self.latency)
        return self.inner.invoke_at(version, api, params)


def _committed(path: Path, key: str, section: str | None = None) -> float:
    data = json.loads(path.read_text(encoding="utf-8"))
    if section is not None:
        data = data[section]
    return data[key]["value"]


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


def _make_front(build) -> FrontDoor:
    return FrontDoor(
        build.module,
        lambda: ModeledLatencyEmulator(build.make_backend()),
        rate=1e9, burst=1e9, max_concurrent=64, queue_depth=256,
    )


def test_mvcc_read_path_scales_lock_free(learned_builds, bench_metrics):
    """8 pinned readers overlap fully: >= 2x one reader, and within 10%
    of the committed RW-lock scaling."""
    build = learned_builds["ec2"]
    front = _make_front(build)
    created = front.invoke(
        "CreateVpc", {"CidrBlock": "10.0.0.0/16"}, api_key="bench"
    )
    assert created.success
    vpc = created.data["id"]

    tenant = front.router.get("bench")
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
    rw_speedup = _committed(ROOT / "BENCH_serve_concurrency.json",
                            "read_scaling_8v1")

    stats = tenant.emulator.version_stats()
    locks = front.mvcc_stats()["read_lock_acquisitions"]
    print(f"\nmvcc read path: unlocked {unlocked:,.0f}/s, "
          f"1 worker {single:,.0f}/s, 8 workers {eight:,.0f}/s "
          f"({speedup:.2f}x, {honest:.2f}x vs unlocked; "
          f"committed rw-lock {rw_speedup}x), "
          f"{stats['pinned_reads']} pinned reads")
    bench_metrics.gauge("read_throughput_unlocked_1_thread_per_s",
                        round(unlocked, 1))
    bench_metrics.gauge("read_throughput_1_worker_per_s", round(single, 1))
    bench_metrics.gauge("read_throughput_8_workers_per_s", round(eight, 1))
    bench_metrics.gauge("read_scaling_8v1", round(speedup, 3))
    bench_metrics.gauge("read_scaling_8v1_unlocked", round(honest, 3))
    bench_metrics.gauge("read_lock_acquisitions", locks)
    bench_metrics.gauge("pinned_reads", stats["pinned_reads"])
    bench_metrics.gauge("workers", 8)
    bench_metrics.gauge("cpu_count", os.cpu_count() or 1)
    # Every read pinned a version.
    assert locks == 0
    assert stats["pinned_reads"] >= 8 * 40
    assert speedup >= 2.0, f"mvcc read path scaled only {speedup:.2f}x"
    # Uncontended reads are sleep-bound, so the RW lock scaled near
    # ideally too — the 10% allows scheduler noise.
    assert speedup >= rw_speedup * 0.9, (
        f"MVCC read scaling {speedup:.2f}x fell well below the "
        f"committed RW-lock baseline {rw_speedup}x"
    )


def _churned_read_throughput(front: FrontDoor, vpc: str,
                             readers: int, reads_per_worker: int) -> float:
    """Read throughput while one paced writer mutates continuously.

    The committed RW-lock rate was measured with exactly this workload,
    so it stays as it is.  The writer pauses between operations and
    deletes what it creates: a tight create-only loop through the
    writer-preferring RW lock starved readers outright, and an
    ever-growing registry makes per-op cost drift upward
    mid-measurement.
    """
    stop = threading.Event()

    def writer():
        while not stop.is_set():
            created = front.invoke(
                "CreateSubnet",
                {"VpcId": vpc, "CidrBlock": "10.0.1.0/24"},
                api_key="bench",
            )
            time.sleep(SERVICE_LATENCY_S)  # pause outside the mutex
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
    """Under continuous write churn, pinned reads must beat the RW lock.

    This is the structural gap: an RW-lock writer holds the exclusive
    side for its full modeled service time, stalling every reader,
    while pinned readers keep serving the last published version.  The
    RW-lock rate is the committed one (``churned_read_rwlock_per_s``
    in the ``serve_mvcc`` section of ``BENCH_baseline.json``); the
    sleep-bound workload makes it a property of the lock, not of the
    host.
    """
    build = learned_builds["ec2"]
    front = _make_front(build)
    created = front.invoke(
        "CreateVpc", {"CidrBlock": "10.0.0.0/16"}, api_key="bench"
    )
    assert created.success
    rate = _churned_read_throughput(
        front, created.data["id"], readers=8, reads_per_worker=30
    )
    rw_rate = _committed(ROOT / "BENCH_baseline.json",
                         "churned_read_rwlock_per_s", section="serve_mvcc")
    stats = front.router.get("bench").emulator.version_stats()
    bench_metrics.gauge("churn_publishes", stats["publishes"])
    bench_metrics.gauge("churn_reclaimed", stats["reclaimed"])
    bench_metrics.gauge("churn_versions_live", stats["versions_live"])
    advantage = rate / rw_rate
    print(f"\nreads under write churn: mvcc {rate:,.0f}/s vs committed "
          f"rwlock {rw_rate:,.0f}/s ({advantage:.2f}x)")
    bench_metrics.gauge("churned_read_mvcc_per_s", round(rate, 1))
    bench_metrics.gauge("churned_read_rwlock_per_s", rw_rate)
    bench_metrics.gauge("churned_read_advantage", round(advantage, 3))
    assert advantage > 1.0, (
        f"MVCC reads under churn only {advantage:.2f}x the RW lock"
    )


def _chunk_seconds(invoke) -> float:
    """Thread CPU seconds for CHUNK_PAIRS size-neutral write pairs."""
    start = time.thread_time()
    for __ in range(CHUNK_PAIRS):
        created = invoke("CreateVpc", {"CidrBlock": "10.0.0.0/16"})
        assert created.success
        invoke("DeleteVpc", {"VpcId": created.data["id"]})
    return time.thread_time() - start


def write_rate_factor(build, candidate, chunks: int = CHUNKS) -> float:
    """``candidate``'s write rate over a raw emulator's, paired.

    Alternating chunks — raw, then candidate — each timed in thread
    CPU time, so a noisy neighbour on the host shifts both sides of a
    pair alike and never counts as work; the median of the per-pair
    ratios discards the chunks a GC pause or a preemption landed in.
    """
    raw = build.make_backend()
    ratios = []
    for __ in range(chunks):
        raw_seconds = _chunk_seconds(raw.invoke)
        ratios.append(raw_seconds / _chunk_seconds(candidate.invoke))
    return statistics.median(ratios)


def test_write_path_within_10pct_of_rwlock(learned_builds, bench_metrics):
    """Publish-per-commit must not tax writes beyond 10%.

    No modeled latency here: raw single-thread write dispatch through
    the concurrency layer, where the version publish would actually
    show up.  Size-neutral create + delete pairs keep the registry —
    and thus the publish cost — constant.  The MVCC/raw rate factor
    must reach 90% of the committed RW-lock/raw factor.
    """
    build = learned_builds["ec2"]
    factor = write_rate_factor(
        build, ConcurrentEmulator(build.make_backend())
    )
    ratio = factor / RW_WRITE_RATE_FACTOR
    print(f"\nwrite path: mvcc {factor:.3f}x the raw emulator's rate, "
          f"committed rwlock {RW_WRITE_RATE_FACTOR}x ({ratio:.3f}x)")
    bench_metrics.gauge("write_mvcc_rate_factor", round(factor, 4))
    bench_metrics.gauge("write_rwlock_rate_factor", RW_WRITE_RATE_FACTOR)
    bench_metrics.gauge("write_throughput_ratio", round(ratio, 3))
    assert ratio >= WRITE_RATIO_BOUND, (
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


def test_frontdoor_overhead_single_thread(learned_builds, bench_metrics):
    """Validation + admission + version pinning must not dominate a
    serve call."""
    build = learned_builds["ec2"]
    raw = build.make_backend()
    vpc = raw.invoke("CreateVpc", {"CidrBlock": "10.0.0.0/16"})
    raw_params = {"VpcId": vpc.data["id"]}

    front = FrontDoor(build.module, build.make_backend,
                      rate=1e9, burst=1e9)
    created = front.invoke("CreateVpc", {"CidrBlock": "10.0.0.0/16"})
    front_params = {"VpcId": created.data["id"]}

    calls = 4000

    def rate_of(invoke, params):
        best = 0.0
        for __ in range(3):
            start = time.perf_counter()
            for __ in range(calls):
                invoke("DescribeVpcs", params)
            best = max(best, calls / (time.perf_counter() - start))
        return best

    raw_rate = rate_of(raw.invoke, raw_params)
    front_rate = rate_of(front.invoke, front_params)
    overhead = raw_rate / front_rate
    print(f"\nDescribeVpcs: raw {raw_rate:,.0f}/s, "
          f"served {front_rate:,.0f}/s ({overhead:.2f}x overhead)")
    bench_metrics.gauge("raw_read_calls_per_s", round(raw_rate, 1))
    bench_metrics.gauge("served_read_calls_per_s", round(front_rate, 1))
    bench_metrics.gauge("serve_overhead_factor", round(overhead, 3))
    # Loose ceiling: the guard stack may cost a few x on a
    # microsecond-scale in-memory call, never an order of magnitude.
    assert overhead < 10.0, f"serve overhead {overhead:.2f}x"


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
        assert stats["tenants"] == 2
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
