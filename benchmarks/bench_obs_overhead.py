"""Observability-plane overhead on the serving hot path.

The plane's per-request cost is one root span, one windowed-histogram
record and one crc32 sampling draw; hop child spans only materialize
for kept traces.  The acceptance bar is <5% throughput loss on a
serve path with modeled service latency (the same 2ms GIL-releasing
sleep ``bench_serve_mvcc`` uses to stand in for real I/O wait),
measured with the full plane attached: per-tenant SLOs, tail sampling
at 5%, and exemplar tracking.

The bench also reports the raw per-request bookkeeping cost in
microseconds (no modeled latency), so regressions in the instrument
itself are visible even when the sleep hides them.
"""

import statistics
import threading
import time

from repro.obs import default_slos, ObsPlane
from repro.serve import FrontDoor
from repro.telemetry import Telemetry

from bench_serve_mvcc import ModeledLatencyEmulator

#: Acceptance bar: attached plane may cost at most this throughput
#: fraction on the modeled hot path.
MAX_OVERHEAD = 0.05

#: Plain/instrumented chunk pairs per measurement, and reads per
#: worker in one chunk (4 workers, one 2 ms modeled sleep per read).
OVERHEAD_PAIRS = 25
CHUNK_READS = 40


def _make_front(build, with_obs: bool, modeled: bool) -> FrontDoor:
    telemetry = Telemetry(service=build.service)
    if with_obs:
        ObsPlane(telemetry, seed=7,
                 slos=default_slos(["bench"], period=60.0),
                 sample_keep=0.05)
    factory = build.make_backend
    if modeled:
        factory = lambda: ModeledLatencyEmulator(  # noqa: E731
            build.make_backend()
        )
    return FrontDoor(build.module, factory, telemetry=telemetry,
                     rate=1e9, burst=1e9, max_concurrent=64,
                     queue_depth=256)


def _read_throughput(front: FrontDoor, params: dict, workers: int,
                     reads_per_worker: int) -> float:
    start_line = threading.Barrier(workers + 1)
    failures: list[str] = []

    def reader():
        start_line.wait()
        for __ in range(reads_per_worker):
            response = front.invoke("DescribeVpcs", params,
                                    api_key="bench")
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


def _seed_vpc(front: FrontDoor) -> dict:
    created = front.invoke("CreateVpc", {"CidrBlock": "10.0.0.0/16"},
                           api_key="bench")
    assert created.success
    return {"VpcId": created.data["id"]}


def test_obs_overhead_under_five_percent(learned_builds, bench_metrics):
    """Full plane attached: <5% throughput loss on the modeled path.

    Measured from alternating chunks — plain, then instrumented — so
    a scheduler hiccup on the host lands on both sides of a pair
    alike; the median of the per-pair rate ratios discards the pairs
    one landed in unevenly.  (Best-of-3 whole runs read anywhere from
    -9% to +2% on a 2-vCPU host: noise, not the plane.)
    """
    build = learned_builds["ec2"]
    plain = _make_front(build, with_obs=False, modeled=True)
    instrumented = _make_front(build, with_obs=True, modeled=True)
    plain_params = _seed_vpc(plain)
    obs_params = _seed_vpc(instrumented)

    plain_rates, obs_rates, ratios = [], [], []
    for __ in range(OVERHEAD_PAIRS):
        plain_rate = _read_throughput(
            plain, plain_params, workers=4, reads_per_worker=CHUNK_READS)
        obs_rate = _read_throughput(
            instrumented, obs_params, workers=4,
            reads_per_worker=CHUNK_READS)
        plain_rates.append(plain_rate)
        obs_rates.append(obs_rate)
        ratios.append(obs_rate / plain_rate)

    overhead = 1.0 - statistics.median(ratios)
    plain_median = statistics.median(plain_rates)
    obs_median = statistics.median(obs_rates)
    print(f"\nobs overhead (modeled 2ms path, median of "
          f"{OVERHEAD_PAIRS} paired chunks): plain {plain_median:,.0f}/s, "
          f"instrumented {obs_median:,.0f}/s ({overhead:+.2%})")
    bench_metrics.gauge("modeled_throughput_plain_per_s",
                        round(plain_median, 1))
    bench_metrics.gauge("modeled_throughput_obs_per_s",
                        round(obs_median, 1))
    bench_metrics.gauge("modeled_overhead_fraction", round(overhead, 4))
    assert overhead < MAX_OVERHEAD, (
        f"observability plane cost {overhead:.2%} on the modeled hot "
        f"path (bar: {MAX_OVERHEAD:.0%})"
    )

    # The sampler must have been exercised, or the bench proves nothing.
    sampler = instrumented.telemetry.obs.sampler
    assert sampler.seen >= OVERHEAD_PAIRS * 4 * CHUNK_READS
    assert sampler.kept < sampler.seen


def test_obs_bookkeeping_cost_microseconds(learned_builds, bench_metrics):
    """Raw per-request instrument cost, no modeled latency to hide it."""
    build = learned_builds["ec2"]
    plain = _make_front(build, with_obs=False, modeled=False)
    instrumented = _make_front(build, with_obs=True, modeled=False)
    plain_params = _seed_vpc(plain)
    obs_params = _seed_vpc(instrumented)
    calls = 3000

    def best_rate(front, params):
        best = 0.0
        for __ in range(3):
            start = time.perf_counter()
            for __ in range(calls):
                front.invoke("DescribeVpcs", params, api_key="bench")
            best = max(best, calls / (time.perf_counter() - start))
        return best

    plain_rate = best_rate(plain, plain_params)
    obs_rate = best_rate(instrumented, obs_params)
    cost_us = (1.0 / obs_rate - 1.0 / plain_rate) * 1e6
    print(f"\nobs bookkeeping: plain {plain_rate:,.0f}/s, instrumented "
          f"{obs_rate:,.0f}/s (+{cost_us:.1f}us/request)")
    bench_metrics.gauge("bookkeeping_cost_us_per_request",
                        round(cost_us, 2))
    # Informational bound, deliberately loose: the instrument itself
    # must stay cheap in absolute terms even on a pure-CPU path.
    assert cost_us < 500.0
