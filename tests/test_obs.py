"""Tests for the serving-time observability plane (repro.obs).

Covers the windowed store, SLO/burn-rate engine, tail sampler, trace
context propagation through the serving stack, breaker state export,
the schema-2 trace round trip, and the acceptance properties from the
observability issue: a propagated failover trace tree, burn alerts
firing at partition starts in virtual time, sampling bounds, and
sampling-invariant aggregates.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.core import build_learned_emulator
from repro.netem.engine import NetEm
from repro.netem.timeline import FaultTimeline, partition_window
from repro.netem.topology import three_region_topology
from repro.obs import (
    default_slos,
    ObsPlane,
    record_frames,
    render_frame,
    SLOEngine,
    SLOSpec,
    TailSampler,
    WindowedStore,
)
from repro.obs.tracectx import RequestContext
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.policy import VirtualClock
from repro.scenarios.geo import (
    _frontdoor,
    _invoke,
    _probe_workload,
    _single_home_placer,
    noisy_cross_region_replication,
)
from repro.serve import LoadGenerator
from repro.serve.frontdoor import FrontDoor
from repro.telemetry import load_trace, render_trace, Telemetry, write_trace


@pytest.fixture(scope="module")
def build():
    return build_learned_emulator("ec2", seed=7, align=False)


class TestWindowedStore:
    def test_counter_rate_over_lookback(self):
        store = WindowedStore(resolution=0.25)
        series = store.counter("req", tenant="a")
        for at in (0.1, 0.3, 0.5, 0.7, 0.9):
            series.record(at)
        assert store.total("req", 1.0, 1.0) == 5
        assert store.rate("req", 1.0, 1.0) == pytest.approx(5.0)
        # A narrower lookback only sees the tail of the burst.
        assert store.total("req", 0.3, 1.0) < 5

    def test_quantile_interpolates(self):
        store = WindowedStore(resolution=1.0)
        series = store.histogram("lat")
        for value in range(1, 101):
            series.record(0.5, float(value))
        assert store.quantile("lat", 0.5, 10.0, 1.0) == pytest.approx(50.5)
        assert store.quantile("lat", 0.99, 10.0, 1.0) == pytest.approx(
            99.01
        )

    def test_ring_eviction_keeps_memory_bounded(self):
        store = WindowedStore(resolution=1.0, capacity=4)
        series = store.counter("x")
        for at in (0.5, 1.5, 2.5, 3.5):
            series.record(at)
        series.record(10.5)  # reuses the slot window index 2 held
        assert store.total("x", 100.0, 10.5) == 4

    def test_label_select(self):
        store = WindowedStore(resolution=1.0)
        store.counter("req", tenant="a", outcome="ok").record(0.5)
        store.counter("req", tenant="b", outcome="ok").record(0.5)
        store.counter("req", tenant="a", outcome="error").record(0.5)
        assert store.total("req", 10.0, 1.0) == 3
        assert store.total("req", 10.0, 1.0, tenant="a") == 2
        assert store.total("req", 10.0, 1.0, outcome="error") == 1
        assert store.label_values("req", "tenant") == ["a", "b"]

    def test_exemplar_tracks_worst_value(self):
        store = WindowedStore(resolution=1.0)
        series = store.histogram("lat")
        series.record(0.5, 0.1, exemplar="t-a")
        series.record(0.5, 0.9, exemplar="t-b")
        series.record(0.5, 0.5, exemplar="t-c")
        assert store.exemplar("lat", 10.0, 1.0) == "t-b"

    def test_export_round_trips_counts(self):
        store = WindowedStore(resolution=0.5)
        store.histogram("lat", tenant="a").record(0.2, 0.05, exemplar="t-1")
        records = store.export()
        assert len(records) == 1
        assert records[0]["series"] == "lat{tenant=a}"
        window = records[0]["windows"][0]
        assert window["count"] == 1
        assert window["exemplar"] == "t-1"


def _record_outcome(store, at, outcome, latency=0.01, tenant="tenant-0"):
    store.histogram(
        "serve.requests", tenant=tenant, api="X", region="-",
        outcome=outcome, code="-",
    ).record(at, latency)


class TestSLOEngine:
    def test_availability_budget_spend(self):
        store = WindowedStore(resolution=0.25)
        spec = SLOSpec(name="avail", objective=0.9, period=100.0)
        engine = SLOEngine(store, [spec])
        for index in range(90):
            _record_outcome(store, 1.0 + index * 0.1, "ok")
        for index in range(10):
            _record_outcome(store, 20.0 + index * 0.1, "error")
        status = engine.status(spec, 50.0)
        assert (status.good, status.total) == (90, 100)
        assert status.budget_spent == pytest.approx(1.0)
        assert status.exhausted

    def test_client_errors_do_not_burn_budget(self):
        store = WindowedStore(resolution=0.25)
        spec = SLOSpec(name="avail", objective=0.9, period=100.0)
        engine = SLOEngine(store, [spec])
        for index in range(20):
            _record_outcome(store, 1.0 + index * 0.1, "client_error")
        status = engine.status(spec, 50.0)
        assert status.good == status.total == 20
        assert status.budget_spent == 0.0

    def test_latency_slo_counts_threshold_misses(self):
        store = WindowedStore(resolution=0.25)
        spec = SLOSpec(name="lat", kind="latency", objective=0.5,
                       threshold_s=0.25, period=100.0)
        engine = SLOEngine(store, [spec])
        _record_outcome(store, 1.0, "ok", latency=0.1)
        _record_outcome(store, 1.1, "ok", latency=0.9)
        status = engine.status(spec, 50.0)
        assert (status.good, status.total) == (1, 2)

    def test_page_needs_both_windows_burning(self):
        # period 7200 -> page long window 10s, short window 0.833s.
        store = WindowedStore(resolution=0.25)
        spec = SLOSpec(name="avail", objective=0.999, period=7200.0)
        engine = SLOEngine(store, [spec])
        for index in range(40):
            _record_outcome(store, 20.0 + index * 0.1, "error")
        burning = engine.status(spec, 24.0)
        page = next(a for a in burning.alerts if a.severity == "page")
        assert page.firing
        # 5 virtual seconds after the burst stops, the long window
        # still burns but the short window has gone quiet: no page.
        quiet = engine.status(spec, 29.0)
        page = next(a for a in quiet.alerts if a.severity == "page")
        assert page.long_burn >= page.burn_rate
        assert not page.firing

    def test_sweep_records_fire_and_clear_edges(self):
        store = WindowedStore(resolution=0.25)
        spec = SLOSpec(name="avail", objective=0.999, period=7200.0)
        engine = SLOEngine(store, [spec])
        for index in range(40):
            _record_outcome(store, 20.0 + index * 0.1, "error")
        transitions = engine.sweep(60.0)
        pages = [t for t in transitions if t["severity"] == "page"]
        assert [t["firing"] for t in pages] == [True, False]
        fired, cleared = pages
        assert 20.0 <= fired["at"] <= 24.5
        assert cleared["at"] > fired["at"]
        # Replaying the same store gives the same history.
        assert engine.sweep(60.0) == transitions

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SLOSpec(name="bad", objective=1.5)
        with pytest.raises(ValueError):
            SLOSpec(name="bad", kind="weather")
        with pytest.raises(ValueError):
            SLOSpec(name="bad", period=0.0)

    def test_spec_dict_round_trip(self):
        spec = SLOSpec(name="lat", kind="latency", objective=0.95,
                       threshold_s=0.5, period=300.0, tenant="tenant-1")
        assert SLOSpec.from_dict(spec.as_dict()) == spec

    def test_default_slos_cover_tenants(self):
        specs = default_slos(["tenant-0", "tenant-1"], period=60.0)
        names = [spec.name for spec in specs]
        assert "availability" in names
        assert "latency-p99" in names
        assert sum(1 for spec in specs if spec.tenant) == 2


def _ctx(outcome="ok", shed=False):
    ctx = RequestContext("t-1", "tenant-0", "X", 0.0)
    ctx.outcome = outcome
    ctx.shed = shed
    return ctx


class TestTailSampler:
    def test_errors_sheds_and_slow_always_kept(self):
        sampler = TailSampler(keep_rate=0.0, slow_threshold_s=1.0)
        assert sampler.decide(_ctx("error"), 0.01)["reason"] == "error"
        assert sampler.decide(_ctx("shed", shed=True), 0.01)[
            "reason"] == "shed"
        assert sampler.decide(_ctx("ok"), 2.0)["reason"] == "slow"
        assert all(d["sampled"] for d in (
            sampler.decide(_ctx("error"), 0.01),
            sampler.decide(_ctx("ok"), 2.0),
        ))

    def test_fast_ok_requests_drop_at_zero_keep(self):
        sampler = TailSampler(keep_rate=0.0)
        decision = sampler.decide(_ctx("ok"), 0.01)
        assert not decision["sampled"]
        assert decision["reason"] == "dropped"

    def test_probabilistic_keep_is_seeded_and_deterministic(self):
        def run():
            sampler = TailSampler(keep_rate=0.5, seed=3)
            kept = []
            for index in range(400):
                ctx = _ctx("ok")
                ctx.trace_id = f"t3-{index:08x}"
                if sampler.decide(ctx, 0.01)["sampled"]:
                    kept.append(ctx.trace_id)
            return kept

        first, second = run(), run()
        assert first == second  # crc32 draw, not process-seeded hash()
        assert 0.35 < len(first) / 400 < 0.65


class TestObsPlane:
    def _plane(self, **kwargs):
        clock = VirtualClock()
        telemetry = Telemetry(service="ec2", clock=clock)
        plane = ObsPlane(telemetry, **kwargs)
        return clock, telemetry, plane

    def test_request_records_series_and_keeps_trace(self):
        clock, telemetry, plane = self._plane(sample_keep=1.0)
        with plane.request("tenant-0", "DescribeVpcs") as ctx:
            clock.sleep(0.1)
            plane.classify(ctx, "")
        assert telemetry.obs is plane
        assert plane.store.total("serve.requests", 10.0, clock.now(),
                                 outcome="ok") == 1
        roots = list(telemetry.tracer.walk())
        assert roots[0].name == "serve.request"
        assert roots[0].attributes["sampled"] is True
        assert roots[0].attributes["trace_id"] == ctx.trace_id

    def test_exception_is_an_error_and_always_kept(self):
        clock, telemetry, plane = self._plane(sample_keep=0.0)
        with pytest.raises(RuntimeError):
            with plane.request("tenant-0", "DescribeVpcs"):
                raise RuntimeError("boom")
        assert plane.store.total("serve.requests", 10.0, clock.now(),
                                 outcome="error") == 1
        roots = list(telemetry.tracer.walk())
        assert roots and roots[0].attributes["sample_reason"] == "error"
        assert roots[0].attributes["error_code"] == "RuntimeError"

    def test_dropped_trace_is_pruned_but_still_counted(self):
        clock, telemetry, plane = self._plane(sample_keep=0.0)
        with plane.request("tenant-0", "DescribeVpcs") as ctx:
            plane.classify(ctx, "")
        assert plane.store.total("serve.requests", 10.0, clock.now()) == 1
        assert list(telemetry.tracer.walk()) == []
        # Exemplars only ever name kept traces, so none here.
        assert plane.store.exemplar("serve.requests", 10.0,
                                    clock.now()) == ""

    def test_shed_flag_wins_classification(self):
        __, __, plane = self._plane(sample_keep=0.0)
        ctx = _ctx("ok", shed=True)
        plane.classify(ctx, "ServiceUnavailable")
        assert ctx.outcome == "shed"
        # The same code without the admission flag is infrastructure.
        plane.classify(_ctx("ok"), "ServiceUnavailable")

    def test_infra_vs_client_error_split(self):
        __, __, plane = self._plane()
        infra, client = _ctx(), _ctx()
        plane.classify(infra, "RequestTimeout")
        plane.classify(client, "InvalidParameterValue")
        assert infra.outcome == "error"
        assert client.outcome == "client_error"


class TestBreakerStateExport:
    def test_transitions_emit_events_gauge_and_series(self):
        clock = VirtualClock()
        telemetry = Telemetry(service="ec2", clock=clock)
        ObsPlane(telemetry)
        breaker = CircuitBreaker(target="vpc", failure_threshold=2,
                                 cooldown=5.0, clock=clock,
                                 telemetry=telemetry)
        breaker.record_failure()
        breaker.record_failure()  # trips: closed -> open
        clock.sleep(6.0)
        breaker.before_call()  # cooldown passed: open -> half_open
        breaker.record_success()  # probe ok: half_open -> closed
        edges = [
            (e.attributes["from"], e.attributes["to"])
            for e in telemetry.orphan_events if e.name == "breaker_state"
        ]
        assert edges == [("closed", "open"), ("open", "half_open"),
                         ("half_open", "closed")]
        gauge = telemetry.metrics.gauge("resilience.breaker_state",
                                        target="vpc")
        assert gauge.value == 0.0
        series = telemetry.obs.store.select("resilience.breaker_state",
                                            target="vpc")
        values = [
            value for window in series[0].windows(0.0, clock.now())
            for value in window.values
        ]
        assert values == [2.0, 1.0, 0.0]

    def test_no_event_when_state_unchanged(self):
        telemetry = Telemetry(service="ec2")
        breaker = CircuitBreaker(target="vpc", failure_threshold=3,
                                 telemetry=telemetry)
        breaker.record_success()  # already closed: no edge
        assert not [e for e in telemetry.orphan_events
                    if e.name == "breaker_state"]


class TestFailoverTraceTree:
    def test_partitioned_read_renders_one_propagated_tree(self, build):
        clock = VirtualClock()
        telemetry = Telemetry(service=build.service, clock=clock)
        plane = ObsPlane(telemetry, seed=7, sample_keep=1.0)
        timeline = FaultTimeline(partition_window(
            "us-east-1", "eu-west-1", start=10.0, duration=20.0,
        ))
        netem = NetEm(three_region_topology(), clock=clock,
                      timeline=timeline, seed=7, telemetry=telemetry)
        front = _frontdoor(
            build, netem, telemetry, seed=7,
            home_region="us-east-1",
            client_regions={"geo": "eu-west-1"},
            replication_lag=0.5,
            placer=_single_home_placer(7),
        )
        creates, read_api, read_params = _probe_workload(build, 7)
        __, code = _invoke(front, "geo", *creates[0])
        assert code == ""
        _invoke(front, "geo", read_api, read_params)
        clock.sleep(2.0)
        front.invoke(read_api, read_params, api_key="geo")  # replica sync
        clock.sleep(10.0)  # cross into the partition window
        body, code = _invoke(front, "geo", read_api, read_params)
        assert body.get("Stale") is True

        roots = [
            span for span in telemetry.tracer.walk()
            if span.name == "serve.request"
            and span.attributes.get("failover")
        ]
        assert len(roots) == 1
        root = roots[0]
        assert root.attributes["client_region"] == "eu-west-1"
        assert root.attributes["resource_region"] == "us-east-1"
        assert root.attributes["outcome"] == "ok"
        assert root.attributes["trace_id"].startswith("t7-")
        hops = {span.name: span for span in root.children}
        assert set(hops) == {"net.hop", "replica.failover"}
        wan = hops["net.hop"]
        assert wan.attributes["src"] == "eu-west-1"
        assert wan.attributes["dst"] == "us-east-1"
        assert wan.attributes["reason"] == "partition"
        assert wan.status == "error"  # the WAN leg was partitioned
        local = hops["replica.failover"]
        assert local.attributes["delivered"] is True
        assert local.attributes["dst"] == "eu-west-1"
        for span in root.children:
            assert span.span_id.startswith(root.span_id + ".h")
            assert "rtt_s" in span.attributes
        assert plane.sampler.kept_by_reason  # the tree was kept


NOISY_PARTITION_ARGS = dict(
    seed=3, loss=0.0, base_rtt=0.04, partition_duration=2.0,
    workers=1, requests_per_worker=80, tenants=2, sample_keep=0.05,
)


@pytest.fixture(scope="module")
def noisy_partition_run(build):
    """One single-worker, loss-free, partition-only run: every infra
    error is a partition artifact and the run is fully deterministic."""
    capture = {}
    result = noisy_cross_region_replication(
        build, capture=capture, **NOISY_PARTITION_ARGS
    )
    return result, capture


class TestBurnAlertTiming:
    def test_alerts_fire_inside_partition_windows(self, build,
                                                  noisy_partition_run):
        result, capture = noisy_partition_run
        assert result["ok"]
        slo = result["load"]["obs"]["slo"]
        fired = [t for t in slo["transitions"] if t["firing"]]
        assert fired, "partitions never tripped a burn alert"
        assert any(t["severity"] == "page" for t in fired)
        windows = [
            window
            for spans in result["partition_windows"].values()
            for window in spans
        ]
        assert windows
        first_start = min(start for start, __ in windows)
        page_window = 1440.0 / 720.0  # the page alert's long window
        resolution = capture["plane"].store.resolution
        for transition in fired:
            start_ok = any(
                start <= transition["at"] <= (end or 1e9) + page_window
                for start, end in windows
            )
            assert start_ok, (
                f"{transition} fired outside every partition window "
                f"{windows}"
            )
        # The first alert lands on the first sweep tick after the
        # partition opens — the "page fired when the partition
        # started" fact, to within the store's resolution.
        assert min(t["at"] for t in fired) <= first_start + 2 * resolution
        # Seed-determinism: the same run reproduces the exact alert
        # timeline, virtual second for virtual second.
        rerun = noisy_cross_region_replication(
            build, **NOISY_PARTITION_ARGS
        )
        assert rerun["load"]["obs"]["slo"]["transitions"] == (
            slo["transitions"]
        )

    def test_healthy_baseline_never_pages(self, build):
        result = noisy_cross_region_replication(
            build, seed=11, loss=0.0, partition_duration=0.0,
            workers=1, requests_per_worker=40, tenants=2,
        )
        slo = result["load"]["obs"]["slo"]
        assert [t for t in slo["transitions"]
                if t["severity"] == "page"] == []
        assert slo["exhausted"] == []


class TestTailSamplingBounds:
    def test_kept_under_ten_percent_with_full_error_retention(self, build):
        capture = {}
        noisy_cross_region_replication(
            build, seed=11, loss=0.02, partition_duration=6.0,
            workers=4, requests_per_worker=60, tenants=2,
            sample_keep=0.02, capture=capture,
        )
        plane = capture["plane"]
        sampler = plane.sampler
        assert sampler.seen >= 240  # every offered request was seen
        assert sampler.kept < 0.10 * sampler.seen
        now = capture["clock"].now()
        errors = plane.store.total("serve.requests", now + 1.0, now,
                                   outcome="error")
        sheds = plane.store.total("serve.requests", now + 1.0, now,
                                  outcome="shed")
        assert sampler.kept_by_reason.get("error", 0) == errors
        assert sampler.kept_by_reason.get("shed", 0) == sheds
        # Kept trace trees are exactly the tracer's serve.request roots.
        kept_roots = [
            span for span in capture["telemetry"].tracer.walk()
            if span.name == "serve.request"
        ]
        assert len(kept_roots) == sampler.kept


def _strip_exemplars(series_records):
    out = []
    for record in series_records:
        record = dict(record)
        record["windows"] = [
            {k: v for k, v in window.items() if k != "exemplar"}
            for window in record["windows"]
        ]
        out.append(record)
    return out


class TestSchema2RoundTrip:
    @pytest.fixture(scope="class")
    def traces_by_keep(self, build, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("obs-traces")
        paths = {}
        for keep in (0.0, 0.5, 1.0):
            path = tmp / f"keep-{keep}.jsonl"
            noisy_cross_region_replication(
                build, seed=11, loss=0.0, partition_duration=2.0,
                workers=1, requests_per_worker=50, tenants=2,
                sample_keep=keep, trace=str(path),
            )
            paths[keep] = path
        return paths

    def test_aggregates_identical_at_any_keep_rate(self, traces_by_keep):
        loaded = {
            keep: load_trace(path)
            for keep, path in traces_by_keep.items()
        }
        baseline = loaded[0.0]
        assert baseline.meta["schema"] == 2
        assert baseline.meta["obs"] is True
        for keep in (0.5, 1.0):
            data = loaded[keep]
            assert data.metrics == baseline.metrics
            assert _strip_exemplars(data.series) == _strip_exemplars(
                baseline.series
            )
            assert data.slo == baseline.slo
        counts = {
            keep: sum(1 for span in data.spans
                      if span["name"] == "serve.request")
            for keep, data in loaded.items()
        }
        assert counts[0.0] < counts[0.5] < counts[1.0] == 50
        samplings = {k: d.sampling for k, d in loaded.items()}
        assert samplings[1.0]["kept"] == 50
        assert samplings[0.0]["kept"] == counts[0.0]

    def test_report_and_cli_agree_on_budget_verdict(self, traces_by_keep,
                                                    capsys):
        path = str(traces_by_keep[0.5])
        data = load_trace(path)
        code = cli_main(["slo", path])
        out = capsys.readouterr().out
        assert code == (4 if data.slo["exhausted"] else 0)
        assert "verdict:" in out
        assert code == cli_main(["slo", "--json", path])

    def test_slo_cli_rejects_trace_without_obs(self, tmp_path):
        telemetry = Telemetry(service="ec2")
        path = tmp_path / "plain.jsonl"
        write_trace(telemetry, path)
        assert cli_main(["slo", str(path)]) == 2

    def test_trace_id_lookup_renders_kept_tree(self, traces_by_keep,
                                               capsys):
        path = str(traces_by_keep[1.0])
        data = load_trace(path)
        exemplar = next(
            window["exemplar"]
            for record in data.series
            if record["series"].startswith("serve.requests")
            for window in record["windows"]
            if window.get("exemplar")
        )
        rendered = render_trace(data, exemplar)
        assert exemplar in rendered
        assert "serve.request" in rendered
        assert cli_main(["report", path, "--trace-id", exemplar]) == 0
        capsys.readouterr()
        assert cli_main(["report", path, "--trace-id", "t0-missing"]) == 1
        assert "not in this file" in capsys.readouterr().out


class TestDriftMonitor:
    def test_probes_agree_on_healthy_emulator(self, build):
        capture = {}
        noisy_cross_region_replication(
            build, seed=11, loss=0.0, partition_duration=0.0,
            workers=1, requests_per_worker=40, tenants=2,
            drift_rate=0.9, capture=capture,
        )
        drift = capture["plane"].drift.as_dict()
        assert drift["checks"] > 0
        assert drift["divergences"] == 0
        assert drift["samples"] == []


class TestDashboard:
    def test_frames_replay_deterministically(self, noisy_partition_run):
        __, capture = noisy_partition_run
        plane, netem = capture["plane"], capture["netem"]
        frames = record_frames(plane, interval=2.0, netem=netem)
        assert frames
        final = frames[-1]["frame"]
        assert final.startswith("repro top")
        assert "SLO budgets" in final
        assert "tenant-0" in final
        assert record_frames(plane, interval=2.0, netem=netem) == frames

    def test_render_frame_is_pure(self, noisy_partition_run):
        __, capture = noisy_partition_run
        at = capture["clock"].now() / 2.0
        first = render_frame(capture["plane"], now=at, lookback=5.0)
        assert first == render_frame(capture["plane"], now=at,
                                     lookback=5.0)

    def test_fairness_panel_shows_allocator_grants(self, build):
        from repro.serve import AllocationConfig

        telemetry = Telemetry(service=build.service)
        plane = ObsPlane(telemetry)
        front = FrontDoor(
            build.module, build.make_backend, telemetry=telemetry,
            seed=7,
            allocation=AllocationConfig(total_rate=40.0,
                                        total_burst=16.0,
                                        realloc_interval=0.5),
        )
        vpcs = {}
        for tenant in ("hog", "quiet"):
            created = front.invoke(
                "CreateVpc", {"cidr_block": "10.0.0.0/16"},
                api_key=tenant,
            )
            assert created.success, created.error_code
            vpcs[tenant] = created.data["vpc_id"]
        for _ in range(20):
            for tenant, calls in (("hog", 5), ("quiet", 1)):
                for _ in range(calls):
                    response = front.invoke(
                        "DescribeVpcs", {"vpc_id": vpcs[tenant]},
                        api_key=tenant,
                    )
                    assert response.success, response.error_code
            front.clock.sleep(0.25)
            front.allocator.maybe_realloc()
        frame = render_frame(plane, lookback=5.0)
        lines = frame.splitlines()
        assert "fairness:" in lines
        panel = lines[lines.index("fairness:") + 1:]
        grants = {}
        for line in panel:
            if "granted" not in line:
                break
            assert "demand" in line and "regrant" in line
            tenant = line.split()[0]
            grants[tenant] = float(
                line.split("granted")[1].split("rps")[0]
            )
        # Both tenants show up, and the hungrier one holds the
        # larger grant.
        assert set(grants) == {"hog", "quiet"}
        assert grants["hog"] > grants["quiet"]


class TestObsParity:
    def test_plane_does_not_perturb_serving_behavior(self, build):
        def run(with_obs):
            telemetry = Telemetry(service=build.service)
            if with_obs:
                ObsPlane(telemetry, seed=5)
            front = FrontDoor(build.module, build.make_backend,
                              telemetry=telemetry, seed=5)
            generator = LoadGenerator(front, seed=5, workers=1,
                                      requests_per_worker=60, tenants=2)
            report = generator.run()
            return report

        plain, instrumented = run(False), run(True)
        assert instrumented.by_code == plain.by_code
        assert instrumented.requests == plain.requests
        assert instrumented.linearizable and plain.linearizable
        assert plain.obs is None and instrumented.obs is not None

    def test_malformed_envelope_is_a_client_error(self, build):
        from repro.interpreter import ProtocolError

        telemetry = Telemetry(service=build.service)
        plane = ObsPlane(telemetry, sample_keep=1.0)
        front = FrontDoor(build.module, build.make_backend,
                          telemetry=telemetry, seed=5)
        reply = json.loads(front.handle('{"Parameters": {}}'))
        assert reply["Error"]["Code"] == "SerializationException"
        with pytest.raises(ProtocolError):
            front.dispatch({"Parameters": {}})
        roots = [span for span in telemetry.tracer.walk()
                 if span.name == "serve.request"]
        assert len(roots) == 2
        for root in roots:
            assert root.attributes["outcome"] == "client_error"
            assert root.attributes["error_code"] == "SerializationException"
        now = telemetry.clock.now()
        assert plane.store.total("serve.requests", 60.0, now,
                                 outcome="client_error") == 2
        assert plane.store.total("serve.requests", 60.0, now,
                                 outcome="error") == 0


class TestServeBenchObsCli:
    def test_serve_bench_obs_emits_schema2_trace(self, tmp_path, capsys):
        trace = tmp_path / "bench.jsonl"
        spec_file = tmp_path / "slos.json"
        spec_file.write_text(json.dumps([
            {"name": "availability", "kind": "availability",
             "objective": 0.5, "period": 60.0},
        ]))
        code = cli_main([
            "serve-bench", "ec2", "--workers", "1", "--requests", "40",
            "--seed", "5", "--slo", str(spec_file),
            "--telemetry", str(trace), "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["obs"]["slo"]["slos"][0]["slo"]["objective"] == 0.5
        data = load_trace(trace)
        assert data.meta["obs"] is True
        assert data.sampling is not None
        # The loose 50% objective holds on a chaos-free run.
        assert cli_main(["slo", str(trace)]) == 0
