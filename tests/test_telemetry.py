"""Tests for the telemetry subsystem: spans, metrics, exporters, the
run report, chaos-event accounting, and the null sink's zero-overhead
guarantee."""

import json

import pytest

from repro.cli import main
from repro.core import build_learned_emulator
from repro.telemetry import (
    load_trace,
    MetricsRegistry,
    NULL_TELEMETRY,
    quantile,
    render_trace_report,
    RunReport,
    Telemetry,
    TraceError,
    write_trace,
)
from repro.telemetry.core import ensure_telemetry


class TestSpans:
    def test_nesting_builds_a_tree(self):
        tele = Telemetry(service="t")
        with tele.span("build", kind="build") as outer:
            with tele.span("extraction", kind="phase") as inner:
                assert tele.tracer.current is inner
            with tele.span("alignment", kind="phase"):
                pass
        assert tele.tracer.current is None
        assert [root.name for root in tele.tracer.roots] == ["build"]
        assert [child.name for child in outer.children] == [
            "extraction", "alignment",
        ]
        assert inner.parent_id == outer.span_id

    def test_span_ids_are_sequential_and_deterministic(self):
        tele = Telemetry()
        with tele.span("a"), tele.span("b"):
            pass
        ids = [span.span_id for span in tele.tracer.walk()]
        assert ids == ["s1", "s2"]

    def test_exception_marks_span_errored(self):
        tele = Telemetry()
        with pytest.raises(RuntimeError):
            with tele.span("work"):
                raise RuntimeError("boom")
        (span,) = tele.tracer.roots
        assert span.status == "error"
        assert span.attributes["exception"] == "RuntimeError"
        assert tele.tracer.current is None

    def test_events_attach_to_innermost_open_span(self):
        tele = Telemetry()
        tele.event("orphan")
        with tele.span("outer"):
            with tele.span("inner") as inner:
                tele.event("retry", code="InternalError")
        assert [event.name for event in inner.events] == ["retry"]
        assert [event.name for event in tele.orphan_events] == ["orphan"]
        assert sorted(e.name for e in tele.iter_events()) == [
            "orphan", "retry",
        ]

    def test_discard_root_removes_exactly_that_root(self):
        tele = Telemetry()
        for index in range(200):
            with tele.span(f"r{index}"):
                pass
        with tele.span("target") as target:
            with tele.span("child") as child:
                pass
        with tele.span("after"):
            pass
        roots = tele.tracer.roots
        early = roots[3]
        assert not tele.tracer.discard_root(child)
        assert tele.tracer.discard_root(target)
        assert not tele.tracer.discard_root(target)
        assert tele.tracer.discard_root(early)
        names = [root.name for root in roots]
        assert len(names) == 200
        assert "target" not in names and "r3" not in names
        assert names[-1] == "after"

    def test_durations_track_the_virtual_clock(self):
        tele = Telemetry()
        with tele.span("slow") as span:
            tele.clock.sleep(1.5)
        assert span.duration == pytest.approx(1.5)


class TestMetrics:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        registry.counter("calls").inc()
        registry.counter("calls").inc(4)
        registry.gauge("fleet").set(500)
        snap = registry.snapshot()
        assert snap["calls"] == {"type": "counter", "value": 5}
        assert snap["fleet"]["value"] == 500

    def test_labels_create_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("errors", code="A").inc()
        registry.counter("errors", code="B").inc(2)
        snap = registry.snapshot()
        assert snap["errors{code=A}"]["value"] == 1
        assert snap["errors{code=B}"]["value"] == 2

    def test_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_histogram_percentiles_interpolate(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency")
        for value in range(1, 101):
            hist.observe(float(value))
        summary = hist.summary()
        assert summary["count"] == 100
        assert summary["p50"] == pytest.approx(50.5)
        assert summary["p95"] == pytest.approx(95.05)
        assert summary["p99"] == pytest.approx(99.01)
        assert summary["max"] == 100.0

    def test_histogram_window_edges(self):
        # Empty and single-sample windows must not fabricate a
        # distribution: empty stays all-zero with count 0, a lone
        # sample is every quantile, and a two-sample window
        # interpolates instead of collapsing p50 onto the minimum.
        assert quantile([], 0.95) is None
        assert quantile([7.0], 0.5) == quantile([7.0], 0.99) == 7.0
        assert quantile([10.0, 1000.0], 0.5) == pytest.approx(505.0)
        hist = MetricsRegistry().histogram("empty")
        summary = hist.summary()
        assert summary["count"] == 0
        assert summary["p95"] == 0.0
        hist.observe(3.0)
        lone = hist.summary()
        assert lone["p50"] == lone["p95"] == lone["p99"] == 3.0

    def test_histogram_timer_observes_duration(self):
        hist = MetricsRegistry().histogram("t")
        ticks = iter([10.0, 12.5])
        with hist.timer(clock=lambda: next(ticks)):
            pass
        assert hist.values == [2.5]


class TestNullSink:
    def test_null_sink_is_allocation_light(self):
        first = NULL_TELEMETRY.span("a", kind="b", attr=1)
        second = NULL_TELEMETRY.span("c")
        assert first is second  # one shared context object, no per-call state
        with first as span:
            span.set("k", "v")
            span.event("e")
        assert NULL_TELEMETRY.counter("x") is NULL_TELEMETRY.histogram("y")
        assert not NULL_TELEMETRY.enabled
        assert list(NULL_TELEMETRY.iter_events()) == []

    def test_ensure_telemetry_normalizes(self):
        assert ensure_telemetry(None) is NULL_TELEMETRY
        tele = Telemetry()
        assert ensure_telemetry(tele) is tele


@pytest.fixture(scope="module")
def traced_build():
    tele = Telemetry(service="network_firewall")
    build = build_learned_emulator(
        "network_firewall", seed=7, chaos="off", telemetry=tele
    )
    return build, tele


class TestBuildInstrumentation:
    def test_span_tree_covers_every_layer(self, traced_build):
        __, tele = traced_build
        kinds = {span.kind for span in tele.tracer.walk()}
        assert {"build", "phase", "resource", "llm_call", "round",
                "trace", "api_call"} <= kinds

    def test_phases_nest_under_the_build_span(self, traced_build):
        __, tele = traced_build
        (root,) = tele.tracer.roots
        assert root.kind == "build"
        phases = [c.name for c in root.children if c.kind == "phase"]
        assert phases == ["extraction", "alignment"]

    def test_llm_metrics_match_usage(self, traced_build):
        build, tele = traced_build
        snap = tele.metrics.snapshot()
        prompt = snap["llm.prompt_tokens"]["value"]
        assert prompt == build.llm.usage.prompt_tokens

    def test_api_call_spans_carry_error_codes(self, traced_build):
        __, tele = traced_build
        codes = {
            span.attributes.get("error_code")
            for span in tele.tracer.walk()
            if span.kind == "api_call"
        }
        assert len(codes) > 1  # at least one success (None) + one error

    def test_telemetry_does_not_change_the_build(self, traced_build):
        traced, __ = traced_build
        plain = build_learned_emulator("network_firewall", seed=7,
                                       chaos="off")
        assert set(plain.module.machines) == set(traced.module.machines)
        assert plain.llm.usage == traced.llm.usage
        assert plain.alignment.converged == traced.alignment.converged
        assert plain.alignment.total_repairs == (
            traced.alignment.total_repairs
        )


class TestChaosTelemetry:
    def test_mild_build_events_match_resilience_stats(self):
        tele = Telemetry(service="dynamodb")
        build = build_learned_emulator("dynamodb", seed=7, chaos="mild",
                                       telemetry=tele)
        stats = build.resilience
        counts = {}
        for event in tele.iter_events():
            counts[event.name] = counts.get(event.name, 0) + 1
        assert stats.attempts > 0
        assert counts.get("retry", 0) == stats.retries
        assert counts.get("breaker_trip", 0) == stats.breaker_trips
        assert counts.get("gave_up", 0) == stats.gave_ups
        assert counts.get("deadline_hit", 0) == stats.deadline_hits

    def test_off_profile_with_null_sink_produces_no_telemetry(self):
        build = build_learned_emulator("network_firewall", seed=7,
                                       chaos="off")
        # The null path never attaches a sink anywhere.
        assert build.llm.telemetry is None
        assert build.make_backend()._telemetry is None

    def test_virtual_clock_is_shared_with_resilience(self):
        tele = Telemetry(service="dynamodb")
        build = build_learned_emulator("dynamodb", seed=7, chaos="mild",
                                       telemetry=tele)
        if build.resilience.retries:
            # Backoff waits advanced the telemetry clock.
            assert tele.clock.now() > 0.0


class TestExportAndReport:
    def test_jsonl_round_trip(self, traced_build, tmp_path):
        build, tele = traced_build
        report = RunReport.from_build(build, telemetry=tele)
        path = write_trace(tele, tmp_path / "run.jsonl", report=report)
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["type"] == "meta"
        assert records[0]["schema"] == 2
        assert records[0]["obs"] is False  # batch build: no serving plane
        assert records[-1]["type"] == "report"
        data = load_trace(path)
        assert data.meta["service"] == "network_firewall"
        assert len(data.spans) == records[0]["spans"]
        assert data.report["llm"]["total_tokens"] == (
            build.llm.usage.prompt_tokens
            + build.llm.usage.completion_tokens
        )

    def test_load_trace_rejects_non_traces(self, tmp_path):
        bogus = tmp_path / "x.jsonl"
        bogus.write_text("not json\n")
        with pytest.raises(TraceError):
            load_trace(bogus)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(TraceError):
            load_trace(empty)

    def test_trace_report_renders_breakdown(self, traced_build, tmp_path):
        build, tele = traced_build
        report = RunReport.from_build(build, telemetry=tele)
        path = write_trace(tele, tmp_path / "run.jsonl", report=report)
        text = render_trace_report(load_trace(path))
        assert "extraction" in text
        assert "alignment" in text
        assert "llm:" in text
        assert "api calls:" in text
        assert "faults:" in text
        assert "span tree:" in text

    def test_run_report_console_lines(self, traced_build):
        build, tele = traced_build
        text = RunReport.from_build(build).render_console()
        usage = build.llm.usage
        assert "service:   network_firewall" in text
        assert (
            f"llm calls: {usage.requests} ({usage.prompt_tokens} prompt + "
            f"{usage.completion_tokens} completion = "
            f"{usage.prompt_tokens + usage.completion_tokens} tokens, "
            f"{usage.failed_requests} failed)"
        ) in text
        # A clean run shows no resilience line.
        assert "resilience:" not in text


class TestCli:
    def test_build_telemetry_flag_writes_jsonl(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        rc = main(["build", "network_firewall", "--chaos", "off",
                   "--telemetry", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "completion" in out
        assert f"telemetry: {path}" in out
        data = load_trace(path)
        kinds = {span["kind"] for span in data.spans}
        assert {"build", "phase", "resource", "llm_call", "api_call"} <= (
            kinds
        )

    def test_build_json_flag_emits_machine_readable_report(self, capsys):
        rc = main(["build", "network_firewall", "--chaos", "off", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["service"] == "network_firewall"
        assert payload["llm"]["completion_tokens"] > 0
        assert payload["llm"]["total_tokens"] == (
            payload["llm"]["prompt_tokens"]
            + payload["llm"]["completion_tokens"]
        )
        assert payload["resilience"]["clean"] is True

    def test_build_without_flag_emits_no_telemetry(self, tmp_path,
                                                   capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["build", "network_firewall", "--chaos", "off"])
        assert rc == 0
        assert "telemetry" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_report_renders_saved_trace(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(["build", "network_firewall", "--chaos", "off",
                     "--telemetry", str(path)]) == 0
        capsys.readouterr()
        rc = main(["report", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Telemetry report" in out
        assert "alignment" in out

    def test_report_rejects_a_bad_trace_path(self, tmp_path, capsys):
        rc = main(["report", str(tmp_path / "missing.jsonl")])
        assert rc == 2
        assert "error" in capsys.readouterr().err
