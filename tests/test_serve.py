"""Tests for the hardened concurrent serving layer (repro.serve)."""

import json
import threading

import pytest

from repro.core import build_learned_emulator
from repro.resilience.chaos import ChaosEngine, ChaosProxy, HOSTILE_PROFILE
from repro.resilience.policy import VirtualClock
from repro.resilience.ratelimit import TokenBucket
from repro.serve import (
    AdmissionController,
    AdmittedLog,
    ConcurrentEmulator,
    FrontDoor,
    LoadGenerator,
    OVERLOADED,
    RWLock,
    THROTTLED,
)
from repro.telemetry import Telemetry


@pytest.fixture(scope="module")
def build():
    return build_learned_emulator("ec2", seed=7, align=False)


def make_front(build, **kwargs):
    return FrontDoor(build.module, build.make_backend, **kwargs)


class TestRWLock:
    def test_readers_share(self):
        lock = RWLock()
        both_in = threading.Barrier(2, timeout=5)

        def reader():
            with lock.read():
                both_in.wait()  # only passes if both hold it at once

        threads = [threading.Thread(target=reader) for __ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        assert not any(t.is_alive() for t in threads)

    def test_writer_excludes_readers(self):
        lock = RWLock()
        order = []
        writer_in = threading.Event()

        def writer():
            with lock.write():
                writer_in.set()
                order.append("write-start")
                order.append("write-end")

        def reader():
            writer_in.wait(timeout=5)
            with lock.read():
                order.append("read")

        w, r = threading.Thread(target=writer), threading.Thread(
            target=reader
        )
        w.start(), r.start()
        w.join(timeout=5), r.join(timeout=5)
        assert order == ["write-start", "write-end", "read"]

    def test_writer_preference_blocks_new_readers(self):
        lock = RWLock()
        lock.acquire_read()
        write_done = threading.Event()

        def writer():
            with lock.write():
                write_done.set()

        thread = threading.Thread(target=writer)
        thread.start()
        # A waiting writer parks new readers behind it.
        import time

        time.sleep(0.05)
        assert not write_done.is_set()
        lock.release_read()
        thread.join(timeout=5)
        assert write_done.is_set()


class TestTokenBucket:
    def test_burst_then_refill_on_virtual_clock(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=clock)
        assert bucket.try_take()
        assert bucket.try_take()
        assert not bucket.try_take()
        assert bucket.retry_after() == pytest.approx(1.0)
        clock.sleep(1.0)
        assert bucket.try_take()

    def test_burst_caps_refill(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate=10.0, burst=3.0, clock=clock)
        clock.sleep(100.0)
        taken = sum(1 for __ in range(10) if bucket.try_take())
        assert taken == 3


class TestReadOnlyClassification:
    def test_creates_are_writes_describes_are_reads(self, build):
        emulator = build.make_backend()
        for api, (__, transition) in build.module.transition_index().items():
            if api.startswith("_"):
                continue
            if transition.category == "create":
                assert not emulator.read_only(api), api
            if transition.category == "describe" and not transition.params:
                assert emulator.read_only(api), api

    def test_unknown_api_classified_read(self, build):
        # It fails before touching state, so it rides the shared lock.
        assert build.make_backend().read_only("NoSuchApi")

    def test_concurrent_emulator_requires_classifier(self):
        with pytest.raises(TypeError):
            ConcurrentEmulator(object())


class TestValidation:
    def test_type_invalid_parameter_rejected(self, build):
        front = make_front(build)
        response = front.invoke("CreateVpc", {"CidrBlock": 123})
        assert not response.success
        assert response.error_code == "ValidationError"
        assert "CidrBlock" in response.error_message or "cidr" in (
            response.error_message
        )

    def test_missing_subject_rejected_before_dispatch(self, build):
        front = make_front(build)
        response = front.invoke("DeleteVpc", {})
        assert not response.success
        assert response.error_code == "MissingParameter"
        # Nothing reached the emulator: the admitted log stays empty.
        assert len(front.admitted) == 0

    def test_unknown_parameters_tolerated(self, build):
        front = make_front(build)
        response = front.invoke(
            "CreateVpc",
            {"CidrBlock": "10.0.0.0/16", "TotallyUnknownKey": object()},
        )
        assert response.success

    def test_unknown_action_is_the_emulators_answer(self, build):
        front = make_front(build)
        body = front.dispatch({"Action": "NoSuchApi"})
        assert body["Error"]["Code"] == "InvalidAction"

    def test_validation_rejects_counted(self, build):
        telemetry = Telemetry(service="ec2")
        front = make_front(build, telemetry=telemetry)
        front.invoke("CreateVpc", {"CidrBlock": 123})
        snapshot = telemetry.metrics.snapshot()
        assert any(
            key.startswith("serve.validation_rejects") for key in snapshot
        )


class TestTenancy:
    def test_namespaces_are_isolated(self, build):
        front = make_front(build)
        created = front.invoke(
            "CreateVpc", {"CidrBlock": "10.0.0.0/16"}, api_key="alice"
        )
        assert created.success
        vpc = created.data["id"]
        stranger = front.invoke(
            "DeleteVpc", {"VpcId": vpc}, api_key="bob"
        )
        assert not stranger.success
        assert "NotFound" in stranger.error_code
        owner = front.invoke(
            "DeleteVpc", {"VpcId": vpc}, api_key="alice"
        )
        assert owner.success

    def test_require_key_rejects_anonymous(self, build):
        front = make_front(build, require_key=True)
        body = front.dispatch({"Action": "DescribeVpcs"})
        assert body["Error"]["Code"] == "MissingAuthenticationToken"

    def test_tenant_table_bound(self, build):
        front = make_front(build, max_tenants=2)
        params = {"CidrBlock": "10.0.0.0/16"}
        assert front.invoke("CreateVpc", params, api_key="t1").success
        assert front.invoke("CreateVpc", params, api_key="t2").success
        third = front.invoke("CreateVpc", params, api_key="t3")
        assert third.error_code == "UnrecognizedClientException"

    def test_per_tenant_request_id_streams_deterministic(self, build):
        first = make_front(build, seed=5)
        second = make_front(build, seed=5)
        body_a = first.dispatch({"Action": "DescribeVpcs"}, api_key="a")
        body_b = second.dispatch({"Action": "DescribeVpcs"}, api_key="a")
        assert body_a["ResponseMetadata"]["RequestId"] == (
            body_b["ResponseMetadata"]["RequestId"]
        )


class TestWireHandle:
    """``FrontDoor.handle`` (JSON in, JSON out) takes the same request
    path as ``dispatch``: deadlines, retries and the obs root span."""

    def test_expired_deadline_over_the_wire_times_out(self, build):
        front = make_front(build, allocation=True)
        reply = json.loads(front.handle(json.dumps({
            "Action": "CreateVpc",
            "Parameters": {"CidrBlock": "10.0.0.0/16"},
            "DeadlineSeconds": -1.0,
        }), api_key="t"))
        assert reply["Error"]["Code"] == "RequestTimeout"
        assert len(front.admitted) == 0

    def test_obs_front_door_records_a_root_span(self, build):
        from repro.obs import ObsPlane

        telemetry = Telemetry(service="ec2")
        ObsPlane(telemetry, seed=7, sample_keep=1.0)
        front = make_front(build, telemetry=telemetry)
        reply = json.loads(front.handle(json.dumps({
            "Action": "CreateVpc",
            "Parameters": {"CidrBlock": "10.0.0.0/16"},
        }), api_key="t"))
        assert "Error" not in reply
        roots = [span for span in telemetry.tracer.walk()
                 if span.name == "serve.request"]
        assert len(roots) == 1
        assert roots[0].attributes["tenant"] == "t"
        assert roots[0].attributes["api"] == "CreateVpc"
        assert roots[0].attributes["outcome"] == "ok"

    def test_malformed_envelopes_stay_serialization_errors(self, build):
        front = make_front(build)
        for payload in ("{not json", "[1, 2]",
                        json.dumps({"Parameters": {}}), b"\xff"):
            reply = json.loads(front.handle(payload, api_key="t"))
            assert reply["Error"]["Code"] == "SerializationException"
        assert len(front.admitted) == 0

    def test_handle_matches_dispatch(self, build):
        request = {"Action": "CreateVpc",
                   "Parameters": {"CidrBlock": "10.0.0.0/16"}}
        wire = make_front(build, seed=3)
        direct = make_front(build, seed=3)
        assert json.loads(wire.handle(json.dumps(request), api_key="a")) \
            == direct.dispatch(request, api_key="a")


class TestAdmission:
    def test_bucket_exhaustion_sheds_with_retry_after(self):
        clock = VirtualClock()
        controller = AdmissionController(
            clock=clock, rate=5.0, burst=2.0, degrade_after=100
        )
        decisions = [
            controller.admit("t", "CreateVpc", read_only=False)
            for __ in range(3)
        ]
        for decision in decisions[:2]:
            assert decision.admitted
            controller.release()
        shed = decisions[2]
        assert not shed.admitted
        assert shed.response.error_code == THROTTLED
        assert shed.response.data["RetryAfterSeconds"] > 0

    def test_degraded_mode_keeps_reads_alive(self):
        clock = VirtualClock()
        controller = AdmissionController(
            clock=clock, rate=5.0, burst=1.0, degrade_after=3
        )
        assert controller.admit("t", "CreateVpc", read_only=False).admitted
        controller.release()
        for __ in range(3):
            controller.admit("t", "CreateVpc", read_only=False)
        assert controller.degraded("t")
        read = controller.admit("t", "DescribeVpcs", read_only=True)
        assert read.admitted
        controller.release()
        write = controller.admit("t", "CreateVpc", read_only=False)
        assert not write.admitted
        assert write.response.error_code == OVERLOADED

    def test_degraded_tenant_recovers_when_bucket_refills(self):
        clock = VirtualClock()
        controller = AdmissionController(
            clock=clock, rate=5.0, burst=1.0, degrade_after=2
        )
        controller.admit("t", "CreateVpc", read_only=False)
        controller.release()
        for __ in range(2):
            controller.admit("t", "CreateVpc", read_only=False)
        assert controller.degraded("t")
        clock.sleep(1.0)  # refills 5 tokens (capped at burst=1)
        write = controller.admit("t", "CreateVpc", read_only=False)
        assert write.admitted
        controller.release()
        assert not controller.degraded("t")

    def test_recover_hysteresis_needs_consecutive_tokens(self):
        """``recover_after > 1``: one lucky token does not clear
        degraded mode — only a sustained run of grants does, so a
        tenant flapping around the degrade threshold stays degraded
        instead of toggling its admission mode on every request."""
        clock = VirtualClock()
        controller = AdmissionController(
            clock=clock, rate=2.0, burst=1.0,
            degrade_after=2, recover_after=3,
        )
        controller.admit("t", "CreateVpc", read_only=False)
        controller.release()
        for __ in range(2):
            controller.admit("t", "CreateVpc", read_only=False)
        assert controller.degraded("t")
        # One refilled token: admitted, but still degraded (1 < 3).
        clock.sleep(0.5)
        assert controller.admit("t", "CreateVpc",
                                read_only=False).admitted
        controller.release()
        assert controller.degraded("t")
        # A shed in between resets the consecutive-token run.
        controller.admit("t", "CreateVpc", read_only=False)
        clock.sleep(0.5)
        assert controller.admit("t", "CreateVpc",
                                read_only=False).admitted
        controller.release()
        assert controller.degraded("t")
        # Three consecutive grants finally clear the mode.
        for __ in range(2):
            clock.sleep(0.5)
            assert controller.admit("t", "CreateVpc",
                                    read_only=False).admitted
            controller.release()
        assert not controller.degraded("t")

    def test_default_recover_after_is_first_token(self):
        """The default ``recover_after=1`` keeps the original
        semantics: the first refilled token ends degraded mode."""
        clock = VirtualClock()
        controller = AdmissionController(
            clock=clock, rate=5.0, burst=1.0, degrade_after=2,
        )
        controller.admit("t", "CreateVpc", read_only=False)
        controller.release()
        for __ in range(2):
            controller.admit("t", "CreateVpc", read_only=False)
        assert controller.degraded("t")
        clock.sleep(1.0)
        assert controller.admit("t", "CreateVpc",
                                read_only=False).admitted
        controller.release()
        assert not controller.degraded("t")

    def test_admission_queue_bound(self):
        controller = AdmissionController(
            clock=VirtualClock(), rate=1e9, burst=1e9,
            max_concurrent=1, queue_depth=1,
        )
        assert controller.admit("t", "X", read_only=False).admitted
        assert controller.admit("t", "X", read_only=False).admitted
        third = controller.admit("t", "X", read_only=False)
        assert not third.admitted
        assert third.response.error_code == OVERLOADED
        assert "queue" in third.response.error_message

    def test_overload_at_10x_rate_sheds_without_crashing(self, build):
        telemetry = Telemetry(service="ec2")
        front = make_front(
            build, telemetry=telemetry, rate=50.0, burst=20.0
        )
        generator = LoadGenerator(
            front, seed=11, workers=4, requests_per_worker=250,
            read_ratio=0.5, tenants=1, offered_rate=500.0,
        )
        report = generator.run()
        assert report.linearizable, report.mismatches
        assert report.by_code.get(THROTTLED, 0) > 0
        assert report.shed > report.requests // 4
        assert report.by_code.get("", 0) > 0  # but the service lived
        snapshot = telemetry.metrics.snapshot()
        assert any(key.startswith("serve.shed") for key in snapshot)
        assert "serve.queue_depth_samples" in snapshot


class TestAdmittedLog:
    def test_commit_order_and_dump(self, tmp_path):
        log = AdmittedLog()
        log.append("a", "CreateVpc", {"CidrBlock": "10.0.0.0/16"}, True)
        log.append("b", "CreateVpc", {}, False)
        assert [r["seq"] for r in log.records] == [1, 2]
        assert log.per_tenant("a")[0]["api"] == "CreateVpc"
        target = log.dump_jsonl(tmp_path / "admitted.jsonl")
        lines = target.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["tenant"] == "b"


class TestConcurrentSoak:
    WORKERS = 8
    PER_WORKER = 250  # 8 × 250 = 2000 mixed requests

    def test_clean_soak_is_linearizable(self, build):
        front = make_front(build)
        generator = LoadGenerator(
            front, seed=21, workers=self.WORKERS,
            requests_per_worker=self.PER_WORKER, read_ratio=0.6,
            tenants=2,
        )
        report = generator.run()
        assert report.requests == self.WORKERS * self.PER_WORKER
        assert report.linearizable, report.mismatches
        assert report.by_code.get("", 0) > 0
        assert len(front.admitted) > 0

    def test_hostile_chaos_soak_is_linearizable(self, build):
        engine = ChaosEngine(HOSTILE_PROFILE, seed=23)
        front = make_front(
            build, wrap=lambda backend: ChaosProxy(backend, engine)
        )
        generator = LoadGenerator(
            front, seed=22, workers=self.WORKERS,
            requests_per_worker=self.PER_WORKER, read_ratio=0.6,
            tenants=2,
        )
        report = generator.run()
        assert report.requests == self.WORKERS * self.PER_WORKER
        assert report.linearizable, report.mismatches
        # Chaos injected faults, but they never entered the log.
        assert sum(engine.injected.values()) > 0
        for record in front.admitted.records:
            assert record["api"] != ""

    def test_serial_rerun_reproduces_request_outcomes(self, build):
        """Same seed, 1 worker: the offered traffic is identical, so
        the outcome histogram is too (scheduling-independent)."""
        def histogram():
            front = make_front(build)
            generator = LoadGenerator(
                front, seed=33, workers=1, requests_per_worker=300,
                tenants=1,
            )
            return generator.run().by_code

        assert histogram() == histogram()


class TestServeTelemetryReport:
    def test_trace_renders_serving_section(self, build, tmp_path):
        from repro.telemetry import load_trace, render_trace_report
        from repro.telemetry.export import write_trace

        telemetry = Telemetry(service="ec2")
        front = make_front(
            build, telemetry=telemetry, rate=20.0, burst=5.0
        )
        generator = LoadGenerator(
            front, seed=9, workers=2, requests_per_worker=100,
            offered_rate=200.0,
        )
        report = generator.run()
        assert report.linearizable
        path = write_trace(telemetry, tmp_path / "serve.jsonl")
        text = render_trace_report(load_trace(path))
        assert "serving:" in text
        assert "request(s)" in text
        assert "shed" in text
