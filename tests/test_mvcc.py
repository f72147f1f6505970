"""MVCC serve path: version immutability, publication, reclamation,
the lock-free read contract, and the RW-lock fairness fallback."""

import json
import threading
import time

import pytest

from repro.core import build_learned_emulator
from repro.durability.snapshot import version_dump
from repro.interpreter.versionmap import CHUNK
from repro.obs.tracectx import CURRENT_REQUEST, RequestContext
from repro.resilience.chaos import ChaosEngine, ChaosProxy, HOSTILE_PROFILE
from repro.serve import ConcurrentEmulator, FrontDoor, LoadGenerator
from repro.serve.locks import RWLock
from repro.serve.mvcc import ReaderSlots, VersionChain
from repro.telemetry import Telemetry
from repro.telemetry.report import _serving_rows


@pytest.fixture(scope="module")
def build():
    return build_learned_emulator("ec2", seed=7, align=False)


def _canonical(dump: dict) -> str:
    return json.dumps(dump, sort_keys=True)


class TestRegistryVersions:
    def test_publish_caches_until_mutation(self, build):
        emulator = build.make_backend()
        first = emulator.publish_version()
        assert emulator.publish_version() is first
        assert emulator.invoke(
            "CreateVpc", {"CidrBlock": "10.0.0.0/16"}
        ).success
        second = emulator.publish_version()
        assert second is not first
        assert second.version == first.version + 1

    def test_pinned_version_is_byte_stable_under_writes(self, build):
        emulator = build.make_backend()
        emulator.invoke("CreateVpc", {"CidrBlock": "10.0.0.0/16"})
        pinned = emulator.publish_version()
        baseline = _canonical(version_dump(pinned))
        for index in range(25):
            emulator.invoke(
                "CreateVpc", {"CidrBlock": f"10.{index + 1}.0.0/16"}
            )
        assert _canonical(version_dump(pinned)) == baseline

    def test_versions_refuse_mutation(self, build):
        emulator = build.make_backend()
        version = emulator.publish_version()
        with pytest.raises(RuntimeError, match="immutable"):
            version.new_id("vpc")
        with pytest.raises(RuntimeError, match="immutable"):
            version.place("vpc-00000001", "us-east-1")

    def test_invoke_at_reads_the_pinned_past(self, build):
        emulator = build.make_backend()
        first = emulator.invoke(
            "CreateVpc", {"CidrBlock": "10.0.0.0/16"}
        ).data["id"]
        old = emulator.publish_version()
        live_then = emulator.invoke("DescribeVpcs", {"VpcId": first})
        second = emulator.invoke(
            "CreateVpc", {"CidrBlock": "10.1.0.0/16"}
        ).data["id"]
        # The pinned version still answers with the old world: the
        # first VPC describes fine, the second does not exist yet.
        at_old = emulator.invoke_at(old, "DescribeVpcs", {"VpcId": first})
        assert at_old.success
        assert at_old.data == live_then.data
        missing = emulator.invoke_at(
            old, "DescribeVpcs", {"VpcId": second}
        )
        assert not missing.success
        # ...while a fresh version sees both.
        fresh = emulator.publish_version()
        assert emulator.invoke_at(
            fresh, "DescribeVpcs", {"VpcId": second}
        ).success

    def test_version_numbers_survive_reset_and_restore(self, build):
        emulator = build.make_backend()
        emulator.invoke("CreateVpc", {"CidrBlock": "10.0.0.0/16"})
        before = emulator.publish_version()
        saved = emulator.snapshot()
        frozen = _canonical(version_dump(before))
        emulator.reset()
        after_reset = emulator.publish_version()
        assert after_reset.version > before.version
        emulator.restore(saved)
        after_restore = emulator.publish_version()
        assert after_restore.version > after_reset.version
        # Restore rebuilt the world without ever touching the old
        # pinned version...
        assert _canonical(version_dump(before)) == frozen
        # ...and the restored content matches it.
        assert _canonical(version_dump(after_restore)) == frozen


class _FakeVersion:
    __slots__ = ("version",)

    def __init__(self, version):
        self.version = version


class TestVersionChain:
    def test_reclaims_only_below_the_pin_floor(self):
        slots = ReaderSlots()
        chain = VersionChain(_FakeVersion(1), slots)
        slot = slots.slot()
        pinned = chain.pin(slot)
        assert pinned.version == 1
        assert chain.publish(_FakeVersion(2)) == 0  # v1 still pinned
        assert chain.live == 2
        assert chain.publish(_FakeVersion(3)) == 0
        assert chain.live == 3
        slot.pinned = None
        assert chain.reclaim() == 2
        assert chain.live == 1
        assert chain.publishes == 3
        assert chain.reclaimed == 2

    def test_publish_same_version_is_a_noop(self):
        slots = ReaderSlots()
        first = _FakeVersion(1)
        chain = VersionChain(first, slots)
        chain.publish(first)
        assert chain.publishes == 1
        assert chain.live == 1

    def test_floor_is_the_oldest_pin_across_slots(self):
        from repro.serve.mvcc import _ReaderSlot

        slots = ReaderSlots()
        slot_a = slots.slot()
        # Simulate a second thread's slot.
        slot_b = _ReaderSlot()
        slots._slots.append(slot_b)
        slot_a.pinned = 5
        slot_b.pinned = 3
        assert slots.min_pinned() == 3
        slot_b.pinned = None
        assert slots.min_pinned() == 5
        slot_a.pinned = None
        assert slots.min_pinned() is None


class TestConcurrentEmulatorMvcc:
    def test_auto_detects_mvcc_and_reads_never_lock(self, build):
        emulator = ConcurrentEmulator(build.make_backend())
        assert emulator.mvcc
        created = emulator.invoke(
            "CreateVpc", {"CidrBlock": "10.0.0.0/16"}
        )
        assert created.success
        params = {"VpcId": created.data["id"]}
        for __ in range(20):
            assert emulator.invoke("DescribeVpcs", params).success
        stats = emulator.version_stats()
        assert stats["read_lock_acquisitions"] == 0
        assert stats["write_lock_acquisitions"] == 0
        assert stats["pinned_reads"] >= 20
        assert stats["publishes"] >= 2

    def test_mvcc_false_falls_back_to_the_rw_lock(self, build):
        emulator = ConcurrentEmulator(build.make_backend(mvcc=False))
        assert not emulator.mvcc
        created = emulator.invoke(
            "CreateVpc", {"CidrBlock": "10.0.0.0/16"}
        )
        params = {"VpcId": created.data["id"]}
        for __ in range(5):
            assert emulator.invoke("DescribeVpcs", params).success
        assert emulator.lock.read_acquisitions == 5
        assert emulator.lock.write_acquisitions == 1
        assert emulator.version_stats()["mvcc"] is False

    def test_forcing_mvcc_without_the_surface_is_an_error(self, build):
        class _Opaque:
            def read_only(self, api):
                return True

        with pytest.raises(TypeError, match="invoke_at"):
            ConcurrentEmulator(_Opaque(), mvcc=True)

    def test_request_context_records_the_pinned_version(self, build):
        emulator = ConcurrentEmulator(build.make_backend())
        ctx = RequestContext("t-1", "default", "DescribeVpcs", 0.0)
        token = CURRENT_REQUEST.set(ctx)
        try:
            emulator.invoke("DescribeVpcs", {})
            read_version = ctx.registry_version
            assert read_version >= 1
            emulator.invoke("CreateVpc", {"CidrBlock": "10.0.0.0/16"})
            assert ctx.registry_version == read_version + 1
        finally:
            CURRENT_REQUEST.reset(token)

    def test_restore_publishes_never_mutates_pinned(self, build):
        emulator = ConcurrentEmulator(build.make_backend())
        emulator.invoke("CreateVpc", {"CidrBlock": "10.0.0.0/16"})
        saved = emulator.snapshot()
        slot = emulator._slots.slot()
        pinned = emulator._chain.pin(slot)
        frozen = _canonical(version_dump(pinned))
        emulator.invoke("CreateVpc", {"CidrBlock": "10.1.0.0/16"})
        emulator.restore(saved)
        # The pinned version never moved, restore came out as a new one.
        assert _canonical(version_dump(pinned)) == frozen
        assert emulator._chain.current.version > pinned.version
        restored = emulator.snapshot()
        assert _canonical(restored) == _canonical(saved)
        slot.pinned = None

    def test_snapshots_under_write_churn_restore_byte_identical(
            self, build):
        emulator = ConcurrentEmulator(build.make_backend())
        for index in range(500):
            assert emulator.invoke(
                "CreateVpc", {"CidrBlock": f"10.{index % 200}.0.0/16"}
            ).success
        stop = threading.Event()
        failures = []
        pairs = [0]

        def writer():
            # Unthrottled but size-neutral: every create is deleted
            # again, so each snapshot dumps ~500 VPCs however far the
            # writer outruns the snapshots, and deletes publish under
            # snapshot too.
            index = 0
            while not stop.is_set():
                created = emulator.invoke(
                    "CreateVpc",
                    {"CidrBlock": f"10.{index % 200}.0.0/16"},
                )
                deleted = emulator.invoke(
                    "DeleteVpc", {"VpcId": created.data["id"]}
                )
                if not deleted.success:
                    failures.append(f"delete failed: {deleted}")
                    return
                pairs[0] += 1
                index += 1

        churn = threading.Thread(target=writer, daemon=True)
        churn.start()
        try:
            before = pairs[0]
            for __ in range(30):
                snap = emulator.snapshot()
                replica = build.make_backend()
                replica.restore(snap)
                if _canonical(replica.snapshot()) != _canonical(snap):
                    failures.append("restore diverged from snapshot")
            during = pairs[0] - before
        finally:
            stop.set()
            churn.join(timeout=10)
        assert not churn.is_alive()
        assert not failures
        # Not vacuous: the writer kept publishing while snapshots ran.
        assert during > 0

    def test_recover_is_atomic_for_pinned_readers(self, build):
        emulator = ConcurrentEmulator(build.make_backend())
        emulator.invoke("CreateVpc", {"CidrBlock": "10.0.0.0/16"})
        saved = emulator.snapshot()
        slot = emulator._slots.slot()
        pinned = emulator._chain.pin(slot)
        frozen = _canonical(version_dump(pinned))
        emulator.invoke("CreateVpc", {"CidrBlock": "10.1.0.0/16"})
        replayed = emulator.recover(saved, records=[])
        assert replayed == 0
        assert _canonical(version_dump(pinned)) == frozen
        assert _canonical(emulator.snapshot()) == _canonical(saved)
        slot.pinned = None

    def test_drift_check_is_consistent_under_write_churn(self, build):
        emulator = ConcurrentEmulator(build.make_backend())
        created = emulator.invoke(
            "CreateVpc", {"CidrBlock": "10.0.0.0/16"}
        )
        vpc = created.data["id"]
        stop = threading.Event()

        def writer():
            index = 0
            while not stop.is_set():
                emulator.invoke(
                    "CreateSubnet",
                    {"VpcId": vpc,
                     "CidrBlock": f"10.0.{index % 250}.0/24"},
                )
                index += 1

        churn = threading.Thread(target=writer, daemon=True)
        churn.start()
        try:
            for __ in range(30):
                ok, detail = emulator.drift_check("DescribeVpcs", {})
                assert ok, detail
                ok, detail = emulator.drift_check(
                    "DescribeVpcs", {"VpcId": vpc}
                )
                assert ok, detail
        finally:
            stop.set()
            churn.join()
        assert emulator.version_stats()["read_lock_acquisitions"] == 0

    def test_reclamation_bounds_live_versions(self, build):
        emulator = ConcurrentEmulator(build.make_backend())
        for index in range(40):
            emulator.invoke(
                "CreateVpc", {"CidrBlock": f"10.{index % 200}.0.0/16"}
            )
        stats = emulator.version_stats()
        # No readers pinned anything, so every superseded version was
        # reclaimed at the next publish.
        assert stats["versions_live"] == 1
        assert stats["reclaimed"] == stats["publishes"] - 1


class TestPublishCost:
    def test_publish_copies_what_the_write_touched(self, build):
        telemetry = Telemetry(service="ec2")
        emulator = ConcurrentEmulator(build.make_backend(),
                                      telemetry=telemetry)
        vpcs = [
            emulator.invoke(
                "CreateVpc", {"CidrBlock": f"10.{index % 200}.0.0/16"}
            ).data["id"]
            for index in range(1000)
        ]
        before = emulator.version_stats()["publish_copied"]
        assert emulator.invoke("ModifyVpcAttribute", {
            "VpcId": vpcs[500], "EnableDnsHostnames": True,
        }).success
        copied = emulator.version_stats()["publish_copied"] - before
        chunks = len(emulator._chain.current.instances._chunks)
        # One chunk of entries plus the chunk list, not 1000 entries.
        assert 0 < copied <= CHUNK + chunks
        spans = [span for span in telemetry.tracer.walk()
                 if span.name == "serve.publish"]
        assert spans[-1].attributes["copied"] == copied
        assert telemetry.metrics.counter(
            "serve.publish_copied"
        ).value == emulator.version_stats()["publish_copied"]


class TestMvccSoak:
    def test_hostile_soak_with_background_snapshotters(self, build):
        """Chaos + concurrent snapshot/restore cycles while the load
        runs: linearizability and snapshot byte-identity must hold and
        the read path must stay lock-free."""
        engine = ChaosEngine(HOSTILE_PROFILE, seed=61)
        front = FrontDoor(
            build.module, build.make_backend,
            wrap=lambda backend: ChaosProxy(backend, engine),
            rate=1e9, burst=1e9, max_concurrent=64, queue_depth=256,
        )
        stop = threading.Event()
        snapshot_failures = []

        def snapshotter():
            while not stop.is_set():
                for tenant in front.router.tenants():
                    snap = tenant.emulator.snapshot()
                    replica = build.make_backend()
                    replica.restore(snap)
                    if (_canonical(replica.snapshot())
                            != _canonical(snap)):
                        snapshot_failures.append(tenant.name)
                time.sleep(0.001)

        shadow = threading.Thread(target=snapshotter, daemon=True)
        shadow.start()
        try:
            generator = LoadGenerator(
                front, seed=62, workers=8, requests_per_worker=125,
                read_ratio=0.6, tenants=2,
            )
            report = generator.run()
        finally:
            stop.set()
            shadow.join()
        assert report.linearizable, report.mismatches
        assert not snapshot_failures
        assert report.mvcc["read_lock_acquisitions"] == 0
        assert report.mvcc["mvcc_tenants"] == report.mvcc["tenants"]
        assert sum(engine.injected.values()) > 0


class TestRWLockFairness:
    def test_counters_track_acquisitions(self):
        lock = RWLock()
        with lock.read():
            pass
        with lock.write():
            pass
        assert lock.read_acquisitions == 1
        assert lock.write_acquisitions == 1

    def test_read_streak_triggers_a_fairness_yield(self):
        lock = RWLock(fairness_bound=4, yield_s=0.001)
        held = threading.Event()
        release = threading.Event()

        def holder():
            with lock.read():
                held.set()
                release.wait(timeout=5)

        thread = threading.Thread(target=holder)
        thread.start()
        assert held.wait(timeout=5)
        # Build an unbroken admission streak past the bound while a
        # reader is still inside; the bound must fire and be counted.
        for __ in range(6):
            with lock.read():
                pass
        assert lock.fairness_yields >= 1
        release.set()
        thread.join()

    def test_write_resets_the_streak(self):
        lock = RWLock(fairness_bound=4, yield_s=0.001)
        for __ in range(3):
            with lock.read():
                pass
        with lock.write():
            pass
        assert lock._read_streak == 0

    def test_writer_completes_under_continuous_read_stream(self):
        """The degraded-mode regression: a writer queued behind an
        unbroken stream of admitted reads must still get in."""
        lock = RWLock(fairness_bound=8, yield_s=0.0005)
        stop = threading.Event()
        wrote = threading.Event()

        def reader():
            while not stop.is_set():
                with lock.read():
                    time.sleep(0.0002)

        readers = [
            threading.Thread(target=reader, daemon=True)
            for __ in range(4)
        ]
        for thread in readers:
            thread.start()
        time.sleep(0.02)  # the read stream is in full swing

        def writer():
            with lock.write():
                wrote.set()

        pen = threading.Thread(target=writer, daemon=True)
        pen.start()
        finished = wrote.wait(timeout=5)
        stop.set()
        pen.join(timeout=5)
        for thread in readers:
            thread.join(timeout=5)
        assert finished, "writer starved behind the read stream"


class TestReportRows:
    def test_version_counters_surface_in_serving_rows(self):
        rows = _serving_rows({
            "serve.requests": {"value": 10},
            "serve.version_publishes": {"value": 4},
            "serve.reclaimed": {"value": 3},
            "serve.versions_live": {"value": 1.0},
        })
        assert any(
            "4 version publish(es) (3 reclaimed, 1 live)" == row
            for row in rows
        )

    def test_publish_copies_surface_in_serving_rows(self):
        rows = _serving_rows({
            "serve.requests": {"value": 10},
            "serve.version_publishes": {"value": 4},
            "serve.publish_copied": {"value": 260},
        })
        assert "260 entr(ies) copied by publishes (65.0 per publish)" in rows

    def test_rows_stay_silent_without_mvcc(self):
        rows = _serving_rows({"serve.requests": {"value": 10}})
        assert all("version" not in row for row in rows)
