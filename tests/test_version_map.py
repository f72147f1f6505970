"""Structurally shared registry versions: seeded property streams.

Random create/modify/delete streams run against a live registry and
publish at random points.  Every published version must dump exactly
like the live registry did at publish time, keep that dump while the
stream goes on, and cost a publish only the chunks it touched.
"""

import json
import random
import sys
import threading
import time

import pytest

from repro.core import build_learned_emulator
from repro.durability.snapshot import registry_dump, version_dump
from repro.interpreter.machine import MachineInstance, Transaction
from repro.interpreter.versionmap import (
    CHUNK, VersionMap, build, derive, note,
)
from repro.serve import ConcurrentEmulator

#: service -> (create API, params for the i-th create); the second
#: service is any other docs.CATALOGS entry with a parameterless-ish
#: create.
SERVICES = {
    "ec2": ("CreateVpc", lambda i: {"CidrBlock": f"10.{i % 200}.0.0/16"}),
    "dynamodb": ("CreateTable", lambda i: {"TableName": f"t{i}"}),
}


def _dumped(version_or_registry) -> str:
    if isinstance(version_or_registry.instances, VersionMap):
        return json.dumps(version_dump(version_or_registry))
    return json.dumps(registry_dump(version_or_registry))


def _touched(previous: VersionMap, current: VersionMap) -> int:
    """Chunks of ``current`` not shared with ``previous`` (at the same
    position) — what a publish had to build or copy."""
    old = previous._chunks
    return sum(
        1 for position, chunk in enumerate(current._chunks)
        if position >= len(old) or chunk is not old[position]
    )


def _chunk_bound(live: int) -> int:
    """Chunks a map may hold: compaction rebuilds once stale index
    entries outnumber live ones, and every chunk but the tail took
    CHUNK distinct keys, so chunks <= 2 * live / CHUNK + 1."""
    return 2 * live // CHUNK + 1


class _Stream:
    """One seeded stream over one emulator, checking every publish."""

    def __init__(self, build, service: str, seed: int):
        self.emulator = build.make_backend()
        self.machines = list(self.emulator.module.machines.values())
        self.create_api, self.create_params = SERVICES[service]
        self.rng = random.Random(seed)
        self.pinned: list[tuple[object, str]] = []
        self.deleted: list[MachineInstance] = []
        self.previous = None
        self.creates = 0
        self.rebuilds = 0
        self.emptied = 0
        self.emptied_tail = 0

    @property
    def registry(self):
        return self.emulator.registry

    def live_ids(self) -> list[str]:
        return list(self.registry.instances)

    # -- operations ----------------------------------------------------------

    def commit(self, created=0, modified=(), deleted=()) -> None:
        registry = self.registry
        txn = Transaction(registry)
        for __ in range(created):
            spec = self.rng.choice(self.machines)
            instance = registry.create(spec, {"n": 0})
            txn.create(instance)
            if self.rng.random() < 0.2:
                txn.set_state(instance.id, "n", -1)
        for instance_id in modified:
            txn.set_state(instance_id, "n", self.rng.randrange(10 ** 6))
        for instance_id in deleted:
            self.deleted.append(registry.instances[instance_id])
            txn.mark_deleted(instance_id)
        txn.commit()

    def api_create(self) -> None:
        self.creates += 1
        assert self.emulator.invoke(
            self.create_api, self.create_params(self.creates)
        ).success

    def reuse_deleted_id(self) -> None:
        """Bring a deleted id back (a restore-like re-use): it moves to
        the end of the live dict, so the next publish must rebuild."""
        live = self.registry.instances
        gone = [old for old in self.deleted if old.id not in live]
        if gone:
            txn = Transaction(self.registry)
            txn.create(self.rng.choice(gone))
            txn.commit()

    def step(self) -> None:
        ids = self.live_ids()
        rng = self.rng
        roll = rng.random()
        if roll < 0.30 or len(ids) < 4:
            self.commit(created=rng.randint(1, 3))
        elif roll < 0.40:
            self.api_create()
        elif roll < 0.60:
            self.commit(modified=rng.sample(ids, rng.randint(1, 3)))
        elif roll < 0.78:
            self.commit(deleted=rng.sample(ids, rng.randint(1, 2)))
        elif roll < 0.83 and self.previous is not None:
            # Empty a whole chunk of the last published version in one
            # commit.
            chunks = self.previous.instances._chunks
            if chunks:
                live = self.registry.instances
                chunk = rng.choice(chunks)
                self.commit(deleted=[key for key in chunk if key in live])
        elif roll < 0.86:
            # Delete the whole tail chunk and then some.
            self.commit(deleted=ids[-(CHUNK + rng.randint(0, 8)):])
        elif roll < 0.90:
            victim = rng.choice(ids)
            self.commit(created=1, modified=[victim], deleted=[victim])
        elif roll < 0.94:
            target = rng.choice(ids)
            self.registry.place(
                target, rng.choice(["", "us-east-1", "eu-west-1"])
            )
        elif roll < 0.96:
            self.reuse_deleted_id()
        else:
            # Failed-create style mutation: burns an id, touches no
            # instance, still publishes a new version.
            self.registry.new_id(rng.choice(self.machines).name)

    # -- checks ----------------------------------------------------------------

    def publish(self) -> None:
        version = self.emulator.publish_version()
        dumped = _dumped(version)
        assert dumped == _dumped(self.registry)
        assert len(version) == len(self.registry)
        previous = self.previous
        if previous is not None and version is not previous:
            touched = chunks = bound = 0
            for old, new in ((previous.instances, version.instances),
                             (previous.placements, version.placements)):
                touched += _touched(old, new)
                chunks += len(new._chunks)
                assert len(new._chunks) <= _chunk_bound(len(new))
                bound += _chunk_bound(len(new))
                if new._index is not old._index:
                    self.rebuilds += 1
            assert version.copied <= CHUNK * touched + chunks
            assert version.copied <= CHUNK * touched + bound
        chunks = version.instances._chunks
        self.emptied += any(not chunk for chunk in chunks[:-1])
        self.emptied_tail += bool(chunks) and not chunks[-1]
        self.previous = version
        self.pinned.append((version, dumped))

    def check_pinned(self) -> None:
        for version, dumped in self.pinned:
            assert _dumped(version) == dumped, version.version

    def fresh_lineage(self) -> None:
        """After reset/restore/recover the registry is a new object:
        its first publish builds in full, not against the old one."""
        self.previous = None
        self.publish()

    def run(self, steps: int) -> None:
        for __ in range(steps):
            self.step()
            if self.rng.random() < 0.7:
                self.publish()
        self.publish()


@pytest.fixture(scope="module", params=sorted(SERVICES))
def service_build(request):
    return request.param, build_learned_emulator(
        request.param, seed=7, align=False
    )


@pytest.mark.parametrize("seed", [0, 1])
def test_random_streams_publish_exact_shared_versions(service_build, seed):
    service, build = service_build
    stream = _Stream(build, service, seed)
    stream.publish()
    for __ in range(8 * CHUNK):
        stream.commit(created=1)
    stream.publish()
    stream.run(400)
    stream.check_pinned()

    saved = stream.emulator.snapshot()
    stream.emulator.reset()
    stream.fresh_lineage()
    stream.run(100)

    stream.emulator.restore(saved)
    stream.fresh_lineage()
    stream.run(150)

    records = [
        {"seq": seq, "api": stream.create_api,
         "params": stream.create_params(10 ** 4 + seq)}
        for seq in range(1, 2 * CHUNK)
    ]
    assert stream.emulator.recover(saved, records) == len(records)
    stream.fresh_lineage()
    stream.run(150)

    stream.check_pinned()
    # The streams reached the interesting paths, not only appends.
    assert stream.rebuilds > 0
    assert stream.emptied > 0 and stream.emptied_tail > 0
    assert len(stream.pinned) > 500


def test_publish_copies_only_touched_chunks(service_build):
    service, build = service_build
    stream = _Stream(build, service, seed=2)
    for __ in range(40 * CHUNK):
        stream.commit(created=1)
    stream.publish()
    ids = stream.live_ids()
    for instance_id in ids[::CHUNK][:10]:
        stream.commit(modified=[instance_id])
        stream.publish()
        # One chunk entry set plus the chunk list, not the registry.
        latest = stream.previous
        assert latest.copied <= CHUNK + len(latest.instances._chunks)
        assert latest.copied < len(ids) // 10


def test_pinned_versions_hold_under_concurrent_publishes(service_build):
    """Readers walk pinned versions (sharing the index the writer
    appends to) while a writer churns; every pinned version must read
    the same twice over, with a short switch interval to force
    interleavings."""
    service, build = service_build
    emulator = ConcurrentEmulator(build.make_backend())
    api, params = SERVICES[service]
    for index in range(300):
        assert emulator.invoke(api, params(index)).success
    stop = threading.Event()
    failures: list[str] = []

    def writer():
        index = 10 ** 5
        live = list(emulator.registry.instances)
        while not stop.is_set():
            index += 1
            created = emulator.invoke(api, params(index)).data["id"]
            with emulator._writer:
                txn = Transaction(emulator.registry)
                txn.mark_deleted(live[index % len(live)])
                txn.commit()
                emulator._publish()
            live[index % len(live)] = created

    def reader():
        slots = emulator._slots.slot()
        while not stop.is_set():
            version = emulator._chain.pin(slots)
            try:
                first = _dumped(version)
                for instance in version.instances.values():
                    if version.instances.get(instance.id) is not instance:
                        failures.append(f"{instance.id} lookup moved")
                if _dumped(version) != first:
                    failures.append(f"version {version.version} changed")
            finally:
                slots.pinned = None

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader) for __ in range(4)
    ]
    try:
        for thread in threads:
            thread.start()
        time.sleep(1.0)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[:3]
    assert emulator.version_stats()["publishes"] > 300


def test_derive_matches_a_plain_dict_under_key_churn():
    """The map alone, with string values and no registry: creation
    order, replaces in place, deletes, re-created keys and compaction
    all agree with a plain dict."""
    rng = random.Random(3)
    live: dict = {}
    current, __ = build(live)
    versions = [(current, [])]
    dirty: dict = {}
    gone: list = []
    counter = 0
    for step in range(4000):
        roll = rng.random()
        keys = list(live)
        if roll < 0.45 or not keys:
            counter += 1
            key = f"k{counter}"
            note(dirty, key, True)
            live[key] = str(step)
        elif roll < 0.65:
            key = rng.choice(keys)
            note(dirty, key, False)
            live[key] = str(step)
        elif roll < 0.93:
            key = rng.choice(keys)
            note(dirty, key, False)
            del live[key]
            gone.append(key)
        elif gone:
            # Bring back a recently deleted key, often one deleted
            # since the last publish.
            key = gone.pop(rng.randrange(max(0, len(gone) - 3), len(gone)))
            if key not in live:
                note(dirty, key, True)
                live[key] = "again"
        if rng.random() < 0.3:
            current, __ = derive(current, live, dirty)
            dirty = {}
            assert list(current.items()) == list(live.items())
            assert len(current) == len(live)
            assert all(current.get(key) == live[key] for key in live)
            versions.append((current, list(live.items())))
    for version, items in versions:
        assert list(version.items()) == items
        assert dict(version) == dict(items)
        assert version.get("missing") is None


def test_key_recreated_in_one_window_keeps_live_order():
    live = {"a": 1, "b": 2}
    current, __ = build(live)
    dirty: dict = {}
    for key, created in (("c", True), ("d", True)):
        note(dirty, key, created)
        live[key] = key
    # c goes and comes back after d: the live dict now ends ..., d, c.
    note(dirty, "c", False)
    del live["c"]
    note(dirty, "c", True)
    live["c"] = "again"
    current, __ = derive(current, live, dirty)
    assert list(current.items()) == list(live.items())
