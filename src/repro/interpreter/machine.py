"""Runtime state machines, transactions and handles.

Every cloud resource is one :class:`MachineInstance` — an SM spec plus
its current state variables (§3).  Transitions execute inside a
:class:`Transaction` so that a failed ``assert`` rolls back *all* state
effects, including those made through cross-SM ``call``s: cloud APIs
are atomic, and the paper's alignment methodology assumes failed calls
leave no trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..spec import ast
from .errors import CloudError, INTERNAL_FAILURE
from .versionmap import VersionMap, build, derive, note


@dataclass
class MachineInstance:
    """One live resource: identity, spec, and committed state."""

    id: str
    spec: ast.SMSpec
    state: dict[str, object] = field(default_factory=dict)
    parent_id: str = ""

    @property
    def type_name(self) -> str:
        return self.spec.name


class Transaction:
    """Copy-on-write overlay over a registry for one API invocation.

    Reads see pending writes; :meth:`commit` publishes writes, creations
    and deletions atomically.  Abandoning the transaction (on a
    :class:`CloudError`) leaves the registry untouched.

    ``registry`` may also be a pinned :class:`RegistryVersion` for
    overlay *reads* that are never committed (the reference evaluation
    the drift monitor runs against a version); such transactions must
    never reach :meth:`commit`.
    """

    def __init__(self, registry: "Registry | RegistryVersion"):
        self.registry = registry
        self._writes: dict[str, dict[str, object]] = {}
        self._created: dict[str, MachineInstance] = {}
        self._deleted: set[str] = set()

    # -- instance access -----------------------------------------------------

    def instance(self, instance_id: str) -> MachineInstance | None:
        if instance_id in self._deleted:
            return None
        if instance_id in self._created:
            return self._created[instance_id]
        return self.registry.instances.get(instance_id)

    def get_state(self, instance_id: str, name: str) -> object:
        pending = self._writes.get(instance_id)
        if pending is not None and name in pending:
            return pending[name]
        instance = self.instance(instance_id)
        if instance is None:
            raise CloudError(INTERNAL_FAILURE, f"dangling reference {instance_id}")
        return instance.state.get(name)

    def state_of(self, instance_id: str) -> dict[str, object]:
        """The instance's state as one mapping (overlay merged in).

        Compiled fused reads fetch this once per run of consecutive
        reads instead of paying the per-name overlay lookup.  The
        merge only copies when the transaction has pending writes for
        the instance; the result must be treated as read-only.
        """
        instance = self.instance(instance_id)
        if instance is None:
            raise CloudError(INTERNAL_FAILURE, f"dangling reference {instance_id}")
        pending = self._writes.get(instance_id)
        if pending:
            return {**instance.state, **pending}
        return instance.state

    def set_state(self, instance_id: str, name: str, value: object) -> None:
        if self.instance(instance_id) is None:
            raise CloudError(INTERNAL_FAILURE, f"dangling reference {instance_id}")
        self._writes.setdefault(instance_id, {})[name] = value

    def create(self, instance: MachineInstance) -> None:
        self._created[instance.id] = instance

    def mark_deleted(self, instance_id: str) -> None:
        self._deleted.add(instance_id)

    def is_created_here(self, instance_id: str) -> bool:
        return instance_id in self._created

    # -- lifecycle -------------------------------------------------------------

    def commit(self) -> None:
        """Publish writes, creations and deletions atomically.

        Commit is copy-on-write: an instance that existed before this
        transaction is *replaced* by a fresh :class:`MachineInstance`
        carrying the merged state, never mutated in place.  A
        published :class:`RegistryVersion` therefore shares untouched
        instances with the live registry structurally, and a pinned
        reader can never observe a half-applied commit — the MVCC
        serve path depends on it.  (State *values* are already safe to
        share: the spec language treats lists and maps as values, so
        builtins return fresh objects instead of mutating.)

        Once the registry has published a version, commit also notes
        every id it created, replaced or deleted in ``registry._dirty``
        (in live-dict order), so the next :meth:`Registry.publish`
        copies only the chunks those ids live in.
        """
        registry = self.registry
        instances = registry.instances
        dirty = registry._dirty
        for instance in self._created.values():
            note(dirty, instance.id, instance.id not in instances)
            instances[instance.id] = instance
        for instance_id, writes in self._writes.items():
            if instance_id in self._deleted:
                continue
            if instance_id in self._created:
                # Created in this same transaction: the object is
                # fresh, no published version can reference it yet.
                self._created[instance_id].state.update(writes)
                continue
            target = instances.get(instance_id)
            if target is not None:
                # Replacing at an existing key keeps dict (creation)
                # order, which snapshots and dependency scans rely on.
                instances[instance_id] = MachineInstance(
                    id=target.id,
                    spec=target.spec,
                    state={**target.state, **writes},
                    parent_id=target.parent_id,
                )
                note(dirty, instance_id, False)
        for instance_id in self._deleted:
            if instances.pop(instance_id, None) is not None:
                note(dirty, instance_id, False)
        if self._created or self._writes or self._deleted:
            registry.mutations += 1
            if dirty is not None and len(dirty) > len(instances):
                # More touched than live: the next publish rebuilds in
                # full for less, so stop tracking until then.
                registry._dirty = None


class ReadOnlyView:
    """A transaction-shaped, zero-overlay view over a registry.

    The compiled fast path uses one (shared, stateless) instance per
    emulator to dispatch statically effect-free transitions — mostly
    describes — without paying for a :class:`Transaction` that could
    never accumulate writes.  It implements exactly the read subset of
    the transaction interface that such transitions can reach.

    ``registry`` may be the live :class:`Registry` or a pinned
    :class:`RegistryVersion` — only the ``instances`` map is read, so
    the MVCC serve path reuses this view unchanged over immutable
    versions.
    """

    __slots__ = ("registry",)

    def __init__(self, registry: "Registry | RegistryVersion"):
        self.registry = registry

    def instance(self, instance_id: str) -> MachineInstance | None:
        return self.registry.instances.get(instance_id)

    def get_state(self, instance_id: str, name: str) -> object:
        instance = self.registry.instances.get(instance_id)
        if instance is None:
            raise CloudError(INTERNAL_FAILURE, f"dangling reference {instance_id}")
        return instance.state.get(name)

    def state_of(self, instance_id: str) -> dict[str, object]:
        instance = self.registry.instances.get(instance_id)
        if instance is None:
            raise CloudError(INTERNAL_FAILURE, f"dangling reference {instance_id}")
        return instance.state

    def is_created_here(self, instance_id: str) -> bool:
        return False


class Handle:
    """A transaction-scoped reference to a machine instance.

    This is what ``self`` and SM-typed values evaluate to inside a
    transition body; attribute access reads through the transaction
    overlay so cross-SM calls observe each other's pending writes.
    """

    __slots__ = ("txn", "instance_id")

    def __init__(self, txn: Transaction, instance_id: str):
        self.txn = txn
        self.instance_id = instance_id

    @property
    def id(self) -> str:
        return self.instance_id

    @property
    def spec(self) -> ast.SMSpec:
        instance = self.txn.instance(self.instance_id)
        if instance is None:
            raise CloudError(INTERNAL_FAILURE, f"dangling handle {self.instance_id}")
        return instance.spec

    def get(self, name: str) -> object:
        if name == "id":
            return self.instance_id
        return self.txn.get_state(self.instance_id, name)

    def set(self, name: str, value: object) -> None:
        self.txn.set_state(self.instance_id, name, value)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Handle):
            return self.instance_id == other.instance_id
        if isinstance(other, str):
            return self.instance_id == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.instance_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Handle({self.instance_id})"


class RegistryVersion:
    """One immutable published registry state (MVCC read snapshot).

    Built by :meth:`Registry.publish` under the serve layer's writer
    mutex and handed to readers, which dispatch against it with zero
    locking.  ``instances`` and ``placements`` are
    :class:`~repro.interpreter.versionmap.VersionMap` objects:
    creation-ordered maps of fixed-size chunks that consecutive
    versions share, so a publish copies only the chunks its commits
    touched (safe because :meth:`Transaction.commit` replaces rather
    than mutates committed instances).  ``copied`` counts the entries
    and chunk pointers the publish that built this version copied.

    ``wal_seq`` is stamped by the owning emulator at publish time so a
    snapshot dumped from a pinned version carries the correct recovery
    cursor.  ``_view``/``_rt`` cache the read-only dispatch plumbing
    for the compiled pure route (built lazily by the first reader; the
    benign publish race just builds it twice).
    """

    __slots__ = (
        "version", "instances", "counters", "placements", "wal_seq",
        "copied", "_view", "_rt",
    )

    def __init__(self, version: int, instances: VersionMap,
                 counters: dict[str, int], placements: VersionMap,
                 copied: int):
        self.version = version
        self.instances = instances
        self.counters = counters
        self.placements = placements
        self.wal_seq = 0
        self.copied = copied
        self._view = None
        self._rt = None

    # -- the Registry read surface (duck-typed) ------------------------------

    def get(self, instance_id: str) -> MachineInstance | None:
        return self.instances.get(instance_id)

    def of_type(self, sm_name: str) -> list[MachineInstance]:
        return [
            instance
            for instance in self.instances.values()
            if instance.type_name == sm_name
        ]

    def children_of(self, instance_id: str) -> list[MachineInstance]:
        return [
            instance
            for instance in self.instances.values()
            if instance.parent_id == instance_id
        ]

    def region_of(self, instance_id: str, default: str = "") -> str:
        return self.placements.get(instance_id, default)

    def __len__(self) -> int:
        return len(self.instances)

    # -- mutation surface: refused loudly ------------------------------------

    def _immutable(self, op: str):
        raise RuntimeError(
            f"registry version {self.version} is immutable: {op} must "
            "run against the live registry under the writer mutex"
        )

    def new_id(self, sm_name: str) -> str:
        self._immutable("new_id")

    def create(self, spec, defaults, parent_id: str = ""):
        self._immutable("create")

    def place(self, instance_id: str, region: str) -> None:
        self._immutable("place")


class Registry:
    """All live resources of one emulated cloud, plus ID generation.

    IDs are deterministic per resource type (``vpc-00000001``), so two
    runs of the same DevOps program produce identical traces — a
    property both the tests and the alignment differ rely on.

    The registry is also the MVCC publication point: every observable
    mutation bumps ``mutations``, and :meth:`publish` turns the
    current state into an immutable :class:`RegistryVersion` (cached
    while nothing changed).  Publishing is only ever done by the serve
    layer's single writer; plain single-threaded use never pays for
    it.
    """

    def __init__(self):
        self.instances: dict[str, MachineInstance] = {}
        self._counters: dict[str, int] = {}
        #: resource id -> home region, for network-realistic serving
        #: (:mod:`repro.netem`).  Empty unless a regional front door is
        #: placing resources; snapshots carry it only when non-empty,
        #: so non-regional runs stay byte-identical to before.
        self.placements: dict[str, str] = {}
        #: Monotonic mutation tick: bumped by ID allocation, commit
        #: and placement, so :meth:`publish` knows when the cached
        #: version is still current.
        self.mutations = 0
        #: The number of the most recently published version.  The
        #: emulator carries it across :meth:`reset`/``restore`` so the
        #: serve layer's version chain stays monotonic.
        self.version = 0
        self._published: RegistryVersion | None = None
        self._published_tick = -1
        #: Keys of ``instances`` / ``placements`` created, replaced or
        #: deleted since the last publish, in live-dict order (see
        #: :func:`~repro.interpreter.versionmap.note`); ``None`` while
        #: the next publish must build in full anyway.
        self._dirty: dict[str, bool] | None = None
        self._placed: dict[str, bool] | None = None

    def publish(self) -> RegistryVersion:
        """The current state as an immutable version (cached).

        Must be called with writes excluded (the serve layer's writer
        mutex); readers then pin the returned object and never touch
        the live registry again.  The new version is derived from the
        previous one plus the keys noted dirty since, so a publish
        copies the chunks those keys live in and the chunk list —
        O(touched + live / CHUNK) — not the whole registry.  The first
        publish of a registry builds its maps in full.
        """
        published = self._published
        if published is not None and self._published_tick == self.mutations:
            return published
        self.version += 1
        if published is None:
            instances, copied = build(self.instances)
            placements, placed = build(self.placements)
            self._placed = {}
        else:
            instances, copied = derive(
                published.instances, self.instances, self._dirty
            )
            placements, placed = published.placements, 0
            if self._placed:
                placements, placed = derive(
                    placements, self.placements, self._placed
                )
                self._placed = {}
        published = RegistryVersion(
            self.version, instances, dict(self._counters), placements,
            copied + placed,
        )
        self._published = published
        self._published_tick = self.mutations
        self._dirty = {}
        return published

    def new_id(self, sm_name: str) -> str:
        count = self._counters.get(sm_name, 0) + 1
        self._counters[sm_name] = count
        self.mutations += 1
        prefix = "".join(part[0] for part in sm_name.split("_")) if len(
            sm_name
        ) > 12 else sm_name
        return f"{prefix}-{count:08d}"

    def create(
        self, spec: ast.SMSpec, defaults: dict[str, object], parent_id: str = ""
    ) -> MachineInstance:
        instance = MachineInstance(
            id=self.new_id(spec.name),
            spec=spec,
            state=dict(defaults),
            parent_id=parent_id,
        )
        return instance

    def place(self, instance_id: str, region: str) -> None:
        """Record (or move) a resource's home region."""
        placements = self.placements
        if region:
            note(self._placed, instance_id, instance_id not in placements)
            placements[instance_id] = region
        elif placements.pop(instance_id, None) is not None:
            note(self._placed, instance_id, False)
        self.mutations += 1

    def region_of(self, instance_id: str, default: str = "") -> str:
        return self.placements.get(instance_id, default)

    def get(self, instance_id: str) -> MachineInstance | None:
        return self.instances.get(instance_id)

    def of_type(self, sm_name: str) -> list[MachineInstance]:
        return [
            instance
            for instance in self.instances.values()
            if instance.type_name == sm_name
        ]

    def children_of(self, instance_id: str) -> list[MachineInstance]:
        return [
            instance
            for instance in self.instances.values()
            if instance.parent_id == instance_id
        ]

    def __len__(self) -> int:
        return len(self.instances)
