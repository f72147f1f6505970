"""Structurally shared, creation-ordered maps for published versions.

A :class:`VersionMap` is the immutable ``id -> value`` map a published
:class:`~repro.interpreter.machine.RegistryVersion` reads (its
``instances`` and ``placements``).  The live registry keeps plain
dicts; :func:`derive` turns the previous version's map plus the keys a
commit touched into the next version's map, so a publish costs
O(touched) instead of a copy of the whole registry.

Layout:

- the entries live in ordered chunks of at most :data:`CHUNK` entries.
  Chunks are private to a version: a publish copies the chunk list
  (one pointer per chunk) and each chunk it touches, and shares every
  other chunk with its predecessor;
- a key -> chunk-position index is shared by every version of one
  lineage.  It is append-only, so an older version may find a key
  there that it does not hold (a later creation) and simply misses in
  its own chunk.  Pinned readers look keys up while the serve layer's
  single writer appends; each dict operation is atomic, and no
  appended key is one an older version holds.

Ordering invariant: iterating the chunks in order yields exactly the
live dict's order — creation order, a replace keeps its slot, a delete
removes its slot.  New keys are appended to the tail chunk, so this
holds by construction.  Snapshots are compared byte for byte across
processes, so order never depends on ``hash()``.

Rebuilds: the next map is built in full from the live dict when there
is no previous map (first publish after ``Registry()``, ``reset`` or
``restore``), when a key comes back after a delete (a re-used key
would move to the end of the live dict but keep a stale position in
the shared index), when the delta does not add up to the live size
(a write that bypassed dirty tracking), and to compact: once stale
index entries (deleted keys) outnumber live ones.  That last rule
keeps memory and the chunk list proportional to live size under
churn, at amortised O(1) per delete.
"""

from __future__ import annotations

from itertools import chain, islice

#: Entries per chunk: a publish copies the chunk list (size / CHUNK
#: pointers) plus at most CHUNK entries per chunk it touches.
CHUNK = 64

_MISSING = object()


class VersionMap:
    """An immutable, creation-ordered map shared across versions."""

    __slots__ = ("_chunks", "_index", "_len")

    def __init__(self, chunks: list[dict], index: dict, length: int):
        self._chunks = chunks
        self._index = index
        self._len = length

    def get(self, key, default=None):
        try:
            return self._chunks[self._index[key]].get(key, default)
        except (KeyError, IndexError):
            # Never created in this lineage, or created after this
            # version (its chunk position lies past our chunk list).
            return default

    def __getitem__(self, key):
        value = self.get(key, _MISSING)
        if value is _MISSING:
            raise KeyError(key)
        return value

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        return chain.from_iterable(self._chunks)

    def keys(self):
        return iter(self)

    def values(self):
        return chain.from_iterable(map(dict.values, self._chunks))

    def items(self):
        return chain.from_iterable(map(dict.items, self._chunks))


def note(dirty: "dict | None", key, created: bool) -> None:
    """Record one live-dict change for the next :func:`derive`.

    ``created`` means ``key`` was just inserted into the live dict
    (it was absent before); a creation moves the key to the end of
    ``dirty`` exactly as the insertion moved it to the end of the live
    dict, so the new keys in ``dirty`` stay in live-dict order.  A
    replace or delete of a key already noted keeps its place and flag.
    ``dirty`` is ``None`` while there is nothing to derive from.
    """
    if dirty is None:
        return
    if created:
        if key in dirty:
            del dirty[key]
        dirty[key] = True
    elif key not in dirty:
        dirty[key] = False


def build(live: dict) -> tuple[VersionMap, int]:
    """The full map of ``live`` under a fresh index, and the entries
    it copied."""
    if not live:
        return VersionMap([], {}, 0), 0
    items = iter(live.items())
    chunks: list[dict] = []
    index: dict = {}
    while chunk := dict(islice(items, CHUNK)):
        index.update(dict.fromkeys(chunk, len(chunks)))
        chunks.append(chunk)
    return VersionMap(chunks, index, len(live)), len(live) + len(chunks)


def derive(previous: VersionMap, live: dict,
           dirty: "dict | None") -> tuple[VersionMap, int]:
    """The map of ``live``, derived from ``previous`` and the keys
    noted in ``dirty`` since it was published.

    Returns the map and the number of entries this publish copied:
    the chunk-list pointers plus the entries of every chunk it copied
    (for a full build, every entry plus every chunk pointer).
    """
    if dirty is None:
        return build(live)
    if not dirty:
        return previous, 0
    index = previous._index
    shared = previous._chunks
    chunks = shared.copy()
    copied = len(chunks)
    length = previous._len
    for key, created in dirty.items():
        value = live.get(key, _MISSING)
        if created:
            if key in index:
                return build(live)
            if value is _MISSING:
                continue  # created and deleted since the last publish
            position = len(chunks) - 1
            if position < 0 or len(chunks[position]) >= CHUNK:
                position += 1
                chunks.append({})
            index[key] = position
            length += 1
        else:
            position = index.get(key)
            if position is None:
                return build(live)
        chunk = chunks[position]
        if position < len(shared) and chunk is shared[position]:
            # Still the predecessor's chunk: copy before the first
            # change (chunks appended by this publish are ours).
            chunk = chunks[position] = chunk.copy()
            copied += len(chunk)
        if created:
            chunk[key] = value
        elif value is _MISSING:
            if chunk.pop(key, _MISSING) is not _MISSING:
                length -= 1
        elif key in chunk:
            chunk[key] = value
        else:
            return build(live)
    if length != len(live) or len(index) - length > length:
        return build(live)
    return VersionMap(chunks, index, length), copied
