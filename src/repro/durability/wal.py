"""Write-ahead log of an emulator's write attempts.

The emulator logs every state-mutating API call *attempt* — logically,
as ``(api, params)`` — before it binds and dispatches the call, whether
the call then succeeds or fails.  Failed attempts matter: a failed
create has already burned a deterministic ID (the allocator never rolls
back), so a log of successes alone cannot reproduce the allocator
state.  Because the interpreter is deterministic (IDs, defaults,
transition bodies), a restored snapshot plus a replay of the logged
attempts after the snapshot's ``wal_seq`` reconstructs the exact
pre-crash registry: each failed call re-fails the same way and burns
the same ID.  Logging the intent rather than the physical writes keeps
records tiny and makes the log valid against any snapshot of the same
emulator.

The log shares the build journal's CRC framing and torn-tail scan.
Its appends are the ``mid-serve-wal-append`` kill site (the build
journal keeps ``mid-journal-append``), so crash schedules can target
the two independently.  A crash *during* an append leaves a torn
half-line that the reopening scan drops, and the next append reuses
its seq — correctly, because the attempt never reached the
interpreter.  Write-ahead ordering makes the rest of the crash window
safe: a record without its commit (the ``mid-transition-commit`` kill
site) replays the call on recovery, and a commit can never exist
without its record.
"""

from __future__ import annotations

from pathlib import Path

from .journal import DurabilityStats, JournalWriter, scan_records
from .snapshot import decode_value, encode_value

WAL_NAME = "emulator.wal"


class MutationLog:
    """Append-only intent log of an emulator's write attempts."""

    def __init__(self, path: str | Path, fsync: bool = True,
                 stats: DurabilityStats | None = None):
        target = Path(path)
        if target.is_dir():
            target = target / WAL_NAME
        self.path = target
        self.stats = stats if stats is not None else DurabilityStats()
        self._writer = JournalWriter(
            self.path, fsync=fsync, kill_site="mid-serve-wal-append"
        )
        scan = scan_records(self.path)
        self.stats.torn_records_dropped += scan.dropped
        self._records = scan.records
        self._writer.open(truncate_to=scan.valid_bytes)
        self._seq = self._records[-1]["seq"] if self._records else 0

    @property
    def seq(self) -> int:
        """Sequence number of the last logged attempt (0 = none)."""
        return self._seq

    @property
    def records(self) -> list[dict]:
        return list(self._records)

    def log(self, api: str, params: dict | None) -> int:
        """Log one write attempt about to dispatch; returns its seq."""
        return self._append({
            "type": "mutation",
            "seq": self._seq + 1,
            "api": api,
            "params": encode_value(dict(params or {})),
        })

    def log_reset(self) -> int:
        """A registry reset is a mutation too (replay must repeat it)."""
        return self._append({"type": "reset", "seq": self._seq + 1})

    def _append(self, record: dict) -> int:
        self._writer.append(record)
        self._records.append(record)
        self._seq = record["seq"]
        self.stats.journal_appends += 1
        return self._seq

    def close(self) -> None:
        self._writer.close()


def replay_mutations(emulator, records: list[dict],
                     after_seq: int = 0,
                     stats: DurabilityStats | None = None) -> int:
    """Re-apply logged attempts with ``seq > after_seq`` to an emulator.

    Replay goes through the normal ``invoke`` path (with the WAL
    detached, so replay is not re-logged); determinism guarantees the
    same IDs and state fall out.  Responses are not checked for
    success: an attempt whose commit was lost to the crash re-executes
    and succeeds, while one that failed originally fails again
    identically and burns the same ID — either way the registry
    converges on the pre-crash state.
    """
    replayed = 0
    for record in records:
        if record.get("seq", 0) <= after_seq:
            continue
        if record.get("type") == "reset":
            emulator.reset()
        else:
            emulator.invoke(record["api"], decode_value(record["params"]))
        replayed += 1
    if stats is not None:
        stats.replayed_mutations += replayed
    return replayed
