"""Durable per-shard record journal: the cluster's crash-recovery ground
truth, now backed by a write-ahead log on disk.

Workers hold serving state in process memory (histories + stream
caches), so a worker crash would lose every response recorded since the
worker booted — and break the cluster's bit-identity contract with a
single in-process ``Service``.  The router therefore journals the wire
payload of every **successfully applied** :class:`RecordEvent` under
the owning shard, and :meth:`RecordJournal.replay_into` replays a
shard's journal into a freshly restarted worker *before* the
supervisor puts it back in rotation.
Histories are the only durable state that matters: stream caches are
derived (they rebuild on first score) and model weights come from the
checkpoint on disk, so replaying records is sufficient for the
restarted worker to answer exactly like an uninterrupted one.

Only acknowledged records enter the journal — a record whose reply was
lost to the crash is *not* replayed, which matches what the client
observed (a ``shard_unavailable`` error, i.e. "retry me").  Appends are
validated: a payload that would not replay as a :class:`RecordEvent`
(garbage, or one missing its ``student_id`` field) is rejected with a
:class:`~repro.serve.protocol.MalformedQuery` **value** instead of
being journaled — an unreplayable entry would otherwise poison every
future restart of its shard.

Ordering comes from the *worker*, not the router: each entry carries
the ``history_length`` its :class:`RecordReply` acknowledged, which is
the student's post-append length under the worker's engine lock — the
authoritative per-student sequence number.  Two concurrent envelopes
recording the same student can have their replies journaled in either
arrival order, so replay re-sorts each student's records by that
sequence (cross-student order is unobservable: students are
shared-nothing).  Equal ``(student, sequence)`` pairs are dropped as
duplicates.  Both properties hold across *every* storage boundary:
entries scattered over multiple segment files, and entries split
between a snapshot and the live tail, feed one shared
:func:`replay_order` pass.

Storage is optional — ``RecordJournal()`` with no directory is the
purely in-memory journal, which tests and throwaway clusters still use.
With a directory, each shard's entries also live in ``shard-<n>/``,
and :mod:`repro.cluster.wal` owns every byte there: CRC-framed segment
files under a ``batch`` or ``off`` fsync policy, the snapshots
:meth:`snapshot` writes (``snapshot_every`` automates it per N tail
entries) before unlinking the segments they cover, ``journal.json``,
and every rule for a damaged file.  This module lists and creates the
directories, decodes what :meth:`repro.cluster.wal.ShardFiles.recover`
reads through one function, and keeps the entries: constructing a
``RecordJournal`` over an existing directory reloads every shard, so a
brand-new router/supervisor process can rebuild every worker from
disk.

The full on-disk lifecycle is documented in ``docs/CLUSTER.md``.
"""

from __future__ import annotations

import re
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.serve.protocol import (MalformedQuery, RecordEvent, is_error,
                                  query_from_wire)

from . import wal
from .ring import student_key
from .wal import FSYNC_POLICIES, SegmentCorruption

#: Default segment roll size (bytes) for durable journals.
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

#: Records per :meth:`RecordJournal.replay_into` request.
REPLAY_BATCH_SIZE = 256

_SHARD_DIR = re.compile(r"^shard-(\d+)$")

#: One journal entry: (canonical student key, worker sequence, payload).
Entry = Tuple[bytes, int, dict]


def replay_order(entries: List[Entry]) -> List[Entry]:
    """Worker-acknowledged per-student order, deduplicated.

    The single ordering/dedup pass every replay path shares — whether
    ``entries`` came from one in-memory list, several segment files
    concatenated in append order, or a snapshot followed by its tail
    (the snapshot's entries simply come first).  Students keep their
    first-appearance order (cross-student order is unobservable
    anyway); within a student, entries sort by the worker-side
    sequence, which also interleaves correctly across the snapshot/tail
    seam when a late-arriving low-sequence ack was journaled after a
    snapshot.  Equal ``(student, sequence)`` pairs keep the first copy
    (a retried ack journaled twice — possibly into two different
    segments, or once into the snapshot and once into the tail).
    """
    first_seen: Dict[bytes, int] = {}
    for index, (student, _, _) in enumerate(entries):
        first_seen.setdefault(student, index)
    ordered = sorted(entries,
                     key=lambda entry: (first_seen[entry[0]], entry[1]))
    deduped: List[Entry] = []
    seen = set()
    for student, sequence, payload in ordered:
        if (student, sequence) in seen:
            continue
        seen.add((student, sequence))
        deduped.append((student, sequence, payload))
    return deduped


def decode_entry(path, entry) -> Entry:
    """One entry of a journal file, snapshot and segment alike.

    A frame that verified but whose entry is not ``{"sequence": <int>,
    "payload": <object>}`` is not a torn append: it raises
    :class:`~repro.cluster.wal.SegmentCorruption` naming ``path``.
    """
    if not (isinstance(entry, dict)
            and set(entry) == {"sequence", "payload"}
            and type(entry["sequence"]) is int
            and isinstance(entry["payload"], dict)):
        raise SegmentCorruption(path, f"entry is not {{'sequence': int, "
                                      f"'payload': object}}: {entry!r:.80}")
    payload = entry["payload"]
    return student_key(payload.get("student_id")), entry["sequence"], \
        payload


def validate_entry(payload, sequence) -> Optional[MalformedQuery]:
    """The append-time admission check: *will this entry replay?*

    Returns ``None`` for a journalable entry, else a
    :class:`MalformedQuery` value naming the defect.  The criterion is
    exactly what replay does with the entry — decode it with
    :func:`query_from_wire` and require a :class:`RecordEvent` — so
    nothing the journal accepts can later wedge a shard's recovery
    (a payload missing ``student_id`` used to be journaled under
    ``student_key(None)`` and replayed as a poison record).
    """
    if not isinstance(payload, dict):
        return MalformedQuery(
            f"journal entry payload must be a wire object, got "
            f"{type(payload).__name__}")
    decoded = query_from_wire(payload)
    if isinstance(decoded, MalformedQuery):
        return MalformedQuery(
            f"journal entry would not replay: {decoded.message}",
            details=dict(decoded.details))
    if not isinstance(decoded, RecordEvent):
        return MalformedQuery(
            f"journal entries must be '{RecordEvent.TYPE}' payloads, "
            f"got {payload.get('type')!r}")
    try:
        sequence = int(sequence)
    except (TypeError, ValueError):
        return MalformedQuery(
            f"journal entry sequence must be an integer "
            f"(the acknowledging reply's history_length), got "
            f"{sequence!r}")
    if sequence < 1:
        return MalformedQuery(
            f"journal entry sequence must be >= 1, got {sequence}")
    return None


class _ShardLog:
    """One shard's journal state (and, when durable, its files).

    Its own lock covers every read and write of the shard — appends,
    syncs, compactions, replay reads, cold-boot recovery and its
    ``describe`` entry — so one shard's fsync or snapshot never holds up
    another shard's appends.
    """

    __slots__ = ("shard", "files", "snapshot_entries", "tail",
                 "snapshots_taken", "_lock")

    def __init__(self, shard: int, files: Optional[wal.ShardFiles]):
        self.shard = shard
        self.files = files
        self.snapshot_entries: List[Entry] = []
        self.tail: List[Entry] = []
        self.snapshots_taken = 0
        self._lock = threading.Lock()

    def entries(self) -> List[Entry]:
        """Snapshot entries, then the tail: the input of
        :func:`replay_order`."""
        with self._lock:
            return self.snapshot_entries + self.tail

    def recover(self) -> None:
        """Load the shard's files (see :meth:`RecordJournal._recover`)."""
        with self._lock:
            snapshot, tail = self.files.recover()
            self.snapshot_entries = [decode_entry(path, entry)
                                     for path, entry in snapshot]
            self.tail = [decode_entry(path, entry) for path, entry in tail]

    def append(self, entry: Entry, snapshot_every: Optional[int]) -> None:
        with self._lock:
            if self.files is not None:
                self.files.append(entry[1], entry[2])
            self.tail.append(entry)
            if snapshot_every is not None \
                    and len(self.tail) >= snapshot_every:
                self._compact()

    def sync(self) -> None:
        with self._lock:
            if self.files is not None:
                self.files.sync()

    def snapshot(self) -> dict:
        with self._lock:
            return self._compact()

    # invariant: holds-lock
    def _compact(self) -> dict:
        ordered = replay_order(self.snapshot_entries + self.tail)
        removed = index = 0
        if self.files is not None:
            removed = self.files.compact(
                [(sequence, payload) for _, sequence, payload in ordered])
            index = self.files.snapshot_index
        self.snapshot_entries = ordered
        self.tail = []
        self.snapshots_taken += 1
        return {"shard": self.shard, "entries": len(ordered),
                "segments_removed": removed, "snapshot_index": index}

    def describe(self) -> dict:
        with self._lock:
            entry = {"entries": len(self.snapshot_entries) + len(self.tail),
                     "snapshot": len(self.snapshot_entries),
                     "tail": len(self.tail)}
            if self.files is not None:
                entry.update(segments=self.files.segments(),
                             snapshot_index=self.files.snapshot_index,
                             snapshots_taken=self.snapshots_taken,
                             truncated_bytes=self.files.truncated_bytes)
            return entry

    def close(self) -> None:
        with self._lock:
            if self.files is not None:
                self.files.close()


class RecordJournal:
    """Thread-safe per-shard journal of acknowledged record payloads.

    Each shard locks on its own, so shards append, sync and compact
    concurrently; the journal-wide lock guards only the shard table and
    :meth:`bind_meta`.

    Parameters
    ----------
    directory:
        Root of the durable journal (one ``shard-<n>/`` subdirectory
        per shard).  ``None`` (default) keeps the journal purely in
        memory — same semantics, no durability — which is what
        throwaway test clusters use.  An existing directory is
        **recovered on construction**: latest snapshot + tail segments
        per shard, torn final-segment tails truncated.
    fsync:
        One of :data:`~repro.cluster.wal.FSYNC_POLICIES`: ``"batch"``
        (fsync per :meth:`sync` call — the router calls it once per
        sub-envelope) or ``"off"`` (flush only; the OS decides).
    segment_max_bytes:
        Roll the active segment once it reaches this size.
    snapshot_every:
        Auto-snapshot a shard whenever its unsnapshotted tail reaches
        this many entries (``None`` disables; :meth:`snapshot` is
        always available explicitly).
    """

    def __init__(self, directory=None, fsync: str = "batch",
                 segment_max_bytes: int = DEFAULT_SEGMENT_BYTES,
                 snapshot_every: Optional[int] = None):
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"fsync policy must be one of "
                             f"{FSYNC_POLICIES}, got {fsync!r}")
        if segment_max_bytes <= 0:
            raise ValueError("segment_max_bytes must be positive")
        if snapshot_every is not None and snapshot_every <= 0:
            raise ValueError("snapshot_every must be positive or None")
        self._lock = threading.Lock()
        self._directory = Path(directory) if directory else None
        self._fsync = fsync
        self._segment_max_bytes = segment_max_bytes
        self._snapshot_every = snapshot_every
        self._shards: Dict[int, _ShardLog] = {}
        if self._directory is not None:
            self._directory.mkdir(parents=True, exist_ok=True)
            self._recover()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def directory(self) -> Optional[str]:
        return str(self._directory) if self._directory else None

    @property
    def durable(self) -> bool:
        return self._directory is not None

    def shards(self) -> List[int]:
        with self._lock:
            return sorted(self._shards)

    def count(self, shard: int) -> int:
        return self.sizes().get(shard, 0)

    def total(self) -> int:
        return sum(self.sizes().values())

    def sizes(self) -> Dict[int, int]:
        with self._lock:
            shards = list(self._shards.items())
        return {shard: len(state.entries()) for shard, state in shards}

    def describe(self) -> dict:
        """Structured stats (the router's ``/v1/health`` journal body)."""
        with self._lock:
            shards = sorted(self._shards.items())
        return {"durable": self.durable, "directory": self.directory,
                "fsync": self._fsync,
                "shards": {str(shard): state.describe()
                           for shard, state in shards}}

    # ------------------------------------------------------------------
    # Append path
    # ------------------------------------------------------------------
    def append(self, shard: int, payload: dict,
               sequence: int) -> Optional[MalformedQuery]:
        """Journal one acknowledged record's wire payload.

        ``sequence`` is the acknowledging reply's ``history_length`` —
        the worker-side apply order for that student (see module
        docstring).  Returns ``None`` on success, or a
        :class:`MalformedQuery` **value** when the entry would not
        replay (it is then not journaled — see :func:`validate_entry`).
        """
        error = validate_entry(payload, sequence)
        if error is not None:
            return error
        entry = (student_key(payload["student_id"]), int(sequence),
                 payload)
        self._shard(shard).append(entry, self._snapshot_every)
        return None

    def sync(self, shard: int) -> None:
        """Durability point for the ``batch`` fsync policy: flush the
        shard's appended-but-unsynced frames to disk.  The router calls
        this once per scatter-gather sub-envelope that journaled
        anything; no-op for in-memory journals and other policies."""
        state = self._existing(shard)
        if state is not None:
            state.sync()

    # ------------------------------------------------------------------
    # Replay path
    # ------------------------------------------------------------------
    def replay_records(self, shard: Optional[int] = None
                       ) -> List[RecordEvent]:
        """The journal-consumer API: decoded acknowledged records.

        Every journaled payload of ``shard`` (or, with ``None``, of
        every shard in ascending shard order) decoded back into typed
        :class:`~repro.serve.protocol.RecordEvent` values, in replay
        order — per-student worker-acknowledged sequence order with
        ``(student, sequence)`` duplicates dropped, exactly what
        :meth:`replay_into` feeds a restarted worker.  Cross-shard
        concatenation order is unobservable by construction: the ring
        places each student on exactly one shard, so no student's
        events ever span shards.

        This is the contract the ``repro.online`` continual trainer
        consumes (``docs/ONLINE.md``): append-time validation
        (:func:`validate_entry`) guarantees everything here decodes,
        so a failure to decode is corruption and raises ``ValueError``
        rather than silently dropping an acknowledged record.
        """
        shards = self.shards() if shard is None else [shard]
        records: List[RecordEvent] = []
        for index in shards:
            state = self._existing(index)
            combined = [] if state is None else state.entries()
            for _, _, payload in replay_order(combined):
                decoded = query_from_wire(payload)
                if not isinstance(decoded, RecordEvent):
                    raise ValueError(
                        f"shard {index} journal entry does not replay "
                        f"as a record event: {decoded!r}")
                records.append(decoded)
        return records

    def replay_into(self, shard: int, backend) -> int:
        """Re-apply the shard's records, in :meth:`replay_records`
        order, to a fresh ``backend`` (a worker's client or a
        ``Service``); the one replay path of restarts and cold boots.

        Returns the replayed count; raises ``RuntimeError`` if the
        backend rejects a record (journal and checkpoint disagree).
        """
        records = self.replay_records(shard)
        for start in range(0, len(records), REPLAY_BATCH_SIZE):
            replies = backend.execute_batch(
                records[start:start + REPLAY_BATCH_SIZE])
            rejected = [replies] if is_error(replies) \
                else [reply for reply in replies if is_error(reply)]
            if rejected:
                raise RuntimeError(f"journal replay rejected on shard "
                                   f"{shard}: {rejected[0]}")
        return len(records)

    # ------------------------------------------------------------------
    # Snapshot + truncation
    # ------------------------------------------------------------------
    def snapshot(self, shard: int) -> dict:
        """Compact a shard: durably snapshot its replay-ordered state,
        then drop every covered segment file.

        After this, the shard's disk footprint is one snapshot file
        plus whatever tail accumulates next — replaying is unchanged
        (the snapshot entries simply pre-empt the segments they
        replaced).  In-memory journals compact their entry list the
        same way, just without files.  Returns a small stats dict.
        """
        return self._shard(shard).snapshot()

    def snapshot_all(self) -> List[dict]:
        return [self.snapshot(shard) for shard in self.shards()]

    # ------------------------------------------------------------------
    # Durable plumbing
    # ------------------------------------------------------------------
    def bind_meta(self, meta: dict) -> dict:
        """Persist (or verify) cluster parameters the journal's shard
        keying depends on.

        A durable journal written by an N-shard, R-replica ring is only
        replayable into a cluster with the *same* ring — replaying a
        shard's records into a differently-placed worker would rebuild
        students on workers that will never be asked about them.  The
        first binder writes ``journal.json``; later binders (cold
        boots) must match or this raises ``ValueError``.  In-memory
        journals accept anything (nothing persists to disagree with).
        """
        if self._directory is None:
            return dict(meta)
        with self._lock:
            existing = wal.read_meta(self._directory)
            if existing is None:
                wal.write_meta(self._directory, dict(meta))
                return dict(meta)
            conflicts = {key: (existing.get(key), value)
                         for key, value in meta.items()
                         if existing.get(key) != value}
            if conflicts:
                raise ValueError(
                    f"journal directory {self._directory} was "
                    f"written with different cluster parameters: "
                    f"{conflicts} (journal vs requested)")
            return existing

    def _files(self, directory: Path) -> wal.ShardFiles:
        return wal.ShardFiles(directory, fsync=self._fsync,
                              segment_max_bytes=self._segment_max_bytes)

    def _existing(self, shard: int) -> Optional[_ShardLog]:
        with self._lock:
            return self._shards.get(shard)

    def _shard(self, shard: int) -> _ShardLog:
        """The shard's log, created (directory included) on first use."""
        with self._lock:
            state = self._shards.get(shard)
            if state is None:
                files = None
                if self._directory is not None:
                    directory = self._directory / f"shard-{shard:04d}"
                    directory.mkdir(parents=True, exist_ok=True)
                    files = self._files(directory)
                state = _ShardLog(shard, files)
                self._shards[shard] = state
            return state

    # Called from __init__ only, before any other thread can hold a
    # reference to this journal — construction-time exclusivity.
    # invariant: holds-lock
    def _recover(self) -> None:
        """Cold boot: rebuild every shard's state from its directory.

        :meth:`repro.cluster.wal.ShardFiles.recover` reads the newest
        verifying snapshot and every segment after it, truncating a torn
        final tail and raising
        :class:`~repro.cluster.wal.SegmentCorruption` for any other
        damage; :func:`decode_entry` decodes both.  Entries a lingering
        pre-snapshot segment duplicates are dropped by the shared
        replay dedup, not here.
        """
        for child in sorted(self._directory.iterdir()):
            match = _SHARD_DIR.match(child.name)
            if match is None or not child.is_dir():
                continue
            state = _ShardLog(int(match.group(1)), self._files(child))
            state.recover()
            self._shards[state.shard] = state

    def close(self) -> None:
        """Seal every open segment (safe to call repeatedly)."""
        with self._lock:
            shards = list(self._shards.values())
        for state in shards:
            state.close()
