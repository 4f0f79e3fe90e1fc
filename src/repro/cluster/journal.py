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

Storage tiers (all optional — ``RecordJournal()`` with no directory is
the original purely in-memory journal, which tests and throwaway
clusters still use):

* **Segments** (:mod:`repro.cluster.wal`) — each shard appends framed,
  CRC-checksummed entries to ``<dir>/shard-<n>/segment-*.wal`` under a
  configurable fsync policy (``record`` / ``batch`` / ``off``); files
  roll at ``segment_max_bytes``.  A crash mid-append leaves a torn
  tail that recovery detects via the frame CRC/length and truncates —
  on the final segment only; a non-verifying *sealed* segment is real
  corruption and fails loudly.
* **Snapshots** (:mod:`repro.cluster.snapshot`) — :meth:`snapshot`
  durably writes the shard's replay-ordered deduplicated state and
  deletes every covered segment, bounding disk usage by snapshot +
  unsealed tail; ``snapshot_every`` automates it per N tail entries.
* **Cold boot** — constructing a ``RecordJournal`` over an existing
  directory reloads latest-snapshot + tail segments per shard, so a
  brand-new router/supervisor process can rebuild every worker from
  disk: recovery no longer depends on any previous process's lifetime.

The full on-disk lifecycle is documented in ``docs/CLUSTER.md``.
"""

from __future__ import annotations

import os
import re
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.obs import names as metric_names
from repro.serve.protocol import (MalformedQuery, RecordEvent, is_error,
                                  query_from_wire, wire_json_bytes,
                                  wire_json_loads)

from . import snapshot as snapshot_io
from . import wal
from .ring import student_key
from .wal import FSYNC_POLICIES, SegmentCorruption

#: Default segment roll size (bytes) for durable journals.
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

#: Records per :meth:`RecordJournal.replay_into` request.
REPLAY_BATCH_SIZE = 256

_SHARD_DIR = re.compile(r"^shard-(\d+)$")
_META_NAME = "journal.json"

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
    """One shard's journal state (and, when durable, its directory)."""

    __slots__ = ("shard", "directory", "snapshot_entries",
                 "snapshot_index", "tail", "writer", "segment_index",
                 "truncated_bytes", "snapshots_taken")

    def __init__(self, shard: int, directory: Optional[Path]):
        self.shard = shard
        self.directory = directory
        self.snapshot_entries: List[Entry] = []
        self.snapshot_index = 0
        self.tail: List[Entry] = []
        self.writer: Optional[wal.SegmentWriter] = None
        self.segment_index = 0
        self.truncated_bytes = 0
        self.snapshots_taken = 0

    def combined(self) -> List[Entry]:
        return self.snapshot_entries + self.tail


class RecordJournal:
    """Thread-safe per-shard journal of acknowledged record payloads.

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
        One of :data:`~repro.cluster.wal.FSYNC_POLICIES`:
        ``"record"`` (fsync per append), ``"batch"`` (fsync per
        :meth:`sync` call — the router calls it once per sub-envelope),
        or ``"off"`` (flush only; the OS decides).
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

    @property
    def fsync_policy(self) -> str:
        return self._fsync

    def shards(self) -> List[int]:
        with self._lock:
            return sorted(self._shards)

    def count(self, shard: int) -> int:
        with self._lock:
            state = self._shards.get(shard)
            return 0 if state is None else len(state.combined())

    def total(self) -> int:
        with self._lock:
            return sum(len(state.combined())
                       for state in self._shards.values())

    def sizes(self) -> Dict[int, int]:
        with self._lock:
            return {shard: len(state.combined())
                    for shard, state in self._shards.items()}

    def describe(self) -> dict:
        """Structured stats (the router's ``/v1/health`` journal body)."""
        with self._lock:
            shards = {}
            for shard, state in sorted(self._shards.items()):
                entry = {"entries": len(state.combined()),
                         "snapshot": len(state.snapshot_entries),
                         "tail": len(state.tail)}
                if state.directory is not None:
                    entry.update(
                        segments=len(wal.list_segments(state.directory)),
                        snapshot_index=state.snapshot_index,
                        snapshots_taken=state.snapshots_taken,
                        truncated_bytes=state.truncated_bytes)
                shards[str(shard)] = entry
            return {"durable": self.durable, "directory": self.directory,
                    "fsync": self._fsync, "shards": shards}

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
        with self._lock:
            state = self._shard(shard)
            if state.directory is not None:
                writer = self._writer(state)
                writer.append({"sequence": entry[1], "payload": payload})
            state.tail.append(entry)
            wants_snapshot = (self._snapshot_every is not None
                              and len(state.tail) >= self._snapshot_every)
        if wants_snapshot:
            self.snapshot(shard)
        return None

    def sync(self, shard: int) -> None:
        """Durability point for the ``batch`` fsync policy: flush the
        shard's appended-but-unsynced frames to disk.  The router calls
        this once per scatter-gather sub-envelope that journaled
        anything; no-op for in-memory journals and other policies."""
        with self._lock:
            state = self._shards.get(shard)
            if state is not None and state.writer is not None:
                state.writer.sync()

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
            with self._lock:
                state = self._shards.get(index)
                combined = [] if state is None else state.combined()
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
        with self._lock:
            state = self._shard(shard)
            ordered = replay_order(state.combined())
            removed = 0
            if state.directory is not None:
                if state.writer is not None:
                    state.writer.close()
                    state.writer = None
                state.snapshot_index += 1
                snapshot_io.write_snapshot(
                    state.directory, state.snapshot_index,
                    [(sequence, payload)
                     for _, sequence, payload in ordered])
                for path in wal.list_segments(state.directory):
                    path.unlink()
                    removed += 1
                wal.fsync_directory(state.directory)
            state.snapshot_entries = ordered
            state.tail = []
            state.snapshots_taken += 1
            return {"shard": shard, "entries": len(ordered),
                    "segments_removed": removed,
                    "snapshot_index": state.snapshot_index}

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
        path = self._directory / _META_NAME
        with self._lock:
            if path.exists():
                existing = wire_json_loads(path.read_bytes())
                conflicts = {key: (existing.get(key), value)
                             for key, value in meta.items()
                             if existing.get(key) != value}
                if conflicts:
                    raise ValueError(
                        f"journal directory {self._directory} was "
                        f"written with different cluster parameters: "
                        f"{conflicts} (journal vs requested)")
                return existing
            with open(path, "wb") as handle:
                # fsync the bytes themselves: a dir-entry fsync alone
                # does not make the file *contents* durable, and a
                # half-written meta file would wedge every cold boot.
                handle.write(wire_json_bytes(dict(meta)))
                handle.flush()
                os.fsync(handle.fileno())
            wal.fsync_directory(self._directory)
            return dict(meta)

    def _shard_directory(self, shard: int) -> Optional[Path]:
        if self._directory is None:
            return None
        directory = self._directory / f"shard-{shard:04d}"
        directory.mkdir(parents=True, exist_ok=True)
        return directory

    # invariant: holds-lock
    def _shard(self, shard: int) -> _ShardLog:
        state = self._shards.get(shard)
        if state is None:
            state = _ShardLog(shard, self._shard_directory(shard))
            self._shards[shard] = state
        return state

    def _writer(self, state: _ShardLog) -> wal.SegmentWriter:
        writer = state.writer
        if writer is not None and writer.size >= self._segment_max_bytes:
            writer.close()   # seal: flush + fsync (policy permitting)
            obs.get_registry().counter(
                metric_names.WAL_SEGMENT_ROLLS_TOTAL).inc()
            writer = None
            state.writer = None
        if writer is None:
            # Reuse the current (recovered or just-sealed) segment file
            # only while it is under the roll size; otherwise advance.
            current = wal.segment_path(state.directory,
                                       state.segment_index)
            if state.segment_index == 0 or (
                    current.exists() and current.stat().st_size
                    >= self._segment_max_bytes):
                state.segment_index += 1
            writer = wal.SegmentWriter(
                wal.segment_path(state.directory, state.segment_index),
                fsync=self._fsync)
            state.writer = writer
        return writer

    # Called from __init__ only, before any other thread can hold a
    # reference to this journal — construction-time exclusivity.
    # invariant: holds-lock
    def _recover(self) -> None:
        """Cold boot: rebuild every shard's state from its directory.

        Latest verifying snapshot first, then every segment in index
        order.  A non-verifying frame in the *final* segment is a torn
        tail — truncated in place, counted in ``truncated_bytes``.  The
        same damage in a sealed (non-final) segment raises
        :class:`~repro.cluster.wal.SegmentCorruption`: sealed segments
        were fsynced whole, so a bad frame there is disk corruption
        that silently dropping acknowledged records must not paper
        over.  Entries a lingering pre-snapshot segment duplicates are
        dropped by the shared replay dedup, not here.
        """
        for child in sorted(self._directory.iterdir()):
            match = _SHARD_DIR.match(child.name)
            if match is None or not child.is_dir():
                continue
            shard = int(match.group(1))
            state = _ShardLog(shard, child)
            index, snap_entries, _ = snapshot_io.load_latest(child)
            state.snapshot_index = index
            state.snapshot_entries = [
                (student_key(payload.get("student_id")), sequence,
                 payload)
                for sequence, payload in snap_entries]
            segments = wal.list_segments(child)
            for position, path in enumerate(segments):
                final = position == len(segments) - 1
                if final:
                    entries, dropped = wal.recover_segment(path)
                    state.truncated_bytes += dropped
                else:
                    entries, offset, damage = wal.read_segment(path)
                    if damage is not None:
                        raise SegmentCorruption(path, offset, damage)
                for record in entries:
                    if not isinstance(record, dict):
                        raise SegmentCorruption(
                            path, 0, f"entry is not an object: "
                                     f"{type(record).__name__}")
                    payload = record.get("payload")
                    state.tail.append(
                        (student_key(payload.get("student_id"))
                         if isinstance(payload, dict)
                         else student_key(None),
                         int(record.get("sequence", 0)), payload))
                state.segment_index = wal.segment_index(path)
            self._shards[shard] = state

    def close(self) -> None:
        """Seal every open segment writer (safe to call repeatedly)."""
        with self._lock:
            for state in self._shards.values():
                if state.writer is not None:
                    state.writer.close()
                    state.writer = None
