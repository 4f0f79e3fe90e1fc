"""Journal files on disk: the one module that reads and writes them.

Each shard of a durable journal owns a directory (``shard-<n>/`` next
to the root's ``journal.json``) of **segments** (``segment-<index>.wal``,
append-only, rolled at a size threshold) and at most one settled
**snapshot** (``snapshot-<index>.wal``, the shard's replay-ordered,
deduplicated entries at compaction time).  Both are a flat
concatenation of the same frames::

    +----------------+----------------+------------------------+
    | length  (u32le)| crc32   (u32le)| payload (length bytes) |
    +----------------+----------------+------------------------+

where ``payload`` is the canonical compact JSON
(:func:`repro.serve.protocol.wire_json_bytes`) of one entry,
``{"sequence": <int>, "payload": <record wire object>}``, and ``crc32``
is ``zlib.crc32`` over exactly those bytes.  A snapshot and
``journal.json`` are written tmp file -> fsync -> rename -> directory
fsync, and covered segments are unlinked only after the snapshot is
durable.

Every damaged-file rule lives here too (:meth:`ShardFiles.recover`):

* **Torn tail** — a crash mid-append leaves a *prefix* of the last
  frame.  :func:`scan_entries` stops at the first frame that does not
  verify, and :func:`recover_segment` truncates the *final* segment
  there.
* **Damaged sealed segment** — a later segment exists only because
  this one was sealed with a final flush, so the damage is not a torn
  append: refuse to boot rather than drop acknowledged records.
* **Damaged snapshot** — two snapshots exist only between writing the
  newer and unlinking the older, while the segments the older one lacks
  are still on disk, so an older snapshot that verifies stands in for a
  newer one that does not.  When none verifies, the segments they
  covered are gone: refuse to boot.

Every refusal raises :class:`SegmentCorruption` naming the file.

Durability is a per-writer **fsync policy** (:data:`FSYNC_POLICIES`):
``"batch"`` flushes frames to the OS per append and fsyncs once per
:meth:`SegmentWriter.sync` call, which the router makes per
sub-envelope before it returns any reply, so every acknowledged record
is on disk; ``"off"`` never fsyncs, which still covers process crashes
but not power loss.  Sealing a segment (roll-over, snapshot, close)
always flushes and, unless the policy is ``"off"``, fsyncs.
"""

from __future__ import annotations

import os
import re
import struct
import zlib
from pathlib import Path
from typing import List, Optional, Tuple

from repro import obs
from repro.obs import names as metric_names
from repro.serve.protocol import wire_json_bytes, wire_json_loads

#: Supported fsync policies, strongest first (see module docstring).
FSYNC_POLICIES = ("batch", "off")

SEGMENT_SUFFIX = ".wal"
_SEGMENT_NAME = re.compile(r"^segment-(\d{8})\.wal$")
# ``snapshot-<index>.json`` is the one-JSON-body snapshot of older
# journals.  It is listed so that it fails to verify and refuses to
# boot like any damaged snapshot, instead of being skipped with the
# records it covers.
_SNAPSHOT_NAME = re.compile(r"^snapshot-(\d{8})\.(?:wal|json)$")
META_NAME = "journal.json"

#: Frame header: payload byte length + CRC32 of the payload bytes.
_HEADER = struct.Struct("<II")
HEADER_BYTES = _HEADER.size

#: One journal file entry with the file it was read from.
FileEntry = Tuple[Path, dict]


class SegmentCorruption(RuntimeError):
    """A journal file failed to verify where no crash could have
    damaged it: the one error every refusal to boot raises."""

    def __init__(self, path, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = str(path)
        self.reason = reason


def _damaged(path, offset: int, damage: str) -> SegmentCorruption:
    return SegmentCorruption(path, f"corrupt frame at byte {offset}: "
                                   f"{damage}")


def segment_path(directory, index: int) -> Path:
    return Path(directory) / f"segment-{index:08d}{SEGMENT_SUFFIX}"


def segment_index(path) -> int:
    match = _SEGMENT_NAME.match(Path(path).name)
    if match is None:
        raise ValueError(f"not a segment file name: {path}")
    return int(match.group(1))


def snapshot_path(directory, index: int) -> Path:
    return Path(directory) / f"snapshot-{index:08d}{SEGMENT_SUFFIX}"


def _indexed(directory, pattern) -> List[Tuple[int, Path]]:
    """``(index, path)`` of the files in ``directory`` that ``pattern``
    names, in index order."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted((int(match.group(1)), path)
                  for path in directory.iterdir()
                  for match in [pattern.match(path.name)] if match)


def list_segments(directory) -> List[Path]:
    """The directory's segment files in index (== append) order."""
    return [path for _, path in _indexed(directory, _SEGMENT_NAME)]


def list_snapshots(directory) -> List[Path]:
    """The directory's snapshot files in ascending index order."""
    return [path for _, path in _indexed(directory, _SNAPSHOT_NAME)]


def encode_entry(entry: dict) -> bytes:
    """One framed entry: header + canonical JSON payload bytes."""
    payload = wire_json_bytes(entry)
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def scan_entries(data: bytes) -> Tuple[List[dict], int, Optional[str]]:
    """Decode framed entries from raw segment or snapshot bytes.

    Returns ``(entries, valid_bytes, damage)``: every entry that
    verified, the offset of the first byte past the last good frame,
    and ``None`` when the whole buffer verified — otherwise a short
    reason (``"torn header"`` / ``"torn payload"`` / ``"crc mismatch"``
    / ``"undecodable payload"``) describing why scanning stopped.
    Everything at or after ``valid_bytes`` is unverified.
    """
    entries: List[dict] = []
    offset = 0
    total = len(data)
    while offset < total:
        if offset + HEADER_BYTES > total:
            return entries, offset, "torn header"
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + HEADER_BYTES
        end = start + length
        if end > total:
            return entries, offset, "torn payload"
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            return entries, offset, "crc mismatch"
        try:
            entries.append(wire_json_loads(payload))
        except ValueError:
            return entries, offset, "undecodable payload"
        offset = end
    return entries, offset, None


def read_segment(path) -> Tuple[List[dict], int, Optional[str]]:
    """:func:`scan_entries` over a segment or snapshot file's bytes."""
    return scan_entries(Path(path).read_bytes())


def recover_segment(path) -> Tuple[List[dict], int]:
    """Read a segment, truncating any torn tail in place.

    Returns ``(entries, dropped_bytes)``.  Only correct for the shard's
    *final* segment: :meth:`ShardFiles.recover` refuses a damaged
    sealed one instead (see module docstring for why the distinction is
    safe).
    """
    path = Path(path)
    entries, valid_bytes, damage = read_segment(path)
    dropped = 0
    if damage is not None:
        dropped = path.stat().st_size - valid_bytes
        with open(path, "rb+") as handle:
            handle.truncate(valid_bytes)
            handle.flush()
            os.fsync(handle.fileno())
    return entries, dropped


def fsync_directory(directory) -> None:
    """Best-effort fsync of a directory entry (after create/rename/
    unlink) so the metadata change itself survives power loss."""
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return   # platform without directory fds: nothing to do
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _write_durably(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data``: tmp file, fsync, rename,
    directory fsync.  A failure leaves ``path`` as it was and no tmp
    file behind."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    fsync_directory(path.parent)


def _entry(sequence: int, payload: dict) -> dict:
    return {"sequence": int(sequence), "payload": payload}


def write_snapshot(directory, index: int, entries) -> Path:
    """Durably write ``entries`` as snapshot ``index``; prune older ones.

    ``entries`` is an iterable of ``(sequence, payload)`` in replay
    order, one frame each.  Returns the final path.  Older snapshot
    files are unlinked only after the new one is durable, so there is
    always at least one loadable snapshot on disk.
    """
    final = snapshot_path(directory, index)
    _write_durably(final, b"".join(
        encode_entry(_entry(sequence, payload))
        for sequence, payload in entries))
    for old in list_snapshots(directory):
        if old != final:
            old.unlink()
    fsync_directory(directory)
    return final


def load_latest(directory) -> Tuple[int, Optional[Path], List[dict]]:
    """The newest snapshot that verifies: ``(index, path, entries)``.

    With no snapshot file the result is ``(0, None, [])``: replay is
    the segments alone.  Snapshots are tried newest-first, and an older
    one that verifies stands in for a newer one that does not.  When
    snapshot files exist and none verifies, this raises
    :class:`SegmentCorruption` naming the newest.
    """
    newest = None
    for index, path in reversed(_indexed(directory, _SNAPSHOT_NAME)):
        entries, offset, damage = read_segment(path)
        if damage is None:
            return index, path, entries
        newest = newest or _damaged(path, offset, damage)
    if newest is not None:
        raise SegmentCorruption(
            newest.path, f"{newest.reason}; no older snapshot verifies, "
                         f"and the segments it covered are gone: "
                         f"refusing to boot")
    return 0, None, []


def read_meta(directory) -> Optional[dict]:
    """The journal root's ``journal.json`` object, or ``None`` before
    the first :func:`write_meta`."""
    path = Path(directory) / META_NAME
    if not path.exists():
        return None
    try:
        meta = wire_json_loads(path.read_bytes())
    except ValueError:
        meta = None
    if not isinstance(meta, dict):
        raise SegmentCorruption(path, "not a JSON object")
    return meta


def write_meta(directory, meta: dict) -> None:
    """Durably write ``journal.json`` (tmp file, fsync, rename)."""
    _write_durably(Path(directory) / META_NAME, wire_json_bytes(meta))


class SegmentWriter:
    """Append framed entries to one segment file under a fsync policy."""

    def __init__(self, path, fsync: str = "batch"):
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"fsync policy must be one of "
                             f"{FSYNC_POLICIES}, got {fsync!r}")
        self.path = Path(path)
        self.fsync = fsync
        registry = obs.get_registry()
        self._obs_append = registry.histogram(
            metric_names.WAL_APPEND_SECONDS)
        self._obs_fsync = registry.histogram(
            metric_names.WAL_FSYNC_SECONDS)
        existed = self.path.exists()
        self._size = self.path.stat().st_size if existed else 0
        self._file = open(self.path, "ab")
        self._dirty = False
        if not existed:
            fsync_directory(self.path.parent)

    @property
    def size(self) -> int:
        """Bytes in the segment (on-disk size plus unflushed appends)."""
        return self._size

    def append(self, entry: dict) -> int:
        """Frame + write one entry; returns the frame's byte length."""
        started = obs.clock()
        frame = encode_entry(entry)
        self._file.write(frame)  # invariants: disable=INV004 -- fsync is sync()
        self._file.flush()   # visible to readers/crash-of-this-process
        self._size += len(frame)
        self._dirty = True
        self._obs_append.observe(obs.clock() - started)
        return len(frame)

    def sync(self) -> None:
        """The batch policy's durability point (no-op under ``off``)."""
        if self.fsync == "batch" and self._dirty:
            started = obs.clock()
            os.fsync(self._file.fileno())
            self._obs_fsync.observe(obs.clock() - started)
            self._dirty = False

    def close(self) -> None:
        """Seal the segment: flush, fsync (unless policy off), close."""
        if self._file.closed:
            return
        self._file.flush()
        if self.fsync != "off":
            os.fsync(self._file.fileno())
        self._file.close()


class ShardFiles:
    """One shard directory's journal files: the active segment, the
    snapshot, and the rules that read them back on cold boot.

    Not thread-safe: :class:`~repro.cluster.journal.RecordJournal`
    calls it under that shard's lock.
    """

    def __init__(self, directory, fsync: str, segment_max_bytes: int):
        self.directory = Path(directory)
        self.fsync = fsync
        self.segment_max_bytes = segment_max_bytes
        self.segment_index = 0
        self.snapshot_index = 0
        self.truncated_bytes = 0
        self._writer: Optional[SegmentWriter] = None

    def recover(self) -> Tuple[List[FileEntry], List[FileEntry]]:
        """Read the directory back: ``(snapshot, tail)``.

        ``snapshot`` holds the entries of the newest snapshot that
        verifies and ``tail`` those of every segment in index order,
        each with the file it came from.  A torn final segment is
        truncated in place (counted in ``truncated_bytes``); a damaged
        sealed segment, or snapshots none of which verifies, raise
        :class:`SegmentCorruption`.  Entries a lingering pre-snapshot
        segment duplicates are left to the journal's replay dedup.
        """
        self.snapshot_index, path, entries = load_latest(self.directory)
        snapshot = [(path, entry) for entry in entries]
        tail: List[FileEntry] = []
        segments = list_segments(self.directory)
        for position, path in enumerate(segments):
            if position == len(segments) - 1:
                entries, dropped = recover_segment(path)
                self.truncated_bytes += dropped
            else:
                entries, offset, damage = read_segment(path)
                if damage is not None:
                    raise _damaged(path, offset, damage)
            tail.extend((path, entry) for entry in entries)
            self.segment_index = segment_index(path)
        return snapshot, tail

    def segments(self) -> int:
        return len(list_segments(self.directory))

    def append(self, sequence: int, payload: dict) -> None:
        self._active().append(_entry(sequence, payload))

    def sync(self) -> None:
        if self._writer is not None:
            self._writer.sync()

    def compact(self, entries) -> int:
        """Seal the active segment, durably write ``entries``
        (``(sequence, payload)`` in replay order) as the next snapshot,
        then unlink every segment it covers.  Returns how many went."""
        self.close()
        self.snapshot_index += 1
        write_snapshot(self.directory, self.snapshot_index, entries)
        covered = list_segments(self.directory)
        for path in covered:
            path.unlink()
        fsync_directory(self.directory)
        return len(covered)

    def close(self) -> None:
        """Seal the active segment (safe to call repeatedly)."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def _active(self) -> SegmentWriter:
        if self._writer is not None \
                and self._writer.size >= self.segment_max_bytes:
            self.close()   # seal: flush + fsync (policy permitting)
            obs.get_registry().counter(
                metric_names.WAL_SEGMENT_ROLLS_TOTAL).inc()
        if self._writer is None:
            # Reuse the current (recovered or just-sealed) segment file
            # only while it is under the roll size; otherwise advance.
            current = segment_path(self.directory, self.segment_index)
            if self.segment_index == 0 or (
                    current.exists() and current.stat().st_size
                    >= self.segment_max_bytes):
                self.segment_index += 1
            self._writer = SegmentWriter(
                segment_path(self.directory, self.segment_index),
                fsync=self.fsync)
        return self._writer
