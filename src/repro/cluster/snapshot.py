"""Shard snapshots: the journal's compaction + truncation anchor.

A snapshot is one JSON file (``snapshot-<index>.json``) holding a
shard's **replay-ordered, deduplicated** journal state at the moment it
was taken: the ``(sequence, payload)`` list behind what
:meth:`repro.cluster.journal.RecordJournal.replay_records` returns.
Once it is durably on disk, every segment file it covers is
redundant and gets deleted — which is what bounds the journal's disk
usage (snapshot + unsealed tail) and makes cold boot O(snapshot + tail)
instead of O(every segment ever written).

Write protocol (crash-safe at every step):

1. serialize to a ``.tmp`` file in the same directory, flush + fsync;
2. ``os.replace`` onto the final ``snapshot-<index>.json`` name (atomic
   on POSIX) and fsync the directory entry;
3. delete older snapshots, then delete covered segments.

A crash between any two steps leaves a state :func:`load_latest` copes
with: an orphaned ``.tmp`` is ignored, two snapshots resolve to the
highest-index one that verifies (the body carries a CRC32 over its
canonical entry bytes), and stale not-yet-deleted segments merely
re-feed entries whose ``(student, sequence)`` pairs the replay dedup
already drops.  A lone snapshot that fails to verify is corruption,
not a crash window, and :func:`load_latest` refuses it.
"""

from __future__ import annotations

import os
import re
import zlib
from pathlib import Path
from typing import List, Tuple

from repro.serve.protocol import wire_json_bytes, wire_json_loads

from .wal import fsync_directory

SNAPSHOT_VERSION = 1
SNAPSHOT_SUFFIX = ".json"
_SNAPSHOT_NAME = re.compile(r"^snapshot-(\d{8})\.json$")

#: One snapshot entry: (sequence, wire payload).  The journal re-derives
#: the student key from the payload, so it is not stored.
Entry = Tuple[int, dict]


def snapshot_path(directory, index: int) -> Path:
    return Path(directory) / f"snapshot-{index:08d}{SNAPSHOT_SUFFIX}"


def snapshot_index(path) -> int:
    match = _SNAPSHOT_NAME.match(Path(path).name)
    if match is None:
        raise ValueError(f"not a snapshot file name: {path}")
    return int(match.group(1))


def list_snapshots(directory) -> List[Path]:
    """Snapshot files in ascending index order."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = [p for p in directory.iterdir()
             if _SNAPSHOT_NAME.match(p.name)]
    return sorted(found, key=snapshot_index)


def _entry_records(entries) -> List[dict]:
    return [{"sequence": int(sequence), "payload": payload}
            for sequence, payload in entries]


def write_snapshot(directory, index: int, entries) -> Path:
    """Durably write ``entries`` as snapshot ``index``; prune older ones.

    ``entries`` is an iterable of ``(sequence, payload)`` in replay
    order (already deduplicated by the caller).  Returns the final
    path.  Older snapshot files are unlinked only after the new one is
    durable, so there is always at least one loadable snapshot on disk.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    records = _entry_records(entries)
    body = {
        "version": SNAPSHOT_VERSION,
        "index": int(index),
        "entries": records,
        "crc32": zlib.crc32(wire_json_bytes(records)),
    }
    final = snapshot_path(directory, index)
    tmp = final.with_suffix(final.suffix + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(wire_json_bytes(body))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, final)
    fsync_directory(directory)
    for old in list_snapshots(directory):
        if old != final:
            old.unlink()
    fsync_directory(directory)
    return final


def read_snapshot(path) -> List[Entry]:
    """Decode + verify one snapshot file (raises ``ValueError``)."""
    body = wire_json_loads(Path(path).read_bytes())
    if not isinstance(body, dict) or \
            body.get("version") != SNAPSHOT_VERSION:
        raise ValueError(f"{path}: not a v{SNAPSHOT_VERSION} snapshot")
    records = body.get("entries")
    if not isinstance(records, list):
        raise ValueError(f"{path}: snapshot has no entries list")
    if body.get("crc32") != zlib.crc32(wire_json_bytes(records)):
        raise ValueError(f"{path}: snapshot entry CRC mismatch")
    entries = []
    for record in records:
        if not isinstance(record, dict) or "sequence" not in record \
                or "payload" not in record:
            raise ValueError(f"{path}: malformed snapshot entry")
        entries.append((int(record["sequence"]), record["payload"]))
    return entries


def load_latest(directory) -> Tuple[int, List[Entry]]:
    """The newest snapshot that verifies: ``(index, entries)``.

    With no snapshot file the result is ``(0, [])``: replay is the
    segments alone.  Snapshots are tried newest-first, and an older
    one that verifies stands in for a newer one that does not: two
    snapshots exist only between step 2 and step 3 of the write
    protocol, when the segments the older one lacks are still on disk.
    When snapshot files exist and none verifies, this raises
    ``ValueError`` naming the newest: the segments they covered are
    gone, and booting without them would silently drop acknowledged
    records — the rule sealed segments follow.
    """
    newest_error = None
    for path in reversed(list_snapshots(directory)):
        try:
            return snapshot_index(path), read_snapshot(path)
        except (ValueError, OSError) as error:
            newest_error = newest_error or error
    if newest_error is not None:
        raise ValueError(f"{newest_error}; no older snapshot verifies, "
                         f"and the segments it covered are gone: "
                         f"refusing to boot") from newest_error
    return 0, []
