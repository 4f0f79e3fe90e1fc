"""Durable RecordJournal: validation, cross-boundary ordering, recovery.

The regression sweep for the journal-correctness bugfixes:

* **Append validation** — a payload that would not replay as a
  ``RecordEvent`` (most notably one *missing* ``student_id``, which the
  old journal silently keyed under ``student_key(None)`` and replayed
  as a poison record) is rejected with a ``MalformedQuery`` value and
  never journaled.  A payload whose ``student_id`` field is present but
  ``None`` stays journalable — the single-process ``Service`` accepts
  such records, and the journal must mirror what workers acknowledged.
* **Ordering + dedup across storage boundaries** — a retried ack
  journaled twice lands in two different segment files, or once in a
  snapshot and once in the tail; replay keeps exactly one copy and
  worker-acknowledged per-student order either way.
* **Torn tails** — byte-level damage to the final segment truncates to
  the last good frame on cold boot; the same damage in a sealed
  segment refuses to boot (``SegmentCorruption``).
"""

import pytest

from repro.cluster import snapshot as snapshot_io
from repro.cluster import wal
from repro.cluster.journal import (RecordJournal, replay_order,
                                   validate_entry)
from repro.cluster.wal import SegmentCorruption
from repro.serve import MalformedQuery, RecordEvent, to_wire


def payload(student, question=1, correct=1):
    return to_wire(RecordEvent(student, question, correct, (1,)))


def replayed(journal, shard=0):
    return [to_wire(record) for record in journal.replay_records(shard)]


def shard_dir(tmp_path, shard=0):
    return tmp_path / f"shard-{shard:04d}"


# ---------------------------------------------------------------------------
# Satellite 1: append validation (the poison-record regression)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("durable", [False, True])
def test_append_rejects_payload_missing_student_id(tmp_path, durable):
    journal = RecordJournal(directory=tmp_path if durable else None)
    poison = payload("s0")
    del poison["student_id"]
    error = journal.append(0, poison, sequence=1)
    assert isinstance(error, MalformedQuery)
    assert "would not replay" in error.message
    assert journal.count(0) == 0 and replayed(journal) == []
    if durable:
        journal.close()
        # Nothing poisonous on disk either: cold boot stays empty.
        assert RecordJournal(directory=tmp_path).total() == 0


@pytest.mark.parametrize("bad, match", [
    ("not a dict", "wire object"),
    (42, "wire object"),
    ({"v": 1, "type": "score", "student_id": "s0", "question_id": 1,
      "concept_ids": [1]}, "must be 'record'"),
    ({"v": 1, "type": "nonsense"}, "would not replay"),
])
def test_append_rejects_unreplayable_payloads(bad, match):
    journal = RecordJournal()
    error = journal.append(0, bad, sequence=1)
    assert isinstance(error, MalformedQuery)
    assert match in error.message
    assert journal.count(0) == 0


@pytest.mark.parametrize("sequence", ["nope", None, 0, -3])
def test_append_rejects_bad_sequences(sequence):
    journal = RecordJournal()
    error = journal.append(0, payload("s0"), sequence=sequence)
    assert isinstance(error, MalformedQuery)
    assert "sequence" in error.message
    assert journal.count(0) == 0


def test_append_accepts_null_student_id_field(tmp_path):
    # Present-but-None is a valid student to the Service, so it must be
    # a valid journal entry too (rejecting it would drop acknowledged
    # state on replay and break the bit-identity contract).
    journal = RecordJournal(directory=tmp_path)
    assert journal.append(0, payload(None), sequence=1) is None
    journal.close()
    reopened = RecordJournal(directory=tmp_path)
    assert [q["student_id"] for q in replayed(reopened)] == [None]


def test_validate_entry_names_the_defect():
    missing = payload("s0")
    del missing["student_id"]
    assert "would not replay" in validate_entry(missing, 1).message
    assert validate_entry(payload("s0"), 1) is None


# ---------------------------------------------------------------------------
# Satellite 2: dedup + ordering across segment and snapshot boundaries
# ---------------------------------------------------------------------------
def test_retried_ack_deduped_across_two_segments(tmp_path):
    # segment_max_bytes=1 rolls after every append: the retried ack's
    # two copies are guaranteed to land in different segment files.
    journal = RecordJournal(directory=tmp_path, segment_max_bytes=1)
    assert journal.append(0, payload("s0", question=1), sequence=1) is None
    assert journal.append(0, payload("s0", question=2), sequence=2) is None
    assert journal.append(0, payload("s0", question=1), sequence=1) is None
    assert len(wal.list_segments(shard_dir(tmp_path))) == 3
    assert [q["question_id"] for q in replayed(journal)] == [1, 2]
    journal.close()
    reopened = RecordJournal(directory=tmp_path)
    assert [q["question_id"] for q in replayed(reopened)] == [1, 2]


def test_late_low_sequence_ack_reorders_across_segments(tmp_path):
    journal = RecordJournal(directory=tmp_path, segment_max_bytes=1)
    journal.append(0, payload("s0", question=20), sequence=2)
    journal.append(0, payload("s1", question=30), sequence=1)
    journal.append(0, payload("s0", question=10), sequence=1)   # late ack
    journal.close()
    reopened = RecordJournal(directory=tmp_path)
    # Students keep first-appearance order; within s0 the late
    # low-sequence ack replays first despite being journaled last (and
    # in a later segment file).
    assert [(q["student_id"], q["question_id"])
            for q in replayed(reopened)] == \
        [("s0", 10), ("s0", 20), ("s1", 30)]


def test_snapshot_tail_seam_dedups_and_reorders(tmp_path):
    journal = RecordJournal(directory=tmp_path)
    journal.append(0, payload("s0", question=10), sequence=1)
    journal.append(0, payload("s0", question=30), sequence=3)
    journal.snapshot(0)
    # Post-snapshot tail: a retried copy of a snapshotted ack plus a
    # late-arriving lower-sequence ack.
    journal.append(0, payload("s0", question=30), sequence=3)
    journal.append(0, payload("s0", question=20), sequence=2)
    journal.sync(0)
    expected = [10, 20, 30]
    assert [q["question_id"] for q in replayed(journal)] == expected
    journal.close()
    reopened = RecordJournal(directory=tmp_path)
    assert [q["question_id"] for q in replayed(reopened)] == expected


def test_replay_order_is_shared_and_stable():
    entries = [(b"a", 2, {"q": "a2"}), (b"b", 1, {"q": "b1"}),
               (b"a", 1, {"q": "a1"}), (b"a", 2, {"q": "dup"})]
    assert [p["q"] for _, _, p in replay_order(entries)] == \
        ["a1", "a2", "b1"]


# ---------------------------------------------------------------------------
# Satellite 3: torn tails and sealed-segment corruption
# ---------------------------------------------------------------------------
def test_cold_boot_truncates_torn_tail(tmp_path):
    journal = RecordJournal(directory=tmp_path)
    for k in range(3):
        journal.append(0, payload(f"s{k}", question=1 + k),
                       sequence=1)
    journal.sync(0)
    journal.close()
    segment = wal.list_segments(shard_dir(tmp_path))[-1]
    clean = segment.stat().st_size
    with open(segment, "ab") as handle:
        handle.write(b"\x40\x00\x00\x00torn")   # partial final frame
    reopened = RecordJournal(directory=tmp_path)
    assert reopened.count(0) == 3
    assert segment.stat().st_size == clean
    assert reopened.describe()["shards"]["0"]["truncated_bytes"] == 8
    reopened.close()
    # The truncation is durable: a second boot finds a clean tail.
    third = RecordJournal(directory=tmp_path)
    assert third.count(0) == 3
    assert third.describe()["shards"]["0"]["truncated_bytes"] == 0


def test_flipped_tail_byte_drops_only_last_record(tmp_path):
    journal = RecordJournal(directory=tmp_path)
    for k in range(3):
        journal.append(0, payload("s0", question=1 + k), sequence=1 + k)
    journal.sync(0)
    journal.close()
    segment = wal.list_segments(shard_dir(tmp_path))[-1]
    data = bytearray(segment.read_bytes())
    data[-1] ^= 0x01
    segment.write_bytes(bytes(data))
    reopened = RecordJournal(directory=tmp_path)
    assert [q["question_id"] for q in replayed(reopened)] == [1, 2]


def test_sealed_segment_corruption_refuses_to_boot(tmp_path):
    journal = RecordJournal(directory=tmp_path, segment_max_bytes=1)
    journal.append(0, payload("s0", question=1), sequence=1)
    journal.append(0, payload("s0", question=2), sequence=2)
    journal.close()
    sealed, _ = wal.list_segments(shard_dir(tmp_path))
    data = bytearray(sealed.read_bytes())
    data[-1] ^= 0x01
    sealed.write_bytes(bytes(data))
    with pytest.raises(SegmentCorruption):
        RecordJournal(directory=tmp_path)


def test_append_resumes_cleanly_after_torn_boot(tmp_path):
    journal = RecordJournal(directory=tmp_path)
    journal.append(0, payload("s0", question=1), sequence=1)
    journal.sync(0)
    journal.close()
    segment = wal.list_segments(shard_dir(tmp_path))[-1]
    with open(segment, "ab") as handle:
        handle.write(b"\x07")
    reopened = RecordJournal(directory=tmp_path)
    assert reopened.append(0, payload("s0", question=2),
                           sequence=2) is None
    reopened.sync(0)
    reopened.close()
    assert [q["question_id"]
            for q in replayed(RecordJournal(directory=tmp_path))] == [1, 2]


# ---------------------------------------------------------------------------
# Snapshot + truncation bounds disk usage
# ---------------------------------------------------------------------------
def test_auto_snapshot_bounds_segment_files(tmp_path):
    journal = RecordJournal(directory=tmp_path, segment_max_bytes=1,
                            snapshot_every=4)
    for k in range(10):
        assert journal.append(0, payload(f"s{k}", question=1 + k),
                              sequence=1) is None
    directory = shard_dir(tmp_path)
    # 10 appends at one segment per append would be 10 files; the two
    # auto-snapshots (at 4 and 8) truncated all but the unsealed tail.
    assert len(wal.list_segments(directory)) == 10 - 8
    assert len(snapshot_io.list_snapshots(directory)) == 1
    stats = journal.describe()["shards"]["0"]
    assert stats["snapshots_taken"] == 2
    assert stats["snapshot"] == 8 and stats["tail"] == 2
    assert len(replayed(journal)) == 10
    journal.close()
    assert len(replayed(RecordJournal(directory=tmp_path))) == 10


def test_explicit_snapshot_keeps_replay_identical(tmp_path):
    journal = RecordJournal(directory=tmp_path, segment_max_bytes=1)
    for k in range(5):
        journal.append(0, payload(f"s{k % 2}", question=1 + k),
                       sequence=1 + k // 2)
    before = replayed(journal)
    stats = journal.snapshot(0)
    assert stats["segments_removed"] == 5
    assert wal.list_segments(shard_dir(tmp_path)) == []
    assert replayed(journal) == before
    journal.close()
    assert replayed(RecordJournal(directory=tmp_path)) == before


def test_crash_between_snapshot_and_truncation_dedups(tmp_path):
    # The documented crash window: the snapshot is durable but the
    # segments it covers were not yet deleted.  Cold boot sees every
    # entry twice (snapshot + stale segment) and replay dedup drops
    # the copies.
    journal = RecordJournal(directory=tmp_path)
    for k in range(3):
        journal.append(0, payload("s0", question=1 + k), sequence=1 + k)
    journal.sync(0)
    journal.close()
    ordered = [(sequence, entry_payload) for _, sequence, entry_payload
               in replay_order(
                   [(b"s0", 1 + k, payload("s0", question=1 + k))
                    for k in range(3)])]
    snapshot_io.write_snapshot(shard_dir(tmp_path), 1, ordered)
    reopened = RecordJournal(directory=tmp_path)
    assert reopened.count(0) == 6   # raw: snapshot + stale segment
    assert [q["question_id"] for q in replayed(reopened)] == [1, 2, 3]


def test_corrupt_snapshot_falls_back_to_segments(tmp_path):
    journal = RecordJournal(directory=tmp_path)
    journal.append(0, payload("s0", question=7), sequence=1)
    journal.sync(0)
    journal.close()
    snapshot_io.write_snapshot(shard_dir(tmp_path), 1, [])
    path = snapshot_io.snapshot_path(shard_dir(tmp_path), 1)
    path.write_bytes(path.read_bytes()[:-5])   # truncate: CRC fails
    reopened = RecordJournal(directory=tmp_path)
    assert [q["question_id"] for q in replayed(reopened)] == [7]


# ---------------------------------------------------------------------------
# Durable plumbing
# ---------------------------------------------------------------------------
def test_bind_meta_pins_cluster_parameters(tmp_path):
    journal = RecordJournal(directory=tmp_path)
    journal.bind_meta({"shards": 2, "replicas": 64})
    journal.close()
    reopened = RecordJournal(directory=tmp_path)
    assert reopened.bind_meta({"shards": 2, "replicas": 64}) == \
        {"shards": 2, "replicas": 64}
    with pytest.raises(ValueError, match="different cluster parameters"):
        reopened.bind_meta({"shards": 4, "replicas": 64})


def test_constructor_validates_parameters(tmp_path):
    with pytest.raises(ValueError, match="fsync policy"):
        RecordJournal(directory=tmp_path, fsync="sometimes")
    with pytest.raises(ValueError, match="segment_max_bytes"):
        RecordJournal(directory=tmp_path, segment_max_bytes=0)
    with pytest.raises(ValueError, match="snapshot_every"):
        RecordJournal(directory=tmp_path, snapshot_every=-1)


@pytest.mark.parametrize("fsync", wal.FSYNC_POLICIES)
def test_every_fsync_policy_survives_reopen(tmp_path, fsync):
    journal = RecordJournal(directory=tmp_path, fsync=fsync)
    journal.append(0, payload("s0"), sequence=1)
    journal.sync(0)
    journal.close()
    assert RecordJournal(directory=tmp_path).count(0) == 1


def test_in_memory_journal_semantics_unchanged():
    journal = RecordJournal()
    assert not journal.durable and journal.directory is None
    journal.append(0, payload("s0", question=2), sequence=2)
    journal.append(0, payload("s0", question=1), sequence=1)
    journal.append(0, payload("s0", question=1), sequence=1)   # retry
    assert journal.count(0) == 3   # raw entries, like the old journal
    assert [q["question_id"] for q in replayed(journal)] == [1, 2]
    stats = journal.snapshot(0)   # in-memory compaction still works
    assert stats["entries"] == 2 and stats["segments_removed"] == 0
    assert journal.count(0) == 2
    assert [q["question_id"] for q in replayed(journal)] == [1, 2]
    journal.sync(0)   # no-op, must not raise
    journal.close()
