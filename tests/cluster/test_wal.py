"""WAL byte layer: frame roundtrips, torn tails, and segment recovery.

Everything here manipulates raw segment bytes — the failure injection
(`truncate mid-frame`, `flip a payload byte`, `forge a valid-CRC
non-JSON frame`) mirrors what a crash or disk fault leaves behind, and
the assertions pin the recovery contract the journal layer builds on:
every frame *before* the damage survives, everything at or after it is
reported (and truncated by :func:`repro.cluster.wal.recover_segment`).
"""

import struct
import zlib

import pytest

from repro.cluster import wal
from repro.cluster.wal import (HEADER_BYTES, SegmentWriter, encode_entry,
                               list_segments, recover_segment,
                               scan_entries, segment_index, segment_path)


def entries(n, student="s0"):
    return [{"sequence": k + 1,
             "payload": {"v": 1, "type": "record", "student_id": student,
                         "question_id": k + 1, "correct": k % 2,
                         "concept_ids": [1], "model": "default"}}
            for k in range(n)]


def write_segment(path, records, fsync="batch"):
    writer = SegmentWriter(path, fsync=fsync)
    for record in records:
        writer.append(record)
    writer.close()
    return path


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------
def test_frame_roundtrip(tmp_path):
    records = entries(5)
    path = write_segment(tmp_path / "segment-00000001.wal", records)
    decoded, valid, damage = wal.read_segment(path)
    assert decoded == records
    assert valid == path.stat().st_size
    assert damage is None


def test_empty_segment_is_clean(tmp_path):
    path = tmp_path / "segment-00000001.wal"
    SegmentWriter(path).close()
    assert wal.read_segment(path) == ([], 0, None)


def test_scan_reports_torn_header():
    data = b"".join(encode_entry(e) for e in entries(3))
    torn = data[:len(data) - len(encode_entry(entries(3)[-1])) + 3]
    decoded, valid, damage = scan_entries(torn)
    assert decoded == entries(2)
    assert damage == "torn header"
    assert torn[:valid] == b"".join(encode_entry(e) for e in entries(2))


def test_scan_reports_torn_payload():
    frames = [encode_entry(e) for e in entries(2)]
    torn = frames[0] + frames[1][:HEADER_BYTES + 4]
    decoded, valid, damage = scan_entries(torn)
    assert decoded == entries(1)
    assert valid == len(frames[0])
    assert damage == "torn payload"


def test_scan_reports_crc_mismatch():
    frames = [encode_entry(e) for e in entries(2)]
    corrupt = bytearray(frames[0] + frames[1])
    corrupt[len(frames[0]) + HEADER_BYTES] ^= 0xFF   # flip a payload byte
    decoded, valid, damage = scan_entries(bytes(corrupt))
    assert decoded == entries(1)
    assert valid == len(frames[0])
    assert damage == "crc mismatch"


def test_scan_reports_undecodable_payload():
    # A frame whose CRC verifies but whose payload is not JSON: only a
    # bug (or deliberate tampering) produces this, and it must not pass.
    payload = b"\xffnot json"
    frame = struct.Struct("<II").pack(len(payload),
                                      zlib.crc32(payload)) + payload
    decoded, valid, damage = scan_entries(encode_entry(entries(1)[0])
                                          + frame)
    assert decoded == entries(1)
    assert damage == "undecodable payload"


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------
def test_recover_segment_truncates_torn_tail(tmp_path):
    records = entries(4)
    path = write_segment(tmp_path / "segment-00000001.wal", records)
    clean_size = path.stat().st_size
    with open(path, "ab") as handle:
        handle.write(encode_entry(records[0])[:HEADER_BYTES + 2])
    recovered, dropped = recover_segment(path)
    assert recovered == records
    assert dropped == HEADER_BYTES + 2
    assert path.stat().st_size == clean_size
    # Idempotent: a second recovery finds nothing to drop.
    assert recover_segment(path) == (records, 0)


def test_recover_segment_drops_flipped_final_record(tmp_path):
    records = entries(3)
    path = write_segment(tmp_path / "segment-00000001.wal", records)
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x01
    path.write_bytes(bytes(data))
    recovered, dropped = recover_segment(path)
    assert recovered == records[:2]   # damage costs only the last frame
    assert dropped == len(encode_entry(records[2]))


# ---------------------------------------------------------------------------
# Writer + naming
# ---------------------------------------------------------------------------
def test_writer_tracks_size_and_reopens(tmp_path):
    path = tmp_path / "segment-00000001.wal"
    writer = SegmentWriter(path)
    first = writer.append(entries(1)[0])
    assert writer.size == first == path.stat().st_size
    writer.close()
    # Reopening an existing segment resumes from its on-disk size.
    writer = SegmentWriter(path)
    assert writer.size == first
    writer.append(entries(2)[1])
    writer.close()
    decoded, _, damage = wal.read_segment(path)
    assert decoded == entries(2) and damage is None


def test_writer_rejects_unknown_fsync_policy(tmp_path):
    with pytest.raises(ValueError, match="fsync policy"):
        SegmentWriter(tmp_path / "segment-00000001.wal", fsync="record")


@pytest.mark.parametrize("fsync", wal.FSYNC_POLICIES)
def test_every_fsync_policy_persists(tmp_path, fsync):
    records = entries(3)
    path = write_segment(tmp_path / "segment-00000001.wal", records,
                         fsync=fsync)
    assert wal.read_segment(path) == (records, path.stat().st_size, None)


def test_segment_naming_and_listing(tmp_path):
    for index in (3, 1, 2):
        write_segment(segment_path(tmp_path, index), entries(1))
    (tmp_path / "notes.txt").write_text("not a segment")
    listed = list_segments(tmp_path)
    assert [segment_index(p) for p in listed] == [1, 2, 3]
    with pytest.raises(ValueError):
        segment_index(tmp_path / "notes.txt")
    assert list_segments(tmp_path / "missing") == []
