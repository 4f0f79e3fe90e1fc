"""Cold boot: kill -9 the workers AND the router, recover from disk.

The durable-journal end-to-end: a real multi-process cluster booted by
the CLI's ``build_cluster`` journals to ``--journal-dir``, snapshots
and truncates every shard's log, journals a tail past the snapshot,
and then every process is hard-killed mid-stream (no drain, no
``close()`` — the unsealed tail is exactly what the crash left) and a
torn frame is appended to the last live segment.  A **brand-new**
cluster booted by ``build_cluster`` from the same parsed
``--journal-dir`` arguments must answer the next batches
bit-identically to an uninterrupted single-process ``Service`` —
including the per-student ``history_length`` acks, which prove the
replayed histories have exactly the right number of records (no drops,
no duplicates).
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core import RCKT, RCKTConfig
from repro.cluster.__main__ import build_cluster, build_parser
from repro.cluster.wal import list_segments
from repro.serve import (ExplainQuery, InferenceEngine, RecordEvent,
                         ScoreQuery, Service, to_wire)

NUM_QUESTIONS = 20
NUM_CONCEPTS = 5


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("coldboot") / "model.npz"
    engine = InferenceEngine(RCKT(NUM_QUESTIONS, NUM_CONCEPTS,
                                  RCKTConfig(encoder="dkt", dim=8,
                                             layers=1, seed=4)))
    engine.save(path)
    return path


def assert_wire_identical(ours, theirs):
    assert [to_wire(a) for a in ours] == [to_wire(b) for b in theirs]


def test_cold_boot_recovers_replies_and_history_lengths(checkpoint,
                                                        tmp_path):
    journal_dir = tmp_path / "journal"
    args = build_parser().parse_args([
        "--checkpoint", str(checkpoint), "--shards", "2",
        "--journal-dir", str(journal_dir), "--log-dir", str(tmp_path)])
    reference = Service.from_checkpoint(checkpoint)
    rng = np.random.default_rng(11)
    students = [f"boot-{k}" for k in range(6)]

    def make_round():
        return [RecordEvent(s, int(rng.integers(1, NUM_QUESTIONS + 1)),
                            int(rng.integers(0, 2)),
                            (int(rng.integers(1, NUM_CONCEPTS + 1)),))
                for s in students]

    batch_a = [event for _ in range(3) for event in make_round()]
    tail = make_round()
    batch_b = [event for _ in range(2) for event in make_round()]
    mixed = [q for s in students
             for q in (ScoreQuery(s, 7, (2,)), ExplainQuery(s))]

    # --- generation 1: journal to disk, then die hard mid-stream -----
    journal, supervisor, router = build_cluster(args, args.checkpoint)
    try:
        half = len(batch_a) // 2
        assert_wire_identical(router.execute_batch(batch_a[:half]),
                              reference.execute_batch(batch_a[:half]))

        # kill -9 one worker mid-stream: the watchdog restart replays
        # from the on-disk journal (not a carried-over memory list).
        supervisor.workers[0].process.kill()
        supervisor.workers[0].process.wait()
        supervisor.check_once()
        assert supervisor.workers[0].restarts == 1
        assert_wire_identical(router.execute_batch(batch_a[half:]),
                              reference.execute_batch(batch_a[half:]))

        # Snapshot + truncate every shard, then journal a tail that
        # only the live segments hold.
        assert len(journal.snapshot_all()) == 2
        assert_wire_identical(router.execute_batch(tail),
                              reference.execute_batch(tail))
        expected = journal.total()

        # kill -9 every worker; the router/supervisor objects are then
        # simply discarded, journal deliberately NOT close()d — the
        # unsealed tail stays exactly as the "crash" left it.
        for handle in supervisor.workers:
            handle.process.kill()
            handle.process.wait()
    finally:
        supervisor.stop()
        router.close()
    del journal, supervisor, router   # reference continues uninterrupted

    # A torn frame (length header, short body) at the end of the last
    # live segment: recovery must truncate it, not refuse to boot.
    segments = [segment
                for shard_dir in sorted(Path(journal_dir).glob("shard-*"))
                for segment in list_segments(shard_dir)]
    assert segments
    with open(segments[-1], "ab") as handle:
        handle.write(b"\x40\x00\x00\x00torn")

    # --- generation 2: cold boot from the directory alone -----------
    journal2, supervisor2, router2 = build_cluster(args, args.checkpoint)
    try:
        assert journal2.total() == expected
        ours = router2.execute_batch(batch_b)
        theirs = reference.execute_batch(batch_b)
        assert_wire_identical(ours, theirs)
        # The explicit history-length check: every ack's post-append
        # length matches the uninterrupted service, so the replayed
        # histories neither dropped nor duplicated a single record.
        assert [reply.history_length for reply in ours] == \
            [reply.history_length for reply in theirs]
        final = {s: 6 for s in students}   # 3 + 1 + 2 rounds per student
        assert {e.student_id: r.history_length
                for e, r in zip(batch_b, ours)} == final

        assert_wire_identical(router2.execute_batch(mixed),
                              reference.execute_batch(mixed))
        assert router2.health()["status"] == "ok"
        assert router2.health()["journal"]["durable"] is True
    finally:
        supervisor2.stop()
        router2.close()
        journal2.close()
        reference.close()
