"""Cluster oracle: a router over in-process shards against one Service
per checkpoint.

One seeded hypothesis state machine drives a
:class:`~repro.cluster.ScatterGatherRouter` over 2-3 shards.  Each
shard is a stand-in for a worker process (:class:`Worker`): an
in-process ``Service`` that can die — every in-memory state lost — and
come back from a checkpoint.  Acknowledged records go to a durable
journal in a tmp dir.  The rules:

* an envelope of records (some out of vocabulary) and the five read
  types;
* crash shard k: kill it, send an envelope while it is down, then
  drain it, boot a fresh ``Service`` from the checkpoint it serves,
  :meth:`~repro.cluster.RecordJournal.replay_into` and resume;
* rollout, and rollout with one shard drained: the result list must
  end at that shard, and later shards keep their checkpoint;
* snapshot one shard;
* lingering segments: copy a shard's segments aside, snapshot it, copy
  them back — a crash between the snapshot write and the unlink;
* cold boot from the journal directory alone, after a torn prefix of a
  WAL frame lands on a live segment.

The reference is one ``Service`` per checkpoint, each fed only the
records the cluster acknowledged.  Every reply must be wire-equal to
the reference for the checkpoint its shard serves (exact for dkt,
within 1e-12 for akt), and every student's ``history_length`` must
count exactly its acknowledged records.  ``-m slow`` runs it longer.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, rule,
                                 run_state_machine_as_test)
from test_router import wire_equal

from repro.cluster import RecordJournal, ScatterGatherRouter
from repro.cluster.wal import encode_entry, list_segments
from repro.core import RCKT, RCKTConfig
from repro.serve import (DEFAULT_MODEL, DEFAULT_WARM_TOP, CandidateQuestion,
                         ExplainQuery, HistoryEdit, InferenceEngine,
                         RecommendQuery, RecordEvent, RecordReply,
                         RecourseQuery, ScoreQuery, ScoreReply, Service,
                         ShardUnavailable, WhatIfQuery, is_error, to_wire)

NUM_QUESTIONS = 20
NUM_CONCEPTS = 5
STUDENTS = tuple(f"c{k}" for k in range(6))
CHECKPOINTS = "ABC"
#: Small segments, so shards roll and seal segments as they go.
SEGMENT_BYTES = 2048
RULES = {"envelope", "crash", "rollout", "rollout_with_drained_shard",
         "snapshot", "lingering_segments", "cold_boot"}
#: Paths inside the rules that must be taken at least once too.
PATHS = {"outage_reply", "torn_tail"}

STUDENT = st.sampled_from(STUDENTS)
CONCEPTS = st.lists(st.integers(1, NUM_CONCEPTS), min_size=1, max_size=2,
                    unique=True).map(tuple)
#: Mostly in vocabulary; the cluster and the reference both reject the
#: rest, and neither may remember it.
QUESTION = st.one_of(st.integers(1, NUM_QUESTIONS),
                     st.just(NUM_QUESTIONS + 1))
RECORD = st.builds(RecordEvent, STUDENT, QUESTION, st.integers(0, 1),
                   st.one_of(CONCEPTS, st.just((NUM_CONCEPTS + 1,))))
CANDIDATES = st.lists(st.tuples(st.integers(1, NUM_QUESTIONS), CONCEPTS),
                      min_size=1, max_size=2,
                      unique_by=lambda probe: probe[0]).map(
    lambda probes: tuple(CandidateQuestion(*p) for p in probes))
READ = st.one_of(
    st.builds(ScoreQuery, STUDENT, QUESTION, CONCEPTS),
    st.builds(ExplainQuery, STUDENT),
    st.builds(lambda s, q, c, p: WhatIfQuery(s, q, c,
                                             (HistoryEdit(p, "flip"),)),
              STUDENT, st.integers(1, NUM_QUESTIONS), CONCEPTS,
              st.integers(0, 4)),
    st.builds(lambda s, c: RecommendQuery(s, c, top_k=2, horizon=2),
              STUDENT, CANDIDATES),
    st.builds(lambda s, q, c, cands, lift: RecourseQuery(
        s, q, c, threshold=lift, max_edits=2, beam_width=2,
        candidates=cands),
        STUDENT, st.integers(1, NUM_QUESTIONS), CONCEPTS, CANDIDATES,
        st.sampled_from((0.3, 0.5, 0.9))))
ENVELOPE = st.lists(st.one_of(RECORD, RECORD, READ), min_size=1,
                    max_size=10)


class Worker:
    """Stand-in for one shard's worker process, and the router's
    backend for that shard: :meth:`kill` loses every in-memory state
    (calls then fail like a refused connection), :meth:`boot` starts a
    fresh ``Service`` from a checkpoint."""

    def __init__(self, path):
        self.service = None
        self.boot(path)

    def boot(self, path):
        self.service = Service.from_checkpoint(path)

    def kill(self):
        self.service = None

    def _live(self) -> Service:
        if self.service is None:
            raise ConnectionRefusedError("worker process is down")
        return self.service

    def execute_batch(self, queries):
        return self._live().execute_batch(queries)

    def health(self):
        return self._live().health()

    def models(self):
        return self._live().models()

    def rollout(self, checkpoint, model=DEFAULT_MODEL,
                warm_top=DEFAULT_WARM_TOP):
        return self._live().rollout(checkpoint, model=model,
                                    warm_top=warm_top)

    def close(self):
        if self.service is not None:
            self.service.close()


class ClusterMachine(RuleBasedStateMachine):
    """Drives one encoder; subclasses fix it."""

    encoder = "dkt"
    fired = set()

    @initialize(shards=st.integers(2, 3), seed=st.integers(0, 40),
                preload=st.lists(RECORD, max_size=12))
    def boot(self, shards, seed, preload):
        """Checkpoints A-C in a tmp dir, every shard on A."""
        self.atol = 0.0 if self.encoder == "dkt" else 1e-12
        self.tmp = tempfile.TemporaryDirectory()
        root = Path(self.tmp.name)
        self.paths = {}
        for offset, name in enumerate(CHECKPOINTS):
            self.paths[name] = root / f"{name}.npz"
            InferenceEngine(RCKT(NUM_QUESTIONS, NUM_CONCEPTS, RCKTConfig(
                encoder=self.encoder, dim=8, layers=1,
                seed=seed + 7 * offset))).save(self.paths[name])
        self.references = {name: Service.from_checkpoint(path)
                           for name, path in self.paths.items()}
        self.journal_dir = root / "journal"
        self.serving = ["A"] * shards
        self.acked = {}
        self._start(self._open_journal())
        self._envelope(preload)

    def teardown(self):
        if hasattr(self, "tmp"):
            self.router.close()
            self.journal.close()
            self.tmp.cleanup()

    # ------------------------------------------------------------------
    # Cluster plumbing
    # ------------------------------------------------------------------
    def _fire(self, name):
        type(self).fired.add(name)

    def _open_journal(self) -> RecordJournal:
        return RecordJournal(self.journal_dir, fsync="off",
                             segment_max_bytes=SEGMENT_BYTES)

    def _start(self, journal):
        """Fresh workers on the checkpoints the shards serve, a router
        over them, and the journal replayed into every shard."""
        self.journal = journal
        self.workers = [Worker(self.paths[name]) for name in self.serving]
        self.router = ScatterGatherRouter(self.workers, journal=journal)
        for shard, worker in enumerate(self.workers):
            self.journal.replay_into(shard, worker)

    def _shard_of(self, student) -> int:
        return self.router.ring.shard_for(student)

    def _shard_dir(self, shard) -> Path:
        return self.journal_dir / f"shard-{shard:04d}"

    # ------------------------------------------------------------------
    # The check
    # ------------------------------------------------------------------
    def _envelope(self, queries, down=()):
        """Route ``queries`` and check every reply against the
        reference for the checkpoint its shard serves.  Only slots of a
        ``down`` shard may answer ``shard_unavailable``, and their
        records are not acknowledged."""
        replies = self.router.execute_batch(queries)
        assert len(replies) == len(queries)
        kept = []
        for index, (query, reply) in enumerate(zip(queries, replies)):
            if isinstance(reply, ShardUnavailable):
                assert self._shard_of(query.student_id) in down, reply
                self._fire("outage_reply")
            else:
                kept.append(index)
        envelope = [queries[index] for index in kept]
        serving = set(self.serving)
        for name, reference in self.references.items():
            if name in serving:
                expected = dict(zip(kept, reference.execute_batch(envelope)))
            else:
                # Only the records: this checkpoint's history stays in
                # step without paying for reads nobody compares.
                reference.execute_batch(
                    [q for q in envelope if isinstance(q, RecordEvent)])
                continue
            for index in kept:
                query = queries[index]
                if self.serving[self._shard_of(query.student_id)] != name:
                    continue
                ours, theirs = to_wire(replies[index]), \
                    to_wire(expected[index])
                assert wire_equal(ours, theirs, self.atol), (ours, theirs)
        for index in kept:
            query, reply = queries[index], replies[index]
            if isinstance(reply, RecordReply):
                count = self.acked.get(query.student_id, 0) + 1
                assert reply.history_length == count, (reply, count)
                self.acked[query.student_id] = count
        return replies

    def _sweep(self):
        """Every student, one score each: replies match the references
        and every acknowledged record is still there."""
        replies = self._envelope([ScoreQuery(s, 3, (1,))
                                  for s in STUDENTS])
        for student, reply in zip(STUDENTS, replies):
            if student in self.acked:
                assert isinstance(reply, ScoreReply), reply
                assert reply.history_length == self.acked[student]
        health = self.router.health()
        assert health["status"] == "ok", health
        assert {entry["url"] for entry in health["shards"]} == {None}

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    @rule(queries=ENVELOPE)
    def envelope(self, queries):
        self._fire("envelope")
        self._envelope(queries)

    @rule(shard=st.integers(0, 2),
          outage=st.lists(st.one_of(RECORD, st.builds(
              ScoreQuery, STUDENT, QUESTION, CONCEPTS)), max_size=6))
    def crash(self, shard, outage):
        """The worker dies, traffic meets the outage, then the
        supervisor's recovery: drain, boot, replay, resume."""
        self._fire("crash")
        shard %= len(self.workers)
        self.workers[shard].kill()
        self._envelope(outage, down=(shard,))
        self.router.drain(shard)
        self.workers[shard].boot(self.paths[self.serving[shard]])
        self.journal.replay_into(shard, self.workers[shard])
        self.router.resume(shard)
        self._sweep()

    @rule(checkpoint=st.sampled_from(CHECKPOINTS),
          warm_top=st.sampled_from((0, 4, 64)))
    def rollout(self, checkpoint, warm_top):
        self._fire("rollout")
        results = self.router.rollout(self.paths[checkpoint],
                                      warm_top=warm_top)
        assert len(results) == len(self.workers)
        assert not any(is_error(result) for result in results), results
        self.serving = [checkpoint] * len(self.workers)
        self._sweep()

    @rule(shard=st.integers(0, 2),
          checkpoint=st.sampled_from(CHECKPOINTS))
    def rollout_with_drained_shard(self, shard, checkpoint):
        self._fire("rollout_with_drained_shard")
        shard %= len(self.workers)
        self.router.drain(shard)
        results = self.router.rollout(self.paths[checkpoint])
        assert len(results) == shard + 1, results
        assert isinstance(results[-1], ShardUnavailable), results
        assert not any(is_error(result) for result in results[:-1])
        self.serving[:shard] = [checkpoint] * shard
        self.router.resume(shard)
        self._sweep()

    def _acked_on(self, shard) -> int:
        return sum(count for student, count in self.acked.items()
                   if self._shard_of(student) == shard)

    @rule(shard=st.integers(0, 2))
    def snapshot(self, shard):
        self._fire("snapshot")
        shard %= len(self.workers)
        stats = self.journal.snapshot(shard)
        assert stats["entries"] == self._acked_on(shard), stats

    @rule(shard=st.integers(0, 2))
    def lingering_segments(self, shard):
        """A crash between the snapshot write and the segment unlink:
        the covered segments are still there at the next boot."""
        self._fire("lingering_segments")
        shard %= len(self.workers)
        saved = {path.name: path.read_bytes()
                 for path in list_segments(self._shard_dir(shard))}
        self.journal.snapshot(shard)
        for name, data in saved.items():
            (self._shard_dir(shard) / name).write_bytes(data)

    @rule(pick=st.integers(0, 2), cut=st.floats(0.0, 1.0))
    def cold_boot(self, pick, cut):
        """Every process dies mid-append; a new cluster boots from the
        journal directory alone."""
        self._fire("cold_boot")
        self.router.close()
        self.journal.close()
        live = [segments[-1] for segments in
                (list_segments(self._shard_dir(shard))
                 for shard in range(len(self.workers))) if segments]
        if live:
            self._fire("torn_tail")
            frame = encode_entry({"sequence": 1, "payload": to_wire(
                RecordEvent(STUDENTS[0], 1, 1, (1,)))})
            with open(live[pick % len(live)], "ab") as handle:
                handle.write(frame[:1 + int(cut * (len(frame) - 2))])
        self._start(self._open_journal())
        self._sweep()


def machine_for(encoder):
    # The class name seeds the derandomized draws.
    return type(f"ClusterMachine_{encoder}", (ClusterMachine,),
                {"encoder": encoder, "fired": set()})


def run_oracle(encoder, examples, steps):
    machine = machine_for(encoder)
    run_state_machine_as_test(machine, settings=settings(
        max_examples=examples, stateful_step_count=steps,
        derandomize=True, database=None, deadline=None,
        suppress_health_check=[HealthCheck.too_slow]))
    assert machine.fired == RULES | PATHS, (RULES | PATHS) - machine.fired


@pytest.mark.parametrize("encoder", ["dkt", "akt"])
def test_every_cluster_reply_matches_its_checkpoint_reference(encoder):
    run_oracle(encoder, examples=12, steps=40)


@pytest.mark.slow
@pytest.mark.parametrize("encoder", ["dkt", "akt"])
def test_long_cluster_oracle_runs_slow(encoder):
    run_oracle(encoder, examples=40, steps=60)
