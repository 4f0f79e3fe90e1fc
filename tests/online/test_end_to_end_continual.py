"""The closed serve→train loop against a real multi-process cluster.

One compact end-to-end test (the thread-level pieces are covered by the
rest of ``tests/online``): boot a supervisor-spawned two-shard cluster
with a durable journal, stream synthetic traffic through the router,
replay the journal into the online trainer, ship the refreshed
checkpoint back through a drift-gated warm rollout, and prove the
post-refresh cluster is parity-consistent with an in-process Service
on the refreshed checkpoint — then prove a degraded checkpoint is
refused as a value.
"""

from repro.cluster import RecordJournal, Supervisor, WorkerSpec, free_port
from repro.core import RCKT, RCKTConfig
from repro.data import SimulationConfig, StudentSimulator, \
    dataset_from_records
from repro.online import DriftGate, OnlineTrainer, auto_rollout, \
    prequential_run
from repro.serve import (DEFAULT_MODEL, InferenceEngine, RecordEvent,
                         RolloutRefused, ScoreQuery, Service, is_error,
                         to_wire)

NUM_QUESTIONS = 20
NUM_CONCEPTS = 5


def tiny_engine(seed: int) -> InferenceEngine:
    return InferenceEngine(RCKT(NUM_QUESTIONS, NUM_CONCEPTS,
                                RCKTConfig(encoder="dkt", dim=8, layers=1,
                                           seed=seed)))


def test_continual_loop_from_journal_to_gated_rollout(tmp_path):
    incumbent_path = tmp_path / "incumbent.npz"
    refreshed_path = tmp_path / "refreshed.npz"
    degraded_path = tmp_path / "degraded.npz"
    tiny_engine(2).save(incumbent_path)
    tiny_engine(9).save(degraded_path)

    simulator = StudentSimulator(SimulationConfig(
        num_students=16, num_questions=NUM_QUESTIONS,
        num_concepts=NUM_CONCEPTS, sequence_length=(10, 16)), seed=31)
    sequences = simulator.simulate()
    events = [RecordEvent(f"live-{sequence.student_id}",
                          interaction.question_id, interaction.correct,
                          interaction.concept_ids)
              for sequence in sequences for interaction in sequence]
    probes = [ScoreQuery(f"live-{sequence.student_id}", 7, (2,))
              for sequence in sequences]

    journal = RecordJournal(tmp_path / "journal", fsync="off")
    specs = [WorkerSpec(shard_id=shard, port=free_port(),
                        checkpoints=[(DEFAULT_MODEL, str(incumbent_path))],
                        log_path=str(tmp_path / f"worker{shard}.log"))
             for shard in range(2)]
    supervisor = Supervisor(specs, journal=journal)
    supervisor.start()
    router = supervisor.router
    try:
        # Live traffic: every acknowledged record lands in the journal.
        for reply in router.execute_batch(events):
            assert not is_error(reply)
        assert journal.total() == len(events)

        # The trainer cold-boots the journal from the directory alone.
        replayer = RecordJournal(tmp_path / "journal", fsync="off")
        records = replayer.replay_records()
        replayer.close()
        assert len(records) == len(events)

        # Prequential baseline on the incumbent (also builds the
        # reference histories used for parity below).
        incumbent_service = Service.from_checkpoint(incumbent_path)
        baseline = prequential_run(incumbent_service, records)
        assert baseline.events == len(records)

        # Fine-tune the incumbent on the replayed stream.
        trainer = OnlineTrainer(incumbent_path, epochs=4, seed=123)
        dataset = dataset_from_records(records, trainer.num_questions,
                                       trainer.num_concepts)
        assert trainer.fine_tune(dataset)["batches"] > 0
        trainer.save(refreshed_path)

        # Drift-gated warm rollout across the cluster.
        gate = DriftGate(records, max_auc_drop=0.05, min_events=10)
        summaries = auto_rollout(
            router, str(refreshed_path), gate,
            incumbent_model=incumbent_service.engine().model)
        assert isinstance(summaries, list)
        assert not any(is_error(summary) for summary in summaries)
        assert gate.last_decision.allowed
        incumbent_service.close()

        # Post-refresh parity: the cluster must answer exactly like an
        # in-process Service on the refreshed checkpoint that saw the
        # same stream (dkt is bit-exact across process boundaries).
        reference = Service.from_checkpoint(refreshed_path)
        try:
            for reply in reference.execute_batch(records):
                assert not is_error(reply)
            ours = [to_wire(reply)
                    for reply in router.execute_batch(probes)]
            theirs = [to_wire(reply)
                      for reply in reference.execute_batch(probes)]
            assert ours == theirs

            # A degraded candidate is refused as a value — the cluster
            # keeps serving the refreshed weights untouched.
            refused = auto_rollout(router, str(degraded_path), gate,
                                   incumbent_model=reference.engine().model)
            assert isinstance(refused, RolloutRefused)
            assert refused.code == "rollout_refused"
            assert not gate.last_decision.allowed
            after = [to_wire(reply)
                     for reply in router.execute_batch(probes)]
            assert after == ours
        finally:
            reference.close()
    finally:
        supervisor.stop()
        journal.close()
