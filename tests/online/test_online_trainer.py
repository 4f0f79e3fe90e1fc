"""OnlineTrainer: incremental fine-tuning determinism and mechanics."""

import pytest

from repro.core import RCKT, RCKTConfig
from repro.data import (SimulationConfig, StudentSimulator, build_dataset,
                        dataset_from_records)
from repro.online import OnlineTrainer, prequential_run
from repro.serve import InferenceEngine, RecordEvent, Service
from repro.utils.checkpoint import load_checkpoint

NUM_QUESTIONS = 20
NUM_CONCEPTS = 5


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("online") / "incumbent.npz"
    engine = InferenceEngine(RCKT(NUM_QUESTIONS, NUM_CONCEPTS,
                                  RCKTConfig(encoder="dkt", dim=8,
                                             layers=1, seed=0)))
    engine.save(path)
    return path


@pytest.fixture(scope="module")
def corpus():
    simulator = StudentSimulator(SimulationConfig(
        num_students=14, num_questions=NUM_QUESTIONS,
        num_concepts=NUM_CONCEPTS, sequence_length=(8, 14)), seed=17)
    sequences = simulator.simulate()
    records = [RecordEvent(f"s-{sequence.student_id}",
                           interaction.question_id, interaction.correct,
                           interaction.concept_ids)
               for sequence in sequences for interaction in sequence]
    dataset = build_dataset("corpus", sequences, NUM_QUESTIONS,
                            NUM_CONCEPTS)
    return records, dataset


def state_bytes(model) -> dict:
    return {name: array.tobytes()
            for name, array in model.state_dict().items()}


def test_two_runs_same_seed_are_byte_identical(checkpoint, corpus,
                                               tmp_path):
    """The determinism contract: same checkpoint + seed + round order
    => byte-identical weights, checkpoints, and prequential metrics."""
    records, dataset = corpus
    outputs = []
    for run in range(2):
        trainer = OnlineTrainer(checkpoint, epochs=2, seed=77)
        trainer.fine_tune(dataset)
        trainer.fine_tune(dataset)           # second round, same data
        path = tmp_path / f"run-{run}.npz"
        trainer.save(path)
        outputs.append((state_bytes(trainer.model), path))
    assert outputs[0][0] == outputs[1][0]
    first_state, _ = load_checkpoint(outputs[0][1])
    second_state, _ = load_checkpoint(outputs[1][1])
    assert sorted(first_state) == sorted(second_state)
    for name in first_state:
        assert first_state[name].tobytes() == second_state[name].tobytes()

    # ... and the prequential trajectories over the refreshed
    # checkpoints are identical, point for point.
    trajectories = []
    for _, path in outputs:
        service = Service.from_checkpoint(path)
        try:
            trajectories.append(
                prequential_run(service, records,
                                checkpoint_every=30).to_dict())
        finally:
            service.close()
    assert trajectories[0] == trajectories[1]


def test_different_seeds_diverge(checkpoint, corpus):
    records, dataset = corpus
    states = []
    for seed in (1, 2):
        trainer = OnlineTrainer(checkpoint, seed=seed)
        trainer.fine_tune(dataset)
        states.append(state_bytes(trainer.model))
    assert states[0] != states[1]


def test_rounds_advance_and_optimizer_state_persists(checkpoint, corpus):
    _, dataset = corpus
    trainer = OnlineTrainer(checkpoint, seed=5)
    first = trainer.fine_tune(dataset)
    after_one = state_bytes(trainer.model)
    second = trainer.fine_tune(dataset)
    assert (first["round"], second["round"]) == (0, 1)
    assert first["batches"] > 0 and second["batches"] > 0
    assert first["mean_loss"] is not None
    # round 2 keeps training (weights move again from round 1's)
    assert state_bytes(trainer.model) != after_one
    # serving-ready afterwards
    assert not trainer.model.training


def test_fine_tune_accepts_journal_shaped_records(checkpoint, corpus):
    records, _ = corpus
    trainer = OnlineTrainer(checkpoint, seed=3)
    dataset = dataset_from_records(records, trainer.num_questions,
                                   trainer.num_concepts)
    summary = trainer.fine_tune(dataset)
    assert summary["sequences"] == len(dataset) > 0
    assert summary["batches"] > 0


def test_empty_round_is_a_no_op(checkpoint):
    empty = build_dataset("empty", [], NUM_QUESTIONS, NUM_CONCEPTS)
    trainer = OnlineTrainer(checkpoint, seed=3)
    before = state_bytes(trainer.model)
    summary = trainer.fine_tune(empty)
    assert summary["batches"] == 0
    assert summary["mean_loss"] is None
    assert state_bytes(trainer.model) == before


def test_config_overrides_and_validation(checkpoint):
    trainer = OnlineTrainer(checkpoint, lr=1e-4, batch_size=8,
                            targets_per_sequence=1, seed=9)
    assert trainer.lr == 1e-4
    assert trainer.batch_size == 8
    assert trainer.targets_per_sequence == 1
    assert trainer.optimizer.lr == 1e-4
    with pytest.raises(ValueError):
        OnlineTrainer(checkpoint, epochs=0)
