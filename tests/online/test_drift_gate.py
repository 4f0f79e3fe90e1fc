"""Drift gate: refusals are taxonomy values, the incumbent never moves."""

import pytest

from repro.core import RCKT, RCKTConfig
from repro.data import SimulationConfig, StudentSimulator, build_dataset
from repro.online import DriftGate, OnlineTrainer, auto_rollout
from repro.serve import (DEFAULT_MODEL, DEFAULT_WARM_TOP, InferenceEngine,
                         RecordEvent, RolloutRefused, ScoreQuery, Service,
                         is_error, to_wire)

NUM_QUESTIONS = 20
NUM_CONCEPTS = 5


def tiny_model(seed: int) -> RCKT:
    return RCKT(NUM_QUESTIONS, NUM_CONCEPTS,
                RCKTConfig(encoder="dkt", dim=8, layers=1, seed=seed))


@pytest.fixture(scope="module")
def corpus():
    simulator = StudentSimulator(SimulationConfig(
        num_students=24, num_questions=NUM_QUESTIONS,
        num_concepts=NUM_CONCEPTS, sequence_length=(10, 16)), seed=23)
    sequences = simulator.simulate()
    records = [RecordEvent(f"s-{sequence.student_id}",
                           interaction.question_id, interaction.correct,
                           interaction.concept_ids)
               for sequence in sequences for interaction in sequence]
    return sequences, records


@pytest.fixture(scope="module")
def trained_checkpoint(corpus, tmp_path_factory):
    """A checkpoint fine-tuned on the corpus: beats a random model."""
    sequences, _ = corpus
    tmp = tmp_path_factory.mktemp("gate")
    incumbent = tmp / "incumbent.npz"
    trained = tmp / "trained.npz"
    InferenceEngine(tiny_model(0)).save(incumbent)
    dataset = build_dataset("gate", sequences, NUM_QUESTIONS, NUM_CONCEPTS)
    trainer = OnlineTrainer(incumbent, epochs=4, seed=123)
    trainer.fine_tune(dataset)
    trainer.save(trained)
    return incumbent, trained


class TestGateDecision:
    def test_waives_below_min_events(self, corpus):
        _, records = corpus
        gate = DriftGate(records[:4], min_events=50)
        decision = gate.evaluate(tiny_model(0), tiny_model(9))
        assert decision.allowed
        assert "waived" in decision.reason
        assert gate.last_decision is decision

    def test_waives_on_single_class_stream(self):
        events = [RecordEvent("mono", q, 1, (1,)) for q in range(1, 15)]
        gate = DriftGate(events, min_events=5)
        decision = gate.evaluate(tiny_model(0), tiny_model(9))
        assert decision.allowed
        assert "single-class" in decision.reason
        assert decision.candidate_auc is None

    def test_refuses_a_degraded_candidate(self, corpus,
                                          trained_checkpoint):
        _, records = corpus
        _, trained = trained_checkpoint
        incumbent_engine = InferenceEngine.from_checkpoint(trained)
        gate = DriftGate(records, max_auc_drop=0.05, min_events=10)
        decision = gate.evaluate(incumbent_engine.model, tiny_model(9))
        assert not decision.allowed
        assert decision.delta < -0.05
        assert "refused" in decision.reason
        details = decision.to_details()
        assert details["events"] == len(records)
        assert details["threshold"] == 0.05

    def test_allows_an_improved_candidate(self, corpus,
                                          trained_checkpoint):
        _, records = corpus
        _, trained = trained_checkpoint
        candidate = InferenceEngine.from_checkpoint(trained)
        gate = DriftGate(records, max_auc_drop=0.05, min_events=10)
        decision = gate.evaluate(tiny_model(0), candidate.model)
        assert decision.allowed
        assert decision.delta > 0

    def test_validates_parameters(self, corpus):
        _, records = corpus
        with pytest.raises(ValueError):
            DriftGate(records, max_auc_drop=-0.1)
        with pytest.raises(ValueError):
            DriftGate(records, min_events=0)


class TestServiceRolloutGate:
    def test_refusal_is_returned_never_raised(self, corpus,
                                              trained_checkpoint,
                                              tmp_path):
        """Service.rollout(gate=...) must return the RolloutRefused
        value and leave the incumbent engine serving untouched."""
        _, records = corpus
        incumbent, trained = trained_checkpoint
        degraded = tmp_path / "degraded.npz"
        InferenceEngine(tiny_model(9)).save(degraded)

        service = Service.from_checkpoint(trained)
        try:
            service.execute_batch(records)
            incumbent_engine = service.engine()
            gate = DriftGate(records, max_auc_drop=0.05, min_events=10)
            verdict = service.rollout(degraded, gate=gate.service_gate())
            assert isinstance(verdict, RolloutRefused)
            assert verdict.code == "rollout_refused"
            assert verdict.detail("candidate_auc") \
                < verdict.detail("incumbent_auc")
            assert service.engine() is incumbent_engine
        finally:
            service.close()

    def test_allowed_gate_still_swaps_warm(self, corpus,
                                           trained_checkpoint):
        _, records = corpus
        incumbent, trained = trained_checkpoint
        service = Service.from_checkpoint(incumbent)
        try:
            service.execute_batch(records)
            # a few reads build stream caches, so the standby warms them
            service.execute_batch([ScoreQuery(r.student_id, 3, (1,))
                                   for r in records[:6]])
            gate = DriftGate(records, max_auc_drop=0.05, min_events=10)
            summary = service.rollout(trained, gate=gate.service_gate())
            assert not is_error(summary)
            assert summary["warmed"] > 0
            assert gate.last_decision.allowed
        finally:
            service.close()

    def test_refused_rollout_wire_form_is_protocol_v2(self):
        refused = RolloutRefused(message="drift", details={"delta": -0.2})
        wire = to_wire(refused)
        assert wire["type"] == "error"
        assert wire["code"] == "rollout_refused"
        assert wire["details"]["delta"] == -0.2


class TestAutoRollout:
    def test_service_target_round_trip(self, corpus, trained_checkpoint,
                                       tmp_path):
        _, records = corpus
        incumbent, trained = trained_checkpoint
        degraded = tmp_path / "degraded.npz"
        InferenceEngine(tiny_model(9)).save(degraded)
        service = Service.from_checkpoint(incumbent)
        try:
            service.execute_batch(records)
            gate = DriftGate(records, max_auc_drop=0.05, min_events=10)
            summary = auto_rollout(service, trained, gate)
            assert not is_error(summary)
            refused = auto_rollout(service, degraded, gate)
            assert isinstance(refused, RolloutRefused)
        finally:
            service.close()

    def test_non_service_target_needs_incumbent_model(self, corpus,
                                                      trained_checkpoint):
        _, records = corpus
        _, trained = trained_checkpoint
        gate = DriftGate(records, max_auc_drop=0.05, min_events=10)

        class FakeRouter:
            def __init__(self):
                self.shipped = []

            def rollout(self, checkpoint, model=DEFAULT_MODEL,
                        warm_top=DEFAULT_WARM_TOP):
                self.shipped.append((checkpoint, model, warm_top))
                return [{"status": "ok"}]

        router = FakeRouter()
        with pytest.raises(ValueError):
            auto_rollout(router, trained, gate)

        # allowed pre-check fans out; refused pre-check never ships
        summary = auto_rollout(router, trained, gate,
                               incumbent_model=tiny_model(0))
        assert summary == [{"status": "ok"}]
        trained_engine = InferenceEngine.from_checkpoint(trained)
        refused = auto_rollout(router, str(trained), gate, model="canary",
                               warm_top=8,
                               incumbent_model=trained_engine.model)
        # candidate == incumbent: zero drop is within any threshold
        assert not is_error(refused)
        # The named model and warm count reach the target's rollout.
        assert router.shipped == [
            (trained, DEFAULT_MODEL, DEFAULT_WARM_TOP),
            (str(trained), "canary", 8)]
