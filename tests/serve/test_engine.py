"""The serving engine behind the facade: history caching, seed-idiom
parity, checkpoints."""

import numpy as np
import pytest

from repro.core import RCKT, RCKTConfig
from repro.data import (Interaction, SimulationConfig, StudentSequence,
                        StudentSimulator, build_dataset, collate)
from repro.interpret import recommend_questions
from repro.serve import (CandidateQuestion, EmptyHistory, ExplainQuery,
                         InferenceEngine, InvalidConcept, InvalidQuestion,
                         RecommendQuery, RecordEvent, ScoreQuery, Service,
                         StudentHistory, UnknownStudent)


@pytest.fixture(scope="module")
def dataset():
    config = SimulationConfig(num_students=10, num_questions=50,
                              num_concepts=8, sequence_length=(5, 16))
    simulator = StudentSimulator(config, seed=5)
    return build_dataset("serve", simulator.simulate(seed=6),
                         config.num_questions, config.num_concepts)


@pytest.fixture(scope="module")
def model(dataset):
    return RCKT(dataset.num_questions, dataset.num_concepts,
                RCKTConfig(encoder="dkt", dim=8, layers=2, seed=3))


@pytest.fixture()
def engine(model, dataset):
    engine = InferenceEngine(model)
    engine.load_dataset(dataset)
    return engine


@pytest.fixture()
def service(engine):
    return Service(engine)


def score(service, student_id, question_id, concept_ids) -> float:
    reply = service.execute(ScoreQuery(student_id, question_id,
                                       tuple(concept_ids)))
    assert reply.ok, reply
    return reply.score


def seed_idiom_score(model, sequence, question_id, concept_ids):
    """The pre-engine serving path: one collated probe row per request."""
    probe = Interaction(question_id, 1, tuple(concept_ids))
    extended = StudentSequence(sequence.student_id,
                               list(sequence.interactions) + [probe])
    return model.predict_scores(collate([extended]),
                                np.array([len(extended) - 1]))[0]


class TestStudentHistory:
    def test_growth_past_initial_capacity(self):
        history = StudentHistory("s")
        for step in range(1, 2 * StudentHistory.INITIAL_CAPACITY + 2):
            history.append(step, step % 2, (1 + step % 3,))
        assert history.length == 2 * StudentHistory.INITIAL_CAPACITY + 1
        questions, responses, _, _ = history.view()
        assert questions[0] == 1 and questions[-1] == history.length
        assert responses.tolist() == [s % 2 for s in
                                      range(1, history.length + 1)]

    def test_concept_width_expands(self):
        history = StudentHistory("s")
        history.append(1, 1, (2,))
        history.append(2, 0, (1, 3, 4))
        _, _, concepts, counts = history.view()
        assert concepts.shape[1] == 3
        assert counts.tolist() == [1, 3]
        assert concepts[0].tolist() == [2, 0, 0]

    def test_validation(self):
        history = StudentHistory("s")
        with pytest.raises(ValueError):
            history.append(0, 1, (1,))
        with pytest.raises(ValueError):
            history.append(1, 2, (1,))
        with pytest.raises(ValueError):
            history.append(1, 1, ())


class TestScoring:
    def test_matches_seed_serving_idiom(self, service, model, dataset):
        for sequence in list(dataset)[:4]:
            reference = seed_idiom_score(model, sequence, 7, (3,))
            assert abs(score(service, sequence.student_id, 7, (3,))
                       - reference) < 1e-10

    def test_score_batch_mixed_students(self, service, model, dataset):
        sequences = list(dataset)
        queries = [ScoreQuery(s.student_id, 1 + k % 50, (1 + k % 8,))
                   for k, s in enumerate(sequences)]
        replies = service.execute_batch(queries)
        for query, reply, sequence in zip(queries, replies, sequences):
            reference = seed_idiom_score(model, sequence,
                                         query.question_id,
                                         query.concept_ids)
            assert abs(reply.score - reference) < 1e-10

    def test_empty_history_is_neutral(self, service):
        assert score(service, "brand-new", 3, (1,)) == 0.5

    def test_out_of_vocabulary_ids_rejected(self, engine, service):
        reply = service.execute(ScoreQuery("anyone", 9999, (1,)))
        assert isinstance(reply, InvalidQuestion)
        assert "question_id 9999" in reply.message
        reply = service.execute(ScoreQuery("anyone", 3, (999,)))
        assert isinstance(reply, InvalidConcept)
        assert "concept id 999" in reply.message
        with pytest.raises(ValueError, match="question_id 0"):
            engine.record("anyone", 0, 1, (1,))

    def test_read_paths_do_not_pollute_the_store(self, engine, service):
        before = len(engine.students)
        score(service, "who-is-this", 3, (1,))
        assert engine.history_length("who-is-this") == 0
        reply = service.execute(ExplainQuery("nor-this-one"))
        assert isinstance(reply, UnknownStudent)
        assert len(engine.students) == before

    def test_record_changes_scores(self, engine, service):
        before = score(service, "learner", 5, (2,))
        replies = service.execute_batch([RecordEvent("learner", 5, 1, (2,))
                                         for _ in range(4)])
        after = score(service, "learner", 5, (2,))
        assert [reply.history_length for reply in replies] == [1, 2, 3, 4]
        assert engine.history_length("learner") == 4
        assert before == 0.5 and after != before


class TestCheckpointRoundtrip:
    def test_scores_survive_save_load(self, engine, service, dataset,
                                      tmp_path):
        path = tmp_path / "engine.npz"
        engine.save(path)
        restored = InferenceEngine.from_checkpoint(path)
        restored.load_dataset(dataset)
        student = list(dataset)[0].student_id
        assert score(Service(restored), student, 7, (3,)) == \
            score(service, student, 7, (3,))

    def test_missing_metadata_rejected(self, model, tmp_path):
        from repro.utils import save_checkpoint
        path = tmp_path / "bare.npz"
        save_checkpoint(path, model.state_dict(), {"config":
                                                   model.config.__dict__})
        with pytest.raises(ValueError, match="engine metadata"):
            InferenceEngine.from_checkpoint(path)


class TestInterpretation:
    def test_influences_endpoint(self, service, dataset):
        sequence = next(s for s in dataset if len(s) >= 4)
        reply = service.execute(ExplainQuery(sequence.student_id))
        assert 0.0 < reply.score < 1.0
        assert len(reply.influences) == len(sequence) - 1

    def test_influences_need_history(self, engine, service):
        engine.record("brand-new-2", 3, 1, (1,))
        reply = service.execute(ExplainQuery("brand-new-2"))
        assert isinstance(reply, EmptyHistory)
        assert "at least two" in reply.message

    def test_recommend_matches_seed_implementation(self, service, model,
                                                   dataset):
        sequence = next(s for s in dataset if len(s) >= 6)
        candidates = tuple(CandidateQuestion(q, (1 + q % 8,))
                           for q in (3, 11, 27, 40))
        batched = service.execute(RecommendQuery(
            sequence.student_id, candidates, top_k=4)).items
        probes = [Interaction(c.question_id, 1, c.concept_ids)
                  for c in candidates]
        reference = recommend_questions(model, sequence, probes, top_k=4)
        assert [r.question_id for r in batched] == \
            [r.question_id for r in reference]
        for mine, ref in zip(batched, reference):
            assert abs(mine.score - ref.score) < 1e-10
            assert abs(mine.success_probability
                       - ref.success_probability) < 1e-10
            assert abs(mine.value - ref.value) < 1e-10
