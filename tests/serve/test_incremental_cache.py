"""Incremental forward-stream cache correctness.

The serving engine's warm-cache fast path must be *score-invisible*: any
interleaving of ``record()`` / ``score()`` calls — including LRU
evictions mid-stream — produces the scores the offline scorer computes
from scratch on each student's recorded history
(:func:`test_long_context.truncated_recompute`).  Hypothesis drives the
interleavings; the explicit tests pin the cache-lifecycle edges.
``test_oracle.py`` extends the same check to every query type.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_long_context import truncated_recompute

from repro.core import ENCODERS, RCKT, RCKTConfig
from repro.data import (SimulationConfig, StudentSimulator, build_dataset)
from repro.serve import InferenceEngine, RecordEvent, ScoreQuery, is_error

ATOL = 1e-10

NUM_QUESTIONS = 30
NUM_CONCEPTS = 6


def make_model(encoder="dkt", **overrides):
    settings_ = dict(dim=8, layers=2, seed=11)
    settings_.update(overrides)
    return RCKT(NUM_QUESTIONS, NUM_CONCEPTS,
                RCKTConfig(encoder=encoder, **settings_))


def make_dataset(num_students=6, seed=9):
    config = SimulationConfig(num_students=num_students,
                              num_questions=NUM_QUESTIONS,
                              num_concepts=NUM_CONCEPTS,
                              sequence_length=(3, 10))
    simulator = StudentSimulator(config, seed=seed)
    return build_dataset("cache", simulator.simulate(seed=seed + 1),
                         NUM_QUESTIONS, NUM_CONCEPTS)


def offline(model, events, question_id, concept_ids) -> float:
    """The offline score of a probe after ``events`` (no window)."""
    return truncated_recompute(model, events, (question_id, concept_ids),
                               None, None)


def score(engine, student, question_id, concept_ids) -> float:
    """Single score through the typed facade; an error value surfaces
    as a ValueError carrying its message (the same text ``record``
    raises — both paths share _id_error)."""
    reply = engine.service.execute(ScoreQuery(student, question_id,
                                              tuple(concept_ids)))
    if is_error(reply):
        raise ValueError(reply.message)
    return reply.score


def score_many(engine, queries) -> np.ndarray:
    replies = engine.service.execute_batch(queries)
    for reply in replies:
        if is_error(reply):
            raise ValueError(reply.message)
    return np.array([reply.score for reply in replies])


# Each event: (student, question, correct, concept, is_score_probe)
EVENT = st.tuples(st.integers(0, 3), st.integers(1, NUM_QUESTIONS),
                  st.integers(0, 1), st.integers(1, NUM_CONCEPTS),
                  st.booleans())


class TestInterleavedParityProperty:
    @settings(max_examples=20, deadline=None, derandomize=True,
              database=None)
    @given(events=st.lists(EVENT, min_size=1, max_size=25))
    def test_dkt_interleavings_match_cold_engine(self, events):
        self.run_interleaving(make_model("dkt"), events)

    @settings(max_examples=6, deadline=None, derandomize=True,
              database=None)
    @given(events=st.lists(EVENT, min_size=1, max_size=18))
    def test_sakt_interleavings_match_cold_engine(self, events):
        self.run_interleaving(make_model("sakt"), events)

    @settings(max_examples=6, deadline=None, derandomize=True,
              database=None)
    @given(events=st.lists(EVENT, min_size=1, max_size=18))
    def test_akt_interleavings_match_cold_engine(self, events):
        self.run_interleaving(make_model("akt"), events)

    @settings(max_examples=8, deadline=None, derandomize=True,
              database=None)
    @given(events=st.lists(EVENT, min_size=1, max_size=20))
    def test_tiny_lru_budget_never_changes_scores(self, events):
        # A budget this small evicts constantly; only throughput may
        # suffer, never scores.
        self.run_interleaving(make_model("dkt"), events,
                              stream_cache_bytes=4096)

    @settings(max_examples=8, deadline=None, derandomize=True,
              database=None)
    @given(events=st.lists(EVENT, min_size=1, max_size=20))
    def test_mono_ablation_single_base_cache(self, events):
        self.run_interleaving(make_model("dkt", use_monotonicity=False),
                              events)

    @staticmethod
    def run_interleaving(model, events, **cached_kwargs):
        warm = InferenceEngine(model, **cached_kwargs)
        logs = {student: [] for student in range(4)}
        for student, question, correct, concept, is_probe in events:
            if is_probe:
                got = score(warm, student, question, (concept,))
                expected = offline(model, logs[student], question,
                                   (concept,))
                assert abs(got - expected) < ATOL
            else:
                warm.record(student, question, correct, (concept,))
                logs[student].append((question, correct, (concept,)))
        # Final sweep: every student's next-step probe must agree too.
        queries = [ScoreQuery(s, 5, (2,)) for s in range(4)]
        np.testing.assert_allclose(
            score_many(warm, queries),
            [offline(model, logs[s], 5, (2,)) for s in range(4)],
            rtol=0, atol=ATOL)


@pytest.mark.parametrize("encoder", ENCODERS)
class TestCacheLifecycle:
    def test_warm_path_actually_serves_hits(self, encoder):
        engine = InferenceEngine(make_model(encoder))
        for step in range(4):
            engine.record("s", 1 + step, step % 2, (1 + step % 5,))
        score(engine, "s", 7, (3,))   # cold: builds the cache
        score(engine, "s", 9, (2,))   # warm: must hit
        stats = engine.stream_cache_stats()
        assert stats["entries"] == 1
        assert stats["hits"] >= 1 and stats["misses"] >= 1

    def test_record_extends_instead_of_rebuilding(self, encoder):
        engine = InferenceEngine(make_model(encoder))
        engine.record("s", 3, 1, (1,))
        score(engine, "s", 7, (3,))
        misses_after_build = engine.stream_cache_stats()["misses"]
        engine.record("s", 4, 0, (2,))
        score(engine, "s", 7, (3,))
        assert engine.stream_cache_stats()["misses"] == misses_after_build

    def test_eviction_mid_stream_recovers(self, encoder):
        model = make_model(encoder)
        warm = InferenceEngine(model, stream_cache_bytes=1)
        events = [(1 + step, step % 2, (1 + step,)) for step in range(4)]
        for student in range(3):
            for event in events:
                warm.record(student, *event)
        queries = [ScoreQuery(s, 6, (2,)) for s in range(3)]
        np.testing.assert_allclose(score_many(warm, queries),
                                   [offline(model, events, 6, (2,))] * 3,
                                   rtol=0, atol=ATOL)
        stats = warm.stream_cache_stats()
        assert stats["evictions"] >= 1
        assert stats["entries"] == 0   # budget of 1 byte keeps nothing

    def test_bulk_load_invalidates_stale_cache(self, encoder):
        model = make_model(encoder)
        dataset = make_dataset()
        warm = InferenceEngine(model)
        warm.load_dataset(dataset)
        sequence = list(dataset)[0]
        score(warm, sequence.student_id, 5, (1,))   # builds a cache
        warm.load_dataset(dataset)            # appends: cache is stale
        events = [(i.question_id, i.correct, i.concept_ids)
                  for i in sequence.interactions] * 2
        assert abs(score(warm, sequence.student_id, 5, (1,))
                   - offline(model, events, 5, (1,))) < ATOL


class TestValidationHardening:
    def test_record_rejects_out_of_vocab_without_poisoning(self):
        engine = InferenceEngine(make_model())
        engine.record("s", 1, 1, (1,))
        before = score(engine, "s", 3, (1,))
        with pytest.raises(ValueError, match="question_id"):
            engine.record("s", NUM_QUESTIONS + 1, 1, (1,))
        with pytest.raises(ValueError, match="concept id"):
            engine.record("s", 1, 1, (NUM_CONCEPTS + 1,))
        with pytest.raises(ValueError, match="correct must be 0 or 1"):
            engine.record("s", 1, 2, (1,))
        with pytest.raises(ValueError, match="non-empty"):
            engine.record("s", 1, 1, ())
        with pytest.raises(ValueError, match="non-empty"):
            score(engine, "s", 3, ())
        assert engine.history_length("s") == 1
        assert score(engine, "s", 3, (1,)) == before

    def test_float_and_bool_correct_record_like_one(self):
        # The record rule admits 1.0 and true (journals may hold them).
        # A warm cache used to index the response embedding with the
        # float, failing after the append and leaving it unjournaled.
        reference = InferenceEngine(make_model())
        for question, correct in ((4, 0), (2, 1), (5, 1)):
            reference.record("s", question, correct, (2,))
        expected = score(reference, "s", 3, (1,))
        warm = InferenceEngine(make_model())
        cold = InferenceEngine(make_model())
        uncached = InferenceEngine(make_model(), stream_cache_bytes=0)
        for engine in (warm, cold, uncached):
            engine.record("s", 4, 0, (2,))
        score(warm, "s", 3, (1,))
        assert warm.stream_cache_stats()["entries"] == 1
        for engine in (warm, cold, uncached):
            for length, (question, correct) in enumerate(
                    ((2, 1.0), (5, True)), start=2):
                reply = engine.service.execute(
                    RecordEvent("s", question, correct, (2,)))
                assert reply.ok and reply.history_length == length, reply
        for engine in (warm, cold, uncached):
            for ours, theirs in zip(engine.students.peek("s").view(),
                                    reference.students.peek("s").view()):
                assert ours.dtype == theirs.dtype
                assert ours.tolist() == theirs.tolist()
            assert abs(score(engine, "s", 3, (1,)) - expected) <= ATOL

    def test_negative_cache_budget_is_rejected(self):
        with pytest.raises(ValueError, match="budget must be >= 0"):
            InferenceEngine(make_model(), stream_cache_bytes=-1)

    def test_load_dataset_validates_before_loading_anything(self):
        # A model with a smaller vocabulary than the dataset was built
        # against: every sequence is out of range.
        small = RCKT(3, 2, RCKTConfig(encoder="dkt", dim=8, layers=1,
                                      seed=1))
        engine = InferenceEngine(small)
        dataset = make_dataset()
        with pytest.raises(ValueError, match="outside the"):
            engine.load_dataset(dataset)
        assert len(engine.students) == 0

    def test_score_and_record_report_the_same_error(self):
        engine = InferenceEngine(make_model())
        with pytest.raises(ValueError) as record_error:
            engine.record("s", NUM_QUESTIONS + 7, 1, (1,))
        with pytest.raises(ValueError) as score_error:
            score(engine, "s", NUM_QUESTIONS + 7, (1,))
        assert str(record_error.value) == str(score_error.value)


@pytest.mark.slow
@pytest.mark.parametrize("encoder", ENCODERS)
def test_long_interleaving_parity_slow(encoder):
    """Opt-in (pytest -m slow): hundreds of interleaved record/score
    events per encoder, with a mid-stream eviction-heavy budget."""
    rng = np.random.default_rng(31)
    model = make_model(encoder, dim=16)
    warm = InferenceEngine(model, stream_cache_bytes=64 * 1024)
    logs = {student: [] for student in range(8)}
    for step in range(300):
        student = int(rng.integers(0, 8))
        if rng.random() < 0.35:
            question = int(rng.integers(1, NUM_QUESTIONS + 1))
            concept = int(rng.integers(1, NUM_CONCEPTS + 1))
            got = score(warm, student, question, (concept,))
            expected = offline(model, logs[student], question, (concept,))
            assert abs(got - expected) < ATOL, f"step {step}"
        else:
            question = int(rng.integers(1, NUM_QUESTIONS + 1))
            correct = int(rng.integers(0, 2))
            concepts = tuple(sorted(set(
                int(c) for c in rng.integers(1, NUM_CONCEPTS + 1,
                                             size=rng.integers(1, 3)))))
            warm.record(student, question, correct, concepts)
            logs[student].append((question, correct, concepts))
