"""Long-context serving: the 128-step ceiling is gone.

Two regimes, both exercised against literal truncate-and-recollate
references:

* **No window** — positional tables grow on demand, so arbitrarily long
  histories record and score exactly (the seed failed deep inside the
  positional-encoding lookup past 128 steps).
* **Windowed** — ``InferenceEngine(window=W, window_hop=H)`` bounds every
  score's context to the student's anchored window slice; scores equal a
  full recompute on that slice to 1e-10, for any interleaving of
  ``record``/``score`` and regardless of cache warmth, eviction, or
  re-anchoring.
"""

import numpy as np
import pytest

from repro.core import ENCODERS, RCKT, RCKTConfig, score_batch_targets
from repro.core.masking import window_start
from repro.data import Interaction, StudentSequence, collate
from repro.interpret import recommend_questions
from repro.serve import (CandidateQuestion, ExplainQuery, InferenceEngine,
                         RecommendQuery, ScoreQuery, is_error)
from repro.tensor import no_grad

ATOL = 1e-10

NUM_QUESTIONS = 30
NUM_CONCEPTS = 6


def make_model(encoder, **overrides):
    settings = dict(dim=8, layers=2, seed=11)
    settings.update(overrides)
    return RCKT(NUM_QUESTIONS, NUM_CONCEPTS,
                RCKTConfig(encoder=encoder, **settings))


def synthetic_events(count, seed=0):
    rng = np.random.default_rng(seed)
    questions = rng.integers(1, NUM_QUESTIONS + 1, size=count)
    answers = rng.integers(0, 2, size=count)
    concepts = rng.integers(1, NUM_CONCEPTS + 1, size=count)
    return [(int(q), int(a), (int(c),))
            for q, a, c in zip(questions, answers, concepts)]


def truncated_recompute(model, events, probe, window, hop):
    """Score ``probe`` against the anchored window slice, from scratch."""
    start = window_start(len(events), window, hop) if window else 0
    interactions = [Interaction(q, a, c) for q, a, c in events[start:]]
    question_id, concept_ids = probe
    interactions.append(Interaction(question_id, 1, concept_ids))
    batch = collate([StudentSequence("ref", interactions)])
    model.eval()
    with no_grad():
        return score_batch_targets(model, batch,
                                   np.array([len(interactions) - 1]))[0]


def score(engine, student, question_id, concept_ids) -> float:
    """Single score through the typed facade."""
    reply = engine.service.execute(ScoreQuery(student, question_id,
                                              tuple(concept_ids)))
    assert not is_error(reply), reply
    return reply.score


def score_many(engine, queries) -> np.ndarray:
    replies = engine.service.execute_batch(queries)
    assert not any(is_error(reply) for reply in replies), replies
    return np.array([reply.score for reply in replies])


@pytest.mark.parametrize("encoder", ENCODERS)
def test_thousand_step_student_scores_to_parity(encoder):
    """The acceptance workload: record 1000+ steps, score windowed."""
    window, hop = 32, 8
    model = make_model(encoder, layers=1)
    engine = InferenceEngine(model, window=window, window_hop=hop)
    events = synthetic_events(1010, seed=3)
    probes = {100, 500, 1000, 1009}
    for step, (question, answer, concepts) in enumerate(events, start=1):
        engine.record("s", question, answer, concepts)
        if step in probes:
            got = score(engine, "s", 7, (2,))
            want = truncated_recompute(model, events[:step], (7, (2,)),
                                       window, hop)
            assert abs(got - want) < ATOL
    assert engine.history_length("s") == 1010


@pytest.mark.parametrize("encoder", ENCODERS)
def test_window_boundary_lengths(encoder):
    """Histories of exactly W-1, W, W+1 (and a hop later) all agree."""
    window, hop = 16, 4
    model = make_model(encoder)
    cached = InferenceEngine(model, window=window, window_hop=hop)
    events = synthetic_events(window + hop + 2, seed=5)
    boundary = {window - 1, window, window + 1, window + hop + 1}
    for step, (question, answer, concepts) in enumerate(events, start=1):
        cached.record("s", question, answer, concepts)
        if step in boundary:
            want = truncated_recompute(model, events[:step], (9, (3,)),
                                       window, hop)
            assert abs(score(cached, "s", 9, (3,)) - want) < ATOL


def test_eviction_straddling_the_window_boundary():
    """LRU eviction while the window slides must stay score-invisible."""
    window, hop = 12, 3
    model = make_model("dkt")
    # A budget this small evicts constantly, including exactly around
    # the re-anchoring records where the cache is discarded and rebuilt.
    tiny = InferenceEngine(model, window=window, window_hop=hop,
                           stream_cache_bytes=4096)
    events = synthetic_events(3 * window, seed=7)
    for student in ("a", "b", "c"):
        for step, (question, answer, concepts) in enumerate(events, start=1):
            tiny.record(student, question, answer, concepts)
            if window - 2 <= step <= window + hop + 1 or step % 9 == 0:
                got = score(tiny, student, 4, (1,))
                want = truncated_recompute(model, events[:step], (4, (1,)),
                                           window, hop)
                assert abs(got - want) < ATOL
    assert tiny.stream_cache_stats()["evictions"] > 0


@pytest.mark.parametrize("encoder", ENCODERS)
def test_interleaved_record_score_windowed_parity(encoder):
    """Random interleavings across students: cached == truncated
    recompute, while windows slide at different phases."""
    window, hop = 10, 4
    model = make_model(encoder, layers=1)
    cached = InferenceEngine(model, window=window, window_hop=hop)
    rng = np.random.default_rng(13)
    logs = {student: [] for student in range(3)}
    for turn in range(90):
        student = int(rng.integers(0, 3))
        if rng.random() < 0.3 and logs[student]:
            probe = (int(rng.integers(1, NUM_QUESTIONS + 1)),
                     (int(rng.integers(1, NUM_CONCEPTS + 1)),))
            got = score(cached, student, probe[0], probe[1])
            want = truncated_recompute(model, logs[student], probe,
                                       window, hop)
            assert abs(got - want) < ATOL
        else:
            event = synthetic_events(1, seed=1000 + turn)[0]
            logs[student].append(event)
            cached.record(student, *event)
    queries = [ScoreQuery(student, 5, (2,)) for student in range(3)]
    np.testing.assert_allclose(
        score_many(cached, queries),
        [truncated_recompute(model, logs[student], (5, (2,)), window, hop)
         for student in range(3)], atol=ATOL)


@pytest.mark.parametrize("encoder", ["sakt", "akt"])
def test_past_initial_positional_capacity_without_window(encoder):
    """Regression: the seed raised deep inside the positional-encoding
    lookup once a history crossed MAX_ENCODED_LENGTH=128; tables now
    grow on demand and the incremental cache tracks the batch path."""
    model = make_model(encoder, layers=1)
    cached = InferenceEngine(model)
    events = synthetic_events(140, seed=9)
    for question, answer, concepts in events:
        cached.record("s", question, answer, concepts)
    want = truncated_recompute(model, events, (3, (2,)), None, None)
    assert abs(score(cached, "s", 3, (2,)) - want) < ATOL


def test_windowed_influences_and_recommend_cover_the_window():
    """Explain and recommend condition on the anchored window only; each
    recommendation item matches the seed implementation on that slice,
    value worlds included."""
    window, hop = 8, 2
    events = synthetic_events(30, seed=21)
    start = window_start(len(events), window, hop)
    window_slice = StudentSequence(
        "s", [Interaction(q, a, c) for q, a, c in events[start:]])
    candidates = (CandidateQuestion(4, (1,)), CandidateQuestion(9, (2,)),
                  CandidateQuestion(17, (3, 5)))
    probes = [Interaction(c.question_id, 1, c.concept_ids)
              for c in candidates]
    for encoder in ("dkt", "akt"):
        model = make_model(encoder)
        engine = InferenceEngine(model, window=window, window_hop=hop)
        for question, answer, concepts in events:
            engine.record("s", question, answer, concepts)
        reply = engine.service.execute(ExplainQuery("s"))
        assert not is_error(reply), reply
        # The influence readout conditions on the windowed context only.
        assert len(reply.influences) <= window
        assert len(reply.influences) > window - hop - 1
        recommended = engine.service.execute(RecommendQuery(
            "s", candidates, top_k=3))
        assert not is_error(recommended), recommended
        reference = recommend_questions(model, window_slice, probes,
                                        top_k=3)
        assert [item.question_id for item in recommended.items] \
            == [ref.question_id for ref in reference], encoder
        for item, ref in zip(recommended.items, reference):
            assert abs(item.success_probability
                       - ref.success_probability) < ATOL, encoder
            assert abs(item.value - ref.value) < ATOL, encoder
            assert abs(item.score - ref.score) < ATOL, encoder


def test_window_validation():
    model = make_model("dkt")
    with pytest.raises(ValueError):
        InferenceEngine(model, window=1)
    with pytest.raises(ValueError):
        InferenceEngine(model, window=8, window_hop=8)
    with pytest.raises(ValueError):
        InferenceEngine(model, window=8, window_hop=0)
    with pytest.raises(ValueError):
        InferenceEngine(model, window_hop=4)  # hop without window
    engine = InferenceEngine(model, window=8)
    assert engine.window_hop == 1  # max(1, 8 // 8)
    assert InferenceEngine(model, window=64).window_hop == 8


def test_windowed_checkpoint_roundtrip(tmp_path):
    window, hop = 8, 2
    model = make_model("dkt")
    engine = InferenceEngine(model, window=window, window_hop=hop)
    events = synthetic_events(20, seed=17)
    for question, answer, concepts in events:
        engine.record("s", question, answer, concepts)
    path = tmp_path / "ckpt.npz"
    engine.save(path)
    reloaded = InferenceEngine.from_checkpoint(path, window=window,
                                               window_hop=hop)
    for question, answer, concepts in events:
        reloaded.record("s", question, answer, concepts)
    assert abs(score(engine, "s", 5, (2,))
               - score(reloaded, "s", 5, (2,))) < ATOL
