"""Field rules fuzz: one hostile value in any query field is a value.

Each query type's valid wire payload gets one field — top-level or
inside an edit or candidate — replaced by a hostile JSON value, is
decoded, and rides a batch next to a healthy score.  Nothing may raise,
the sibling must still score, a rejected record must leave every
history alone, and no ok reply may carry a non-finite float (the
gateway would write it as non-standard JSON).
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RCKT, RCKTConfig
from repro.serve import (CandidateQuestion, ExplainQuery, HistoryEdit,
                         InferenceEngine, RecommendQuery, RecordEvent,
                         RecourseQuery, ScoreQuery, ScoreReply, Service,
                         WhatIfQuery, is_error, query_from_wire, to_wire)
from repro.serve.protocol import ERROR_TYPES

NUM_QUESTIONS = 20
NUM_CONCEPTS = 4
STUDENT = "amy"

MUTATIONS = ({}, [{}], [[1]], "x", 1.5, math.nan, math.inf, -math.inf,
             True, None, 10**30, -1)

_CANDIDATES = (CandidateQuestion(3, (1,)), CandidateQuestion(5, (2,)))
VALID = {
    "score": ScoreQuery(STUDENT, 3, (1,)),
    "explain": ExplainQuery(STUDENT),
    "what_if": WhatIfQuery(STUDENT, 3, (1,),
                           (HistoryEdit(0, "flip"),
                            HistoryEdit(1, "set", value=1))),
    "recommend": RecommendQuery(STUDENT, _CANDIDATES, top_k=2, horizon=2),
    "recourse": RecourseQuery(STUDENT, 7, (2,), threshold=0.9,
                              max_edits=2, beam_width=2,
                              candidates=_CANDIDATES),
    "record": RecordEvent(STUDENT, 3, 1, (1,)),
}


def field_paths(payload: dict) -> list:
    """Every mutable field of a wire payload, nested items included."""
    paths = []
    for key, value in payload.items():
        if key in ("v", "type"):
            continue
        paths.append((key,))
        if isinstance(value, list):
            for index, item in enumerate(value):
                if isinstance(item, dict):
                    paths.extend((key, index, sub) for sub in item
                                 if sub != "type")
    return paths


CASES = [(kind, path) for kind, query in sorted(VALID.items())
         for path in field_paths(to_wire(query))]


def mutated(kind: str, path: tuple, value):
    """The decoded query with ``path`` of the valid payload replaced."""
    payload = to_wire(VALID[kind])
    target = payload
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return query_from_wire(json.loads(json.dumps(payload)))


@pytest.fixture(scope="module")
def service():
    engine = InferenceEngine(RCKT(NUM_QUESTIONS, NUM_CONCEPTS, RCKTConfig(
        encoder="dkt", dim=8, layers=1, seed=5)))
    for question, correct in ((2, 0), (4, 1), (7, 0), (9, 1), (3, 0)):
        engine.record(STUDENT, question, correct, (1 + question % 4,))
    return Service(engine)


@settings(max_examples=600, derandomize=True, deadline=None)
@given(case=st.sampled_from(CASES), value=st.sampled_from(MUTATIONS))
def test_one_bad_field_is_a_value_and_spares_its_sibling(service, case,
                                                          value):
    kind, path = case
    query = mutated(kind, path, value)
    engine = service.engine()
    students, length = len(engine.students), engine.history_length(STUDENT)
    healthy = ScoreQuery(STUDENT, 5, (2,))
    replies = service.execute_batch([query, healthy])
    first, sibling = replies
    if is_error(first):
        assert type(first) in ERROR_TYPES.values()
        assert first.code != "internal_error", first
        if isinstance(query, RecordEvent):
            assert len(engine.students) == students
            assert engine.history_length(STUDENT) == length
    assert isinstance(sibling, ScoreReply)
    for reply in replies:
        if not is_error(reply):
            # allow_nan=False raises on any NaN or infinity in the reply.
            json.dumps(to_wire(reply), allow_nan=False)
