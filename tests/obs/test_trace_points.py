"""perfbench's trace points still see every stage of the serving stack.

``perfbench/trace.py`` books stage time by wrapping six entry points
(``ENTRY_POINTS``).  A renamed entry point, or a code path that reaches
a stage around it (say, a world builder calling
``forward_cache.build_stream_caches`` directly), would silently drop
that stage from the benchmark's ledger.  One envelope holding a record
and every read type runs inside ``instrument``, and every span must
fire.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT))

from perfbench.trace import ENTRY_POINTS, Tracer, instrument  # noqa: E402
from repro.core import RCKT, RCKTConfig  # noqa: E402
from repro.serve import (CandidateQuestion, ExplainQuery,  # noqa: E402
                         HistoryEdit, InferenceEngine, RecommendQuery,
                         RecordEvent, RecourseQuery, ScoreQuery, Service,
                         WhatIfQuery)

HISTORY = [(3, 1, (1,)), (7, 0, (2,)), (12, 1, (1, 3)), (9, 0, (4,)),
           (15, 1, (2,)), (5, 0, (1,))]
TARGET = (18, (2,))
CANDIDATES = (CandidateQuestion(6, (1,)), CandidateQuestion(24, (3,)))


def test_one_envelope_fires_every_trace_point():
    engine = InferenceEngine(RCKT(30, 5, RCKTConfig(encoder="akt", dim=8,
                                                    layers=1, seed=3)))
    for question, correct, concepts in HISTORY:
        engine.record("kai", question, correct, concepts)
    service = Service(engine)
    tracer = Tracer()
    with instrument(tracer):
        replies = service.execute_batch([
            RecordEvent("kai", 4, 0, (2,)),
            ScoreQuery("kai", *TARGET),
            ExplainQuery("kai"),
            WhatIfQuery("kai", *TARGET, (HistoryEdit(1, "flip"),)),
            RecommendQuery("kai", CANDIDATES, horizon=2),
            RecourseQuery("kai", *TARGET, threshold=0.99, max_edits=2,
                          beam_width=2, candidates=CANDIDATES),
        ])
    assert all(reply.ok for reply in replies), replies
    fired = {span["name"] for span in tracer.spans}
    assert fired == {point[3] for point in ENTRY_POINTS}
