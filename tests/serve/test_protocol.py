"""Wire codec and typed-value semantics of the query protocol (v2+v1)."""

import dataclasses
import itertools
import json

import pytest

from repro.serve import protocol
from repro.serve.protocol import (PROTOCOL_VERSION,
                                  SUPPORTED_PROTOCOL_VERSIONS,
                                  BatchEnvelope, CandidateQuestion,
                                  ExplainReply, HistoryEdit, InfluenceItem,
                                  InvalidEdit, InvalidQuestion,
                                  MalformedQuery, QUERY_TYPES,
                                  RecommendQuery, RecommendReply,
                                  RecommendationItem, RecordEvent,
                                  RecordReply, RecourseQuery, RecourseReply,
                                  RecourseStep, ScoreQuery, ScoreReply,
                                  UnknownQueryType, UnknownStudent,
                                  UnsupportedVersion, WhatIfQuery,
                                  WhatIfReply, admission_error,
                                  capabilities, is_error,
                                  negotiated_version, query_from_wire,
                                  query_types_for, reply_from_wire,
                                  to_wire)

QUERIES = [
    ScoreQuery("amy", 7, (3, 4)),
    ScoreQuery(17, 2, (1,), model="canary"),
    protocol.ExplainQuery("amy"),
    WhatIfQuery("amy", 7, (3,), (HistoryEdit(0, "flip"),
                                 HistoryEdit(2, "set", value=1),
                                 HistoryEdit(4, "remove"))),
    RecommendQuery("amy", (CandidateQuestion(4, (1,)),
                           CandidateQuestion(9, (2, 5))),
                   top_k=3, target_success=0.7, horizon=2),
    RecourseQuery("amy", 7, (3,), threshold=0.8, max_edits=2,
                  beam_width=2,
                  candidates=(CandidateQuestion(4, (1,)),
                              CandidateQuestion(9, (2, 5))),
                  allow_history_edits=False),
    RecordEvent("amy", 3, 1, (2,)),
]

REPLIES = [
    ScoreReply("amy", 7, 0.625, 6),
    WhatIfReply("amy", 7, 0.5, 0.625, 5, model="canary"),
    RecordReply("amy", 7),
    ExplainReply("amy", 3, 1, 0.5,
                 (InfluenceItem(0, 4, 1, 0.01), InfluenceItem(1, 5, 0, -0.02))),
    RecommendReply("amy", (RecommendationItem(4, (1,), 0.6, 0.1, 0.7),)),
    RecourseReply("amy", 7, achieved=True, threshold=0.8,
                  baseline_score=0.55, final_score=0.82,
                  steps=(RecourseStep("fix_history", 4, 0.61, position=2,
                                      concept_ids=(1,)),
                         RecourseStep("practice", 9, 0.82,
                                      concept_ids=(2, 5),
                                      lowered_score=False)),
                  monotonic=True, generations=2, worlds_scored=7,
                  history_length=9),
]

ERRORS = [
    UnknownStudent("who?", details={"student_id": "ghost"}),
    InvalidQuestion("bad question", details={"question_id": 999,
                                             "valid_range": (1, 50)}),
    MalformedQuery("nonsense"),
    UnsupportedVersion("bad version", details={"version": 99}),
    UnknownQueryType("what is recourse", details={"type": "recourse",
                                                  "requires": 2}),
]


class TestWireRoundTrip:
    @pytest.mark.parametrize("query", QUERIES,
                             ids=lambda q: type(q).__name__)
    def test_query_round_trip(self, query):
        payload = json.loads(json.dumps(to_wire(query)))
        assert payload["v"] == PROTOCOL_VERSION
        decoded = query_from_wire(payload)
        assert decoded == query

    @pytest.mark.parametrize("reply", REPLIES,
                             ids=lambda r: type(r).__name__)
    def test_reply_round_trip(self, reply):
        payload = json.loads(json.dumps(to_wire(reply)))
        decoded = reply_from_wire(payload)
        assert decoded == reply
        assert decoded.ok

    @pytest.mark.parametrize("error", ERRORS,
                             ids=lambda e: type(e).__name__)
    def test_error_round_trip(self, error):
        payload = json.loads(json.dumps(to_wire(error)))
        assert payload["type"] == "error"
        assert payload["code"] == error.code
        decoded = reply_from_wire(payload)
        assert type(decoded) is type(error)
        assert decoded.message == error.message
        assert not decoded.ok

    def test_batch_envelope_round_trip(self):
        envelope = BatchEnvelope((QUERIES[0], QUERIES[3]))
        decoded = query_from_wire(json.loads(json.dumps(to_wire(envelope))))
        assert decoded == envelope

    def test_wire_tuple_range_survives_json(self):
        # JSON has no tuples: details round-trip value-equal modulo
        # list/tuple, which `detail` normalizes for the caller.
        error = reply_from_wire(json.loads(json.dumps(to_wire(ERRORS[1]))))
        assert list(error.detail("valid_range")) == [1, 50]


class TestDecodeFailuresAreValues:
    def test_unknown_type(self):
        decoded = query_from_wire({"v": 1, "type": "teleport"})
        # The specific value is UnknownQueryType; it stays a
        # MalformedQuery subclass so pre-v2 handlers keep matching.
        assert isinstance(decoded, UnknownQueryType)
        assert isinstance(decoded, MalformedQuery)
        assert decoded.code == "unknown_query_type"
        assert "teleport" in decoded.message

    def test_missing_field(self):
        decoded = query_from_wire({"v": 1, "type": "score",
                                   "student_id": "amy"})
        assert isinstance(decoded, MalformedQuery)
        assert "question_id" in decoded.message

    def test_version_mismatch(self):
        decoded = query_from_wire({"v": 99, "type": "score"})
        assert isinstance(decoded, UnsupportedVersion)
        assert isinstance(decoded, MalformedQuery)
        assert decoded.code == "unsupported_version"
        assert "version" in decoded.message
        assert decoded.detail("supported") == \
            list(SUPPORTED_PROTOCOL_VERSIONS)

    def test_non_object_payload(self):
        assert isinstance(query_from_wire([1, 2]), MalformedQuery)

    def test_batch_without_queries_list(self):
        assert isinstance(query_from_wire({"v": 1, "type": "batch"}),
                          MalformedQuery)

    def test_bad_nested_edit(self):
        payload = to_wire(QUERIES[3])
        payload["edits"][0].pop("position")
        assert isinstance(query_from_wire(payload), MalformedQuery)

    def test_reply_decode_raises_for_broken_server(self):
        with pytest.raises(ValueError, match="unknown reply type"):
            reply_from_wire({"type": "gibberish"})


class TestLocalOnlyFields:
    def test_is_error_discriminates(self):
        assert is_error(ERRORS[0]) and not is_error(REPLIES[0])
        assert not ERRORS[0].ok and REPLIES[0].ok


# ---------------------------------------------------------------------------
# Protocol v2: version negotiation
# ---------------------------------------------------------------------------
class TestVersionNegotiation:
    RECOURSE = QUERIES[5]

    def test_current_version_is_two_and_one_still_supported(self):
        assert PROTOCOL_VERSION == 2
        assert SUPPORTED_PROTOCOL_VERSIONS == (1, 2)

    @pytest.mark.parametrize("query", [q for q in QUERIES
                                       if not isinstance(q, RecourseQuery)],
                             ids=lambda q: type(q).__name__)
    def test_v1_envelopes_still_round_trip(self, query):
        payload = json.loads(json.dumps(to_wire(query, version=1)))
        assert payload["v"] == 1
        assert query_from_wire(payload) == query

    def test_recourse_round_trips_at_v2(self):
        payload = json.loads(json.dumps(to_wire(self.RECOURSE)))
        assert payload["v"] == 2
        assert query_from_wire(payload) == self.RECOURSE

    def test_recourse_under_v1_is_unknown_query_type(self):
        payload = to_wire(self.RECOURSE)
        payload["v"] = 1
        decoded = query_from_wire(payload)
        assert isinstance(decoded, UnknownQueryType)
        assert decoded.detail("requires") == 2
        assert "v1" in decoded.message

    def test_batch_threads_the_outer_version_into_nested_slots(self):
        # Nested queries carry no "v": the envelope's version gates
        # them, so a v1 batch cannot smuggle a v2-only query in.
        payload = to_wire(BatchEnvelope((QUERIES[0], self.RECOURSE)))
        for nested in payload["queries"]:
            nested.pop("v", None)
        v2 = query_from_wire(json.loads(json.dumps(payload)))
        assert v2.queries[1] == self.RECOURSE
        payload["v"] = 1
        v1 = query_from_wire(json.loads(json.dumps(payload)))
        assert v1.queries[0] == QUERIES[0]
        assert isinstance(v1.queries[1], UnknownQueryType)

    def test_missing_version_defaults_to_current(self):
        payload = to_wire(self.RECOURSE)
        del payload["v"]
        assert query_from_wire(payload) == self.RECOURSE

    def test_to_wire_rejects_unsupported_versions(self):
        with pytest.raises(ValueError, match="version"):
            to_wire(QUERIES[0], version=99)

    def test_negotiated_version(self):
        assert negotiated_version({"v": 1, "type": "score"}) == 1
        assert negotiated_version({"v": 2, "type": "score"}) == 2
        assert negotiated_version({"type": "score"}) == PROTOCOL_VERSION
        assert negotiated_version({"v": 99}) == PROTOCOL_VERSION
        assert negotiated_version("garbage") == PROTOCOL_VERSION

    def test_query_types_per_version(self):
        assert "recourse" not in query_types_for(1)
        assert "recourse" in query_types_for(2)
        assert set(query_types_for(1)) | {"recourse"} == \
            set(query_types_for(2))

    def test_capabilities_enumerates_versions_and_codes(self):
        caps = capabilities()
        assert caps["protocol_version"] == PROTOCOL_VERSION
        assert caps["protocol_versions"] == \
            list(SUPPORTED_PROTOCOL_VERSIONS)
        assert caps["query_types"] == list(query_types_for(2))
        assert caps["query_types_by_version"]["1"] == \
            list(query_types_for(1))
        assert "unsupported_version" in caps["error_codes"]
        assert "unknown_query_type" in caps["error_codes"]
        # Health replies are JSON: the whole dict must serialize.
        json.dumps(caps)

    def test_trajectory_property(self):
        reply = REPLIES[5]
        assert reply.trajectory == (0.55, 0.61, 0.82)


# ---------------------------------------------------------------------------
# Field rules: every non-id field is screened by admission_error
# ---------------------------------------------------------------------------
class TestFieldRules:
    @pytest.mark.parametrize(
        "cls", [*QUERY_TYPES.values(), HistoryEdit, CandidateQuestion],
        ids=lambda cls: cls.__name__)
    def test_every_field_declares_a_rule(self, cls):
        # Ids need the checkpoint's vocabulary (the engine checks them);
        # an edit's value depends on its op (the scheduler checks it).
        for spec in dataclasses.fields(cls):
            exempt = spec.name in ("question_id", "concept_ids") or (
                cls is HistoryEdit and spec.name == "value")
            assert ("rule" in spec.metadata) is not exempt, spec.name

    def test_every_record_an_earlier_build_acknowledged_is_admitted(self):
        # RecordJournal.replay_into raises on any rejected journal record.
        for student, correct in itertools.product(
                ("amy", 7, 7.5, True, None, (1, "a")),
                (0, 1, True, False, 0.0, 1.0)):
            payload = json.loads(json.dumps(to_wire(
                RecordEvent(student, 3, correct, (2,)))))
            assert admission_error(query_from_wire(payload)) is None

    def test_violations_name_the_field_and_the_rule(self):
        cases = [
            (RecordEvent({}, 3, 1, (2,)), MalformedQuery,
             "student_id must be a hashable value without NaN or "
             "infinity, got {}"),
            (RecordEvent(float("nan"), 3, 1, (2,)), MalformedQuery,
             "student_id must be a hashable value without NaN or "
             "infinity, got nan"),
            (RecordEvent("amy", 3, 1.5, (2,)), MalformedQuery,
             "correct must be 0 or 1, got 1.5"),
            (ScoreQuery("amy", 3, (2,), model=None), MalformedQuery,
             "model must be a string, got None"),
            (RecommendQuery("amy", (), target_success=10**400),
             MalformedQuery, "target_success must be a finite number, "
             f"got {10**400!r}"),
            (RecourseQuery("amy", 3, (2,), beam_width=33), MalformedQuery,
             "beam_width must be an integer in [1, 32], got 33"),
            (WhatIfQuery("amy", 3, (2,), ("flip",)), MalformedQuery,
             "edits must be an array of HistoryEdit, got ('flip',)"),
            (WhatIfQuery("amy", 3, (2,), (HistoryEdit(True, "flip"),)),
             InvalidEdit, "position must be an integer, got True"),
            (BatchEnvelope(()), MalformedQuery,
             "batch envelopes cannot ride inside another batch — pass "
             "the envelope itself to execute()/POST /v1/batch"),
            (object(), MalformedQuery, "not a protocol query: object"),
        ]
        for query, cls, message in cases:
            error = admission_error(query)
            assert type(error) is cls and error.message == message
