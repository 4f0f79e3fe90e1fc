"""The typed Service facade: parity, scheduler coalescing, taxonomy."""

import sys
import threading

import numpy as np
import pytest

from repro.core import ENCODERS, RCKT, RCKTConfig
from repro.core.masking import window_start
from repro.data import (Interaction, SimulationConfig, StudentSequence,
                        StudentSimulator, build_dataset, collate)
from repro.serve import (DEFAULT_STREAM_CACHE_BYTES, BatchEnvelope,
                         CandidateQuestion, EmptyHistory,
                         ExplainQuery, HistoryEdit, InferenceEngine,
                         InternalError, InvalidConcept, InvalidEdit,
                         InvalidQuestion, MalformedQuery, ModelNotLoaded,
                         ModelRegistry, RecommendQuery, RecordEvent,
                         RecourseQuery, ScoreQuery, Service, UnknownStudent,
                         WhatIfQuery, to_wire)
from repro.tensor import no_grad

ATOL = 1e-10
NUM_QUESTIONS = 40
NUM_CONCEPTS = 6


def make_dataset(num_students=6, seed=11):
    config = SimulationConfig(num_students=num_students,
                              num_questions=NUM_QUESTIONS,
                              num_concepts=NUM_CONCEPTS,
                              sequence_length=(5, 14))
    simulator = StudentSimulator(config, seed=seed)
    return build_dataset("svc", simulator.simulate(seed=seed + 1),
                         NUM_QUESTIONS, NUM_CONCEPTS)


def make_model(encoder="dkt", dim=8, layers=1, seed=3):
    return RCKT(NUM_QUESTIONS, NUM_CONCEPTS,
                RCKTConfig(encoder=encoder, dim=dim, layers=layers,
                           seed=seed))


def wire_close(ours, reference) -> bool:
    """Structural wire equality, floats compared to ``ATOL``."""
    if type(ours) is not type(reference):
        return False
    if isinstance(ours, dict):
        return ours.keys() == reference.keys() and all(
            wire_close(ours[key], reference[key]) for key in ours)
    if isinstance(ours, list):
        return len(ours) == len(reference) and all(
            wire_close(a, b) for a, b in zip(ours, reference))
    if isinstance(ours, float):
        return abs(ours - reference) < ATOL
    return ours == reference


def seed_idiom_score(model, interactions, question_id, concept_ids):
    """Golden reference: one collated probe row, the pre-engine path."""
    probe = Interaction(question_id, 1, tuple(concept_ids))
    sequence = StudentSequence("ref", list(interactions) + [probe])
    batch = collate([sequence])
    return float(model.predict_scores(batch,
                                      np.array([len(sequence) - 1]))[0])


@pytest.fixture(scope="module")
def dataset():
    return make_dataset()


@pytest.fixture(scope="module")
def model(dataset):
    return make_model()


@pytest.fixture()
def service(model, dataset):
    engine = InferenceEngine(model)
    engine.load_dataset(dataset)
    return Service(engine)


# ---------------------------------------------------------------------------
# Parity: facade vs golden references (all encoders, windowed + not)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("encoder", ENCODERS)
@pytest.mark.parametrize("window", [None, 6])
class TestParity:
    def _service(self, encoder, window, dataset):
        engine = InferenceEngine(make_model(encoder), window=window)
        engine.load_dataset(dataset)
        return Service(engine), engine

    def test_scores_match_seed_idiom(self, encoder, window, dataset):
        service, engine = self._service(encoder, window, dataset)
        for sequence in list(dataset)[:3]:
            question = 1 + len(sequence) % NUM_QUESTIONS
            reply = service.execute(ScoreQuery(sequence.student_id,
                                               question, (2,)))
            start = window_start(len(sequence), window, engine.window_hop)
            reference = seed_idiom_score(
                engine.model, list(sequence.interactions)[start:],
                question, (2,))
            assert abs(reply.score - reference) < ATOL

    def test_influences_match_direct_model_call(self, encoder, window,
                                                dataset):
        service, engine = self._service(encoder, window, dataset)
        sequence = next(s for s in dataset if len(s) >= 8)
        reply = service.execute(ExplainQuery(sequence.student_id))
        start = window_start(len(sequence) - 1, window, engine.window_hop)
        windowed = StudentSequence(
            "ref", list(sequence.interactions)[start:])
        batch = collate([windowed])
        with no_grad():
            direct = engine.model.influences(
                batch, np.array([len(windowed) - 1]))
        assert abs(reply.score - float(direct.scores[0])) < ATOL
        # Per-position deltas: itemized influences line up with the
        # direct computation's grids position by position.
        deltas = np.where(
            batch.responses[0, :len(windowed) - 1] == 1,
            direct.correct_deltas.data[0, :len(windowed) - 1],
            direct.incorrect_deltas.data[0, :len(windowed) - 1])
        assert len(reply.influences) == len(windowed) - 1
        for item, expected in zip(reply.influences, deltas):
            assert abs(item.influence - expected) < ATOL
        # Absolute positions survive the window re-basing.
        assert [item.position for item in reply.influences] == \
            list(range(start, len(sequence) - 1))

    def test_what_if_matches_from_scratch_rescore(self, encoder, window,
                                                  dataset):
        service, engine = self._service(encoder, window, dataset)
        sequence = next(s for s in dataset if len(s) >= 8)
        edits = (HistoryEdit(0, "flip"), HistoryEdit(3, "set", value=0),
                 HistoryEdit(5, "remove"))
        reply = service.execute(WhatIfQuery(sequence.student_id, 9, (1,),
                                            edits))
        interactions = list(sequence.interactions)
        flipped = interactions[0]
        interactions[0] = Interaction(flipped.question_id,
                                      1 - flipped.correct,
                                      flipped.concept_ids)
        third = interactions[3]
        interactions[3] = Interaction(third.question_id, 0,
                                      third.concept_ids)
        del interactions[5]
        start = window_start(len(interactions), window, engine.window_hop)
        reference = seed_idiom_score(engine.model, interactions[start:],
                                     9, (1,))
        assert abs(reply.score - reference) < ATOL
        base_start = window_start(len(sequence), window, engine.window_hop)
        baseline = seed_idiom_score(
            engine.model, list(sequence.interactions)[base_start:], 9, (1,))
        assert abs(reply.baseline_score - baseline) < ATOL


# ---------------------------------------------------------------------------
# Scheduler: mixed-type coalescing into one shared forward-stream batch
# ---------------------------------------------------------------------------
class TestMixedBatchCoalescing:
    def _counting(self, engine, monkeypatch):
        counts = {"capture": 0, "forward": 0}
        encoder = engine.model.generator.encoder
        real_capture = encoder.forward_stream_with_capture
        real_forward = encoder.forward_stream

        def capture(*args, **kwargs):
            counts["capture"] += 1
            return real_capture(*args, **kwargs)

        def forward(*args, **kwargs):
            counts["forward"] += 1
            return real_forward(*args, **kwargs)

        monkeypatch.setattr(encoder, "forward_stream_with_capture", capture)
        monkeypatch.setattr(encoder, "forward_stream", forward)
        return counts

    def _mixed_queries(self, dataset):
        students = [s.student_id for s in dataset]
        return [
            ScoreQuery(students[0], 7, (3,)),
            ExplainQuery(students[0]),
            WhatIfQuery(students[1], 9, (1,), (HistoryEdit(1, "flip"),)),
            ScoreQuery(students[1], 2, (1,)),
            ScoreQuery(students[2], 5, (2,)),
        ]

    def test_single_shared_forward_batch_cold(self, service, dataset,
                                              monkeypatch):
        counts = self._counting(service.engine(), monkeypatch)
        replies = service.execute_batch(self._mixed_queries(dataset))
        assert all(reply.ok for reply in replies)
        # Every cold student *and* the edited timeline warm-built in one
        # stacked capture pass; no separate forward-stream encodings.
        assert counts["capture"] == 1
        assert counts["forward"] == 0

    def test_warm_flush_runs_no_forward_streams(self, service, dataset,
                                                monkeypatch):
        service.execute_batch(self._mixed_queries(dataset))  # warm caches
        counts = self._counting(service.engine(), monkeypatch)
        replies = service.execute_batch([
            ScoreQuery(list(dataset)[0].student_id, 7, (3,)),
            ExplainQuery(list(dataset)[0].student_id),
            ScoreQuery(list(dataset)[2].student_id, 5, (2,)),
        ])
        assert all(reply.ok for reply in replies)
        assert counts["capture"] == 0 and counts["forward"] == 0

    def test_recommend_probes_ride_the_shared_batch(self, service,
                                                    dataset, monkeypatch):
        """Success-probability probes are coalesced: a mixed batch with
        a recommend does exactly the forward work the recommend alone
        does — zero extra passes for the probes.  For a warm student
        that is none: the value worlds extend the warm entry."""
        student = next(s for s in dataset if len(s) >= 4).student_id
        recommend = RecommendQuery(
            student, (CandidateQuestion(3, (1,)),
                      CandidateQuestion(9, (2,))), top_k=2, horizon=2)
        # Warm every cache first (score + recommend probe share a slot).
        assert service.execute(recommend).ok
        counts = self._counting(service.engine(), monkeypatch)
        assert service.execute_batch([recommend])[0].ok
        alone = dict(counts)
        assert alone["capture"] == 0   # warm probes: no warm-up pass
        assert alone["forward"] == 0   # value worlds: no re-encode
        counts["capture"] = counts["forward"] = 0
        replies = service.execute_batch([
            ScoreQuery(student, 7, (3,)),
            ExplainQuery(student),
            recommend,
        ])
        assert all(reply.ok for reply in replies)
        assert dict(counts) == alone

    def test_cold_recommend_shares_the_single_warmup_pass(self, service,
                                                          dataset,
                                                          monkeypatch):
        counts = self._counting(service.engine(), monkeypatch)
        students = [s.student_id for s in dataset]
        replies = service.execute_batch([
            ScoreQuery(students[0], 7, (3,)),
            RecommendQuery(students[1],
                           (CandidateQuestion(3, (1,)),
                            CandidateQuestion(9, (2,))), horizon=2),
            ExplainQuery(students[2]),
        ])
        assert all(reply.ok for reply in replies)
        # Cold score rows, recommend probe rows, and the explain target
        # all warm-build in ONE stacked capture pass; the recommend's
        # value worlds extend the entry that pass built, so they run no
        # forward pass of their own.
        assert counts["capture"] == 1
        assert counts["forward"] == 0

    def test_mixed_batch_matches_individual_execution(self, dataset):
        """Every reply of one envelope mixing every read type — three
        explains, a score, two what-ifs (one rejected), a recommend, a
        recourse and an unknown student — equals, field for field on
        the wire, the reply to its query sent alone."""
        students = [s.student_id for s in dataset]
        candidates = (CandidateQuestion(3, (1,)),
                      CandidateQuestion(9, (2,)))
        queries = [
            ExplainQuery(students[0]),
            ScoreQuery(students[1], 7, (3,)),
            ExplainQuery(students[1]),
            WhatIfQuery(students[2], 9, (1,), (HistoryEdit(1, "flip"),)),
            RecommendQuery(students[0], candidates, horizon=2),
            WhatIfQuery(students[3], 9, (1,), (HistoryEdit(99, "flip"),)),
            RecourseQuery(students[2], 5, (2,), threshold=0.99,
                          max_edits=2, beam_width=2, candidates=candidates),
            ExplainQuery("ghost"),
            ExplainQuery(students[3]),
        ]
        for encoder in ("dkt", "akt"):
            model = make_model(encoder)
            engine_a = InferenceEngine(model)
            engine_a.load_dataset(dataset)
            engine_b = InferenceEngine(model)
            engine_b.load_dataset(dataset)
            batched = Service(engine_a).execute_batch(BatchEnvelope(
                tuple(queries)))
            single = [Service(engine_b).execute(query) for query in queries]
            assert isinstance(batched[5], InvalidEdit)
            assert isinstance(batched[7], UnknownStudent)
            for query, one, many in zip(queries, single, batched):
                assert wire_close(to_wire(many), to_wire(one)), \
                    (encoder, query)

    def test_cached_and_uncached_service_agree(self, model, dataset):
        """The default budget and a zero budget (every row warm-built
        per batch, nothing kept) both answer the mixed batch with what
        the offline scorer computes on each student's history, and keep
        doing so through rounds of records, which extend warm entries
        in place."""
        students = [sequence.student_id for sequence in list(dataset)[:3]]
        first, second, third = (list(sequence.interactions)
                                for sequence in list(dataset)[:3])
        edited = list(second)
        edited[1] = Interaction(edited[1].question_id,
                                1 - edited[1].correct, edited[1].concept_ids)
        with no_grad():
            explained = model.influences(collate([StudentSequence(
                "ref", first)]), np.array([len(first) - 1])).scores[0]
        expected = [seed_idiom_score(model, first, 7, (3,)), explained,
                    seed_idiom_score(model, edited, 9, (1,)),
                    seed_idiom_score(model, second, 2, (1,)),
                    seed_idiom_score(model, third, 5, (2,))]
        baseline = seed_idiom_score(model, second, 9, (1,))
        for budget in (DEFAULT_STREAM_CACHE_BYTES, 0):
            engine = InferenceEngine(model, stream_cache_bytes=budget)
            engine.load_dataset(dataset)
            service = Service(engine)
            replies = service.execute_batch(self._mixed_queries(dataset))
            for reply, want in zip(replies, expected):
                assert abs(reply.score - want) < ATOL, (budget, reply)
            assert abs(replies[2].baseline_score - baseline) < ATOL
            histories = [list(first), list(second), list(third)]
            for round_index in range(3):
                for k, (student, history) in enumerate(zip(students,
                                                           histories)):
                    event = Interaction(2 + 3 * k + round_index,
                                        (k + round_index) % 2, (1 + k,))
                    assert service.execute(RecordEvent(
                        student, event.question_id, event.correct,
                        event.concept_ids)).ok
                    history.append(event)
                replies = service.execute_batch(
                    [ScoreQuery(student, 7, (3,)) for student in students])
                for reply, history in zip(replies, histories):
                    want = seed_idiom_score(model, history, 7, (3,))
                    assert abs(reply.score - want) < ATOL, \
                        (budget, round_index, reply)

    def test_records_apply_before_reads(self, model, dataset):
        engine = InferenceEngine(model)
        engine.load_dataset(dataset)
        service = Service(engine)
        student = list(dataset)[0].student_id
        replies = service.execute_batch([
            ScoreQuery(student, 7, (3,)),
            RecordEvent(student, 4, 1, (2,)),
        ])
        # The score observes the post-record snapshot even though it
        # precedes the record in the envelope.
        after = service.execute(ScoreQuery(student, 7, (3,)))
        assert replies[0].score == after.score
        assert replies[1].history_length == engine.history_length(student)


# ---------------------------------------------------------------------------
# Error taxonomy (facade surface)
# ---------------------------------------------------------------------------
class TestErrorTaxonomy:
    def test_invalid_question(self, service):
        reply = service.execute(ScoreQuery("amy", 9999, (1,)))
        assert isinstance(reply, InvalidQuestion)
        assert reply.code == "invalid_question" and not reply.ok
        assert "9999" in reply.message and "model 'default'" in reply.message
        assert tuple(reply.detail("valid_range")) == (1, NUM_QUESTIONS)

    def test_invalid_concept_and_empty_set(self, service):
        reply = service.execute(ScoreQuery("amy", 3, (999,)))
        assert isinstance(reply, InvalidConcept)
        empty = service.execute(ScoreQuery("amy", 3, ()))
        assert isinstance(empty, InvalidConcept)
        assert "non-empty" in empty.message

    def test_unknown_student(self, service):
        for query in (ExplainQuery("ghost"),
                      WhatIfQuery("ghost", 3, (1,),
                                  (HistoryEdit(0, "flip"),))):
            reply = service.execute(query)
            assert isinstance(reply, UnknownStudent)
            assert "ghost" in reply.message

    def test_empty_history_explain(self, service):
        engine = service.engine()
        engine.record("newbie", 3, 1, (1,))
        reply = service.execute(ExplainQuery("newbie"))
        assert isinstance(reply, EmptyHistory)
        assert "at least two" in reply.message

    def test_empty_history_recommend(self, service):
        reply = service.execute(RecommendQuery(
            "ghost", (CandidateQuestion(3, (1,)),)))
        assert isinstance(reply, EmptyHistory)

    def test_invalid_edits(self, service, dataset):
        student = list(dataset)[0].student_id
        cases = [
            (HistoryEdit(99, "flip"), "position"),
            (HistoryEdit(0, "teleport"), "op"),
            (HistoryEdit(0, "set"), "value"),
        ]
        for edit, fragment in cases:
            reply = service.execute(WhatIfQuery(student, 3, (1,), (edit,)))
            assert isinstance(reply, InvalidEdit)
            assert fragment in reply.message

    def test_duplicate_edit_positions_rejected(self, service, dataset):
        # Positions index the pre-edit history; two edits at one
        # position would silently edit whatever slid into the slot.
        student = list(dataset)[0].student_id
        reply = service.execute(WhatIfQuery(
            student, 3, (1,),
            (HistoryEdit(2, "remove"), HistoryEdit(2, "remove"))))
        assert isinstance(reply, InvalidEdit)
        assert "duplicate" in reply.message

    def test_model_not_loaded(self, service):
        reply = service.execute(ScoreQuery("amy", 3, (1,), model="nope"))
        assert isinstance(reply, ModelNotLoaded)
        assert "nope" in reply.message and "default" in str(reply.details)

    def test_mid_flight_unregister_yields_model_not_loaded(self, model,
                                                           dataset):
        registry = ModelRegistry()
        registry.register("prod", InferenceEngine(model))
        service = Service(registry=registry)
        service.engine("prod").load_dataset(dataset)
        student = list(dataset)[0].student_id
        assert service.execute(ScoreQuery(student, 3, (1,),
                                          model="prod")).ok
        registry.unregister("prod")
        reply = service.execute(ScoreQuery(student, 3, (1,), model="prod"))
        assert isinstance(reply, ModelNotLoaded)

    def test_malformed_values(self, service):
        bad_correct = service.execute(RecordEvent("amy", 3, 7, (1,)))
        assert isinstance(bad_correct, MalformedQuery)
        assert "correct must be 0 or 1" in bad_correct.message
        not_a_query = service.execute_batch([object()])[0]
        assert isinstance(not_a_query, MalformedQuery)
        nested = service.execute_batch(
            [BatchEnvelope((ScoreQuery("amy", 3, (1,)),))])[0]
        assert isinstance(nested, MalformedQuery)

    def test_execute_accepts_an_envelope(self, service, dataset):
        # A whole envelope through execute() (the /v1/query route's
        # view) answers with a BatchReply, not a nesting complaint.
        from repro.serve import BatchReply
        student = list(dataset)[0].student_id
        reply = service.execute(BatchEnvelope((
            ScoreQuery(student, 3, (1,)),
            ExplainQuery(student),
        )))
        assert isinstance(reply, BatchReply)
        assert all(inner.ok for inner in reply.replies)

    def test_ill_typed_wire_values_become_taxonomy_errors(self, service,
                                                          dataset):
        # JSON can carry any type: structurally valid queries with
        # ill-typed values must come back as error values, never raise
        # out of the facade or poison batch siblings.
        student = list(dataset)[0].student_id
        candidates = (CandidateQuestion(3, (1,)),)
        replies = service.execute_batch([
            RecordEvent(student, "7", 1, (1,)),
            ScoreQuery(student, 3, ("x",)),
            RecommendQuery(student, candidates, top_k="five"),
            WhatIfQuery(student, 3, (1,), (HistoryEdit("0", "flip"),)),
            ScoreQuery({}, 3, (1,)),
            ScoreQuery(student, 3, (1,), model={}),
            RecommendQuery(student, candidates, value_weight=float("inf")),
            ScoreQuery(student, 3, (1,)),
        ])
        assert isinstance(replies[0], InvalidQuestion)
        assert "integer" in replies[0].message
        assert isinstance(replies[1], InvalidConcept)
        assert isinstance(replies[2], MalformedQuery)
        assert isinstance(replies[3], InvalidEdit)
        assert replies[4].message == \
            "student_id must be a hashable value without NaN or " \
            "infinity, got {}"
        assert replies[5].message == "model must be a string, got {}"
        assert replies[6].message == \
            "value_weight must be a finite number, got inf"
        assert replies[7].ok   # the sibling still scored

    @pytest.mark.parametrize("field,value", [("top_k", 0), ("top_k", -1),
                                             ("horizon", 0),
                                             ("horizon", -2)])
    def test_recommend_bounds_are_malformed(self, service, dataset, field,
                                            value):
        # top_k=-1 used to slice off the last item and horizon<=0 to zero
        # every value; both are now rejected before any forward pass.
        student = list(dataset)[0].student_id
        candidates = (CandidateQuestion(3, (1,)),
                      CandidateQuestion(9, (2,)))
        replies = service.execute_batch([
            RecommendQuery(student, candidates, **{field: value}),
            RecommendQuery(student, candidates, top_k=1, horizon=1),
        ])
        assert isinstance(replies[0], MalformedQuery)
        assert replies[0].message \
            == f"{field} must be an integer >= 1, got {value}"
        assert replies[0].detail(field) == value
        assert replies[1].ok and len(replies[1].items) == 1

    def test_internal_error_is_a_value(self, service, dataset,
                                       monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(service.engine(), "score_rows", boom)
        reply = service.execute(ScoreQuery(list(dataset)[0].student_id,
                                           3, (1,)))
        assert isinstance(reply, InternalError)
        assert "kaboom" in reply.message

    def test_errors_do_not_poison_the_batch(self, service, dataset):
        student = list(dataset)[0].student_id
        replies = service.execute_batch([
            ScoreQuery(student, 9999, (1,)),
            ScoreQuery(student, 3, (1,)),
            ExplainQuery("ghost"),
            ExplainQuery(student),
        ])
        assert isinstance(replies[0], InvalidQuestion)
        assert replies[1].ok
        assert isinstance(replies[2], UnknownStudent)
        assert replies[3].ok


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_multi_model_routing(self, dataset):
        registry = ModelRegistry()
        registry.register("a", InferenceEngine(make_model(seed=1)))
        registry.register("b", InferenceEngine(make_model(seed=2)))
        service = Service(registry=registry)
        service.engine("a").load_dataset(dataset)
        service.engine("b").load_dataset(dataset)
        student = list(dataset)[0].student_id
        score_a = service.execute(ScoreQuery(student, 3, (1,), model="a"))
        score_b = service.execute(ScoreQuery(student, 3, (1,), model="b"))
        assert score_a.model == "a" and score_b.model == "b"
        assert score_a.score != score_b.score   # different weights
        described = {entry["name"]
                     for entry in service.models()["models"]}
        assert described == {"a", "b"}

    def test_alias_echoes_the_addressed_model_name(self, dataset):
        # One engine served under two names by two registries: each
        # reply echoes the name its query addressed, not engine.name.
        engine = InferenceEngine(make_model())
        engine.load_dataset(dataset)
        service = Service(engine)          # serves it as 'default'
        other = ModelRegistry()
        other.register("canary", engine)
        student = list(dataset)[0].student_id
        direct = service.execute(ScoreQuery(student, 3, (1,)))
        aliased = Service(registry=other).execute(
            ScoreQuery(student, 3, (1,), model="canary"))
        assert direct.model == "default"
        assert aliased.model == "canary"
        assert aliased.score == direct.score

    def test_service_from_checkpoint(self, dataset, tmp_path):
        engine = InferenceEngine(make_model())
        path = tmp_path / "svc.npz"
        engine.save(path)
        service = Service.from_checkpoint(path, name="prod")
        assert service.registry.names() == ["prod"]
        assert service.execute(ScoreQuery("cold", 3, (1,),
                                          model="prod")).score == 0.5


# ---------------------------------------------------------------------------
# Concurrent records
# ---------------------------------------------------------------------------
class TestConcurrentRecords:
    def test_record_replies_report_distinct_lengths(self, model):
        """Each RecordReply carries the length its own append produced:
        8 threads racing 200 records for one student must see every
        length from 1 to 1600 exactly once."""
        service = Service(InferenceEngine(model))
        threads_count, per_thread = 8, 200
        lengths = [[] for _ in range(threads_count)]

        def send(slot):
            for step in range(per_thread):
                reply = service.execute(RecordEvent(
                    "shared", 1 + step % NUM_QUESTIONS, step % 2,
                    (1 + step % NUM_CONCEPTS,)))
                lengths[slot].append(reply.history_length)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=send, args=(slot,))
                       for slot in range(threads_count)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        seen = sorted(length for slot in lengths for length in slot)
        assert seen == list(range(1, threads_count * per_thread + 1))
