"""RecourseQuery end to end: search semantics, batching, parity, report.

The golden references here rebuild each hypothetical timeline from
scratch through the seed idiom (collate one sequence, ``predict_scores``
on the probe row), so the search's claimed trajectory is checked against
the exact path the paper's evaluation protocol scores — independent of
the serving engine's caches and batching.
"""

from itertools import combinations

import numpy as np
import pytest

from repro.core import ENCODERS, RCKT, RCKTConfig
from repro.data import Interaction, StudentSequence, collate
from repro.serve import (DEFAULT_STREAM_CACHE_BYTES, CandidateQuestion,
                         ExplainQuery, HistoryEdit,
                         InferenceEngine, InvalidQuestion, MalformedQuery,
                         ModelNotLoaded, RecommendQuery, RecordEvent,
                         RecourseQuery, ScoreQuery, Service, ServiceClient,
                         UnknownStudent, WhatIfQuery, start_http_thread,
                         to_wire)

NUM_QUESTIONS = 30
NUM_CONCEPTS = 5
ATOL = 1e-10

#: (question, correct, concepts) — three incorrect responses to fix.
HISTORY = [(3, 1, (1,)), (7, 0, (2,)), (12, 1, (1, 3)), (9, 0, (4,)),
           (15, 1, (2,)), (5, 0, (1,)), (21, 1, (5,)), (11, 1, (2, 4))]
INCORRECT = [k for k, (_, correct, _) in enumerate(HISTORY)
             if correct == 0]
TARGET = (18, (2,))
CANDIDATES = (CandidateQuestion(6, (1,)), CandidateQuestion(24, (3,)))


def make_model(encoder="dkt"):
    return RCKT(NUM_QUESTIONS, NUM_CONCEPTS,
                RCKTConfig(encoder=encoder, dim=8, layers=1, seed=3))


def make_service(encoder="dkt", student="kai", **engine_kwargs):
    engine = InferenceEngine(make_model(encoder), **engine_kwargs)
    for question, correct, concepts in HISTORY:
        engine.record(student, question, correct, concepts)
    return Service(engine), engine


def golden_score(model, interactions, question_id, concept_ids):
    probe = Interaction(question_id, 1, tuple(concept_ids))
    sequence = StudentSequence("ref", list(interactions) + [probe])
    batch = collate([sequence])
    return float(model.predict_scores(batch,
                                      np.array([len(sequence) - 1]))[0])


def edited_interactions(fixed=(), practiced=()):
    """The base HISTORY with fixes applied and practice items appended."""
    rows = [Interaction(q, 1 if k in fixed else r, c)
            for k, (q, r, c) in enumerate(HISTORY)]
    rows += [Interaction(CANDIDATES[i].question_id, 1,
                         CANDIDATES[i].concept_ids) for i in practiced]
    return rows


def apply_steps(steps):
    """(fixed, practiced) edit sets accumulated along a reply's path."""
    fixed, practiced = set(), []
    candidate_of = {c.question_id: i for i, c in enumerate(CANDIDATES)}
    for step in steps:
        if step.kind == "fix_history":
            fixed.add(step.position)
        else:
            practiced.append(candidate_of[step.question_id])
    return fixed, practiced


@pytest.fixture()
def stack():
    service, engine = make_service()
    yield service, engine
    service.close()


# ---------------------------------------------------------------------------
# Search semantics against from-scratch golden rescoring
# ---------------------------------------------------------------------------
class TestSearchSemantics:
    def test_baseline_above_threshold_needs_no_search(self, stack):
        service, _ = stack
        reply = service.execute(RecourseQuery(
            "kai", *TARGET, threshold=0.0, candidates=CANDIDATES))
        assert reply.ok and reply.achieved
        assert reply.steps == () and reply.generations == 0
        assert reply.worlds_scored == 0
        assert reply.final_score == reply.baseline_score
        assert reply.trajectory == (reply.baseline_score,)
        golden = golden_score(service.engine().model,
                              edited_interactions(), *TARGET)
        assert abs(reply.baseline_score - golden) < ATOL

    def test_unreachable_threshold_returns_best_effort(self, stack):
        service, _ = stack
        reply = service.execute(RecourseQuery(
            "kai", *TARGET, threshold=1.0, max_edits=2, beam_width=2,
            candidates=CANDIDATES))
        assert reply.ok and not reply.achieved
        assert reply.generations == 2
        assert 0 < len(reply.steps) <= 2
        assert reply.final_score < 1.0
        # Best effort still beats doing nothing.
        assert reply.final_score >= reply.baseline_score
        # The claimed trajectory is real: rebuild each prefix timeline
        # from scratch and rescore.
        model = service.engine().model
        for k in range(len(reply.steps)):
            fixed, practiced = apply_steps(reply.steps[:k + 1])
            golden = golden_score(
                model, edited_interactions(fixed, practiced), *TARGET)
            assert abs(reply.steps[k].score - golden) < ATOL

    def test_first_clearing_generation_is_the_minimal_edit_set(self):
        # One candidate only: every edit *set* then maps to a unique
        # timeline (fixes are positional, repeats of one practice item
        # are order-free), so brute force over all 1- and 2-edit sets
        # is exact.  Pick a threshold between the best single edit and
        # the best pair: the search must need exactly two edits.
        service, engine = make_service()
        try:
            moves = [("fix", p) for p in INCORRECT] + [("practice", 0)]

            def score_of(chosen):
                fixed = {m[1] for m in chosen if m[0] == "fix"}
                practiced = [0] * sum(m[0] == "practice" for m in chosen)
                return golden_score(
                    engine.model,
                    edited_interactions(fixed, practiced), *TARGET)

            singles = {m: score_of([m]) for m in moves}
            pairs = {frozenset([a, b]): score_of([a, b])
                     for a, b in combinations(moves, 2)}
            pairs[("practice", "practice")] = score_of(
                [("practice", 0), ("practice", 0)])
            best1, best2 = max(singles.values()), max(pairs.values())
            assert best2 > best1 + 1e-9   # seed sanity for this model
            threshold = (best1 + best2) / 2

            reply = service.execute(RecourseQuery(
                "kai", *TARGET, threshold=threshold, max_edits=3,
                beam_width=16, candidates=(CANDIDATES[0],)))
            assert reply.achieved
            assert len(reply.steps) == reply.generations == 2
            assert reply.final_score >= threshold
            # A wide-open beam explores every pair: the chosen set is
            # the best two-edit set, not merely a clearing one.
            assert abs(reply.final_score - best2) < ATOL
            assert all(singles[m] < threshold for m in moves)
        finally:
            service.close()

    def test_monotonic_flag_matches_per_step_diagnostics(self, stack):
        service, _ = stack
        reply = service.execute(RecourseQuery(
            "kai", *TARGET, threshold=1.0, max_edits=3, beam_width=2,
            candidates=CANDIDATES))
        assert reply.monotonic == \
            (not any(step.lowered_score for step in reply.steps))
        for previous, step in zip(reply.trajectory, reply.steps):
            assert step.lowered_score == (step.score < previous)

    def test_cached_and_uncached_searches_agree_exactly(self):
        """A warm cache and a zero budget (worlds warm-built per batch,
        nothing kept) run the same search, and every score on its path
        equals a from-scratch rescore of the edited timeline."""
        query = RecourseQuery("kai", *TARGET, threshold=0.9, max_edits=3,
                              beam_width=2, candidates=CANDIDATES)
        replies = []
        for budget in (DEFAULT_STREAM_CACHE_BYTES, 0):
            service, _ = make_service(stream_cache_bytes=budget)
            try:
                service.execute(ScoreQuery("kai", *TARGET))  # warm cache
                replies.append(service.execute(query))
            finally:
                service.close()
        warm, cold = replies
        assert to_wire(warm) == to_wire(cold)
        model = make_model()
        assert abs(warm.baseline_score - golden_score(
            model, edited_interactions(), *TARGET)) < ATOL
        for k, step in enumerate(warm.steps):
            fixed, practiced = apply_steps(warm.steps[:k + 1])
            golden = golden_score(
                model, edited_interactions(fixed, practiced), *TARGET)
            assert abs(step.score - golden) < ATOL
        assert warm.achieved == (warm.final_score >= query.threshold)


# ---------------------------------------------------------------------------
# Admission validation: every rejection is a taxonomy value
# ---------------------------------------------------------------------------
class TestAdmission:
    BAD = [
        ({"threshold": -0.1}, MalformedQuery, "threshold"),
        ({"threshold": 1.5}, MalformedQuery, "threshold"),
        ({"threshold": "high"}, MalformedQuery, "threshold"),
        ({"max_edits": 0}, MalformedQuery, "max_edits"),
        ({"max_edits": 999}, MalformedQuery, "max_edits"),
        ({"max_edits": 2.5}, MalformedQuery, "max_edits"),
        ({"beam_width": 0}, MalformedQuery, "beam_width"),
        ({"beam_width": 999}, MalformedQuery, "beam_width"),
        ({"allow_history_edits": "yes"}, MalformedQuery,
         "allow_history_edits"),
        ({"question_id": 9999}, InvalidQuestion, "9999"),
        ({"candidates": (CandidateQuestion(9999, (1,)),)},
         InvalidQuestion, "9999"),
    ]

    @pytest.mark.parametrize("overrides,error_cls,fragment", BAD,
                             ids=[str(sorted(b[0])[0]) + "-" + b[2]
                                  for b in BAD])
    def test_invalid_parameters(self, stack, overrides, error_cls,
                                fragment):
        service, _ = stack
        fields = {"student_id": "kai", "question_id": TARGET[0],
                  "concept_ids": TARGET[1], "candidates": CANDIDATES}
        fields.update(overrides)
        reply = service.execute(RecourseQuery(**fields))
        assert isinstance(reply, error_cls)
        assert fragment in reply.message

    def test_no_edit_dimension_is_rejected(self, stack):
        service, _ = stack
        reply = service.execute(RecourseQuery(
            "kai", *TARGET, candidates=(), allow_history_edits=False))
        assert isinstance(reply, MalformedQuery)
        assert "edit dimension" in reply.message

    def test_unknown_student(self, stack):
        service, _ = stack
        reply = service.execute(RecourseQuery(
            "ghost", *TARGET, candidates=CANDIDATES))
        assert isinstance(reply, UnknownStudent)
        assert "ghost" in reply.message

    def test_errors_do_not_poison_batch_siblings(self, stack):
        service, _ = stack
        replies = service.execute_batch([
            RecourseQuery("ghost", *TARGET, candidates=CANDIDATES),
            RecourseQuery("kai", *TARGET, threshold=2.0),
            ScoreQuery("kai", *TARGET),
            RecourseQuery("kai", *TARGET, threshold=0.0,
                          candidates=CANDIDATES),
        ])
        assert isinstance(replies[0], UnknownStudent)
        assert isinstance(replies[1], MalformedQuery)
        assert replies[2].ok and replies[3].ok

    def test_all_history_edits_with_no_incorrect_responses(self):
        # A perfect history has nothing to fix: with no candidates
        # either, the search has no moves and reports best-effort.
        service, engine = make_service(student="ace")
        try:
            for question, _, concepts in HISTORY:
                engine.record("flawless", question, 1, concepts)
            reply = service.execute(RecourseQuery(
                "flawless", *TARGET, threshold=1.0, max_edits=2))
            assert reply.ok and not reply.achieved
            assert reply.steps == () and reply.generations == 0
        finally:
            service.close()


# ---------------------------------------------------------------------------
# The batching contract: one shared forward-stream batch per generation
# ---------------------------------------------------------------------------
class TestGenerationBatching:
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

        monkeypatch.setattr(encoder, "forward_stream_with_capture",
                            capture)
        monkeypatch.setattr(encoder, "forward_stream", forward)
        return counts

    def test_warm_practice_search_runs_zero_forward_passes(self, stack,
                                                           monkeypatch):
        """Candidate-only worlds extend clones of the warm stream cache
        step by step: the whole multi-generation search costs no
        forward-stream work at all."""
        service, engine = stack
        service.execute(ScoreQuery("kai", *TARGET))   # warm the cache
        counts = self._counting(engine, monkeypatch)
        reply = service.execute(RecourseQuery(
            "kai", *TARGET, threshold=0.99, max_edits=3, beam_width=2,
            candidates=CANDIDATES, allow_history_edits=False))
        assert reply.ok and reply.generations == 3
        assert reply.worlds_scored > reply.generations   # shared batches
        assert counts == {"capture": 0, "forward": 0}

    def test_zero_budget_search_extends_its_own_batch_entries(
            self, monkeypatch):
        """A zero budget keeps nothing between batches, yet a search
        still extends the entries its own batches built: the baseline
        flush runs the one capture pass, the first generation extends
        the entry that served its baseline probe, and later
        generations clone-extend those worlds."""
        service, engine = make_service(stream_cache_bytes=0)
        try:
            replies = service.execute_batch([
                RecordEvent("kai", 4, 0, (2,)),
                ScoreQuery("kai", *TARGET),
                ExplainQuery("kai"),
                WhatIfQuery("kai", *TARGET, (HistoryEdit(1, "flip"),)),
                RecommendQuery("kai", CANDIDATES, horizon=2),
            ])
            assert all(reply.ok for reply in replies), replies
            stats = engine.stream_cache_stats()
            assert (stats["entries"], stats["bytes"],
                    stats["evictions"]) == (0, 0, 0)
            counts = self._counting(engine, monkeypatch)
            reply = service.execute(RecourseQuery(
                "kai", *TARGET, threshold=0.99, max_edits=3, beam_width=2,
                candidates=CANDIDATES, allow_history_edits=False))
            assert reply.ok and reply.generations == 3
            assert counts == {"capture": 1, "forward": 0}
        finally:
            service.close()

    def test_value_worlds_extend_the_flush_entry_after_an_eviction(
            self, monkeypatch):
        """A budget below the envelope's working set evicts the
        recommending student's entry within the flush, yet its value
        worlds still extend the entry that served its probes: no world
        row warm-builds after the flush, and the reply equals the one a
        default budget serves."""
        from repro.serve import engine as engine_module
        students = [f"s{k}" for k in range(8)]
        candidates = tuple(CandidateQuestion(q, (1 + q % NUM_CONCEPTS,))
                           for q in (4, 8, 16, 23))
        envelope = [RecommendQuery(students[0], candidates, horizon=2)]
        envelope += [ScoreQuery(student, *TARGET)
                     for student in students[1:]]

        def serve(budget):
            rng = np.random.default_rng(23)
            engine = InferenceEngine(
                RCKT(NUM_QUESTIONS, NUM_CONCEPTS,
                     RCKTConfig(encoder="akt", dim=16, layers=1, seed=3)),
                stream_cache_bytes=budget)
            for student in students:
                for _ in range(int(rng.integers(20, 31))):
                    engine.record(
                        student, int(rng.integers(1, NUM_QUESTIONS + 1)),
                        int(rng.integers(0, 2)),
                        (int(rng.integers(1, NUM_CONCEPTS + 1)),))
            service = Service(engine)
            try:
                return service.execute_batch(envelope), engine
            finally:
                service.close()

        built = []
        real_build = engine_module.build_stream_caches

        def build(model, histories):
            built.append(len(histories))
            return real_build(model, histories)

        monkeypatch.setattr(engine_module, "build_stream_caches", build)
        replies, engine = serve(20 * 1024)
        assert all(reply.ok for reply in replies), replies
        assert engine.stream_cache_stats()["evictions"] > 0
        # One warm-build for the eight cold students, none after it.
        assert built == [len(students)]
        reference, _ = serve(DEFAULT_STREAM_CACHE_BYTES)
        for ours, theirs in zip(replies, reference):
            assert wire_equal(to_wire(ours), to_wire(theirs), ATOL)

    def test_history_edit_search_rebuilds_once_per_generation(self,
                                                              monkeypatch):
        """Fix-history worlds rewrite the middle of the timeline, so
        they must re-encode — but all of a generation's worlds ride ONE
        stacked capture pass, plus one for the cold baseline flush."""
        service, engine = make_service()
        try:
            counts = self._counting(engine, monkeypatch)
            reply = service.execute(RecourseQuery(
                "kai", *TARGET, threshold=0.99, max_edits=2,
                beam_width=2, candidates=(CANDIDATES[0],)))
            assert reply.ok and reply.generations == 2
            # Generation g holds |fix moves| + practice children — far
            # more worlds than capture passes.
            assert reply.worlds_scored > reply.generations
            assert counts["forward"] == 0
            assert counts["capture"] == 1 + reply.generations
        finally:
            service.close()

    def test_recourse_baseline_rides_the_shared_mixed_flush(self,
                                                            monkeypatch):
        """A mixed envelope's cold students and the recourse baseline
        probe warm-build in the same single capture pass; only the
        per-generation rebuilds come on top."""
        service, engine = make_service()
        try:
            for question, correct, concepts in HISTORY:
                engine.record("lee", question, correct, concepts)
            counts = self._counting(engine, monkeypatch)
            replies = service.execute_batch([
                ScoreQuery("lee", *TARGET),
                RecourseQuery("kai", *TARGET, threshold=0.99,
                              max_edits=2, beam_width=2,
                              candidates=(CANDIDATES[0],)),
            ])
            assert all(reply.ok for reply in replies)
            assert counts["forward"] == 0
            assert counts["capture"] == 1 + replies[1].generations
        finally:
            service.close()


# ---------------------------------------------------------------------------
# Surface parity: facade == HTTP gateway == 2-shard cluster router
# ---------------------------------------------------------------------------
def wire_equal(ours, reference, atol):
    if type(ours) is not type(reference):
        return False
    if isinstance(ours, dict):
        return ours.keys() == reference.keys() and all(
            wire_equal(ours[key], reference[key], atol) for key in ours)
    if isinstance(ours, list):
        return len(ours) == len(reference) and all(
            wire_equal(a, b, atol) for a, b in zip(ours, reference))
    if isinstance(ours, float):
        return abs(ours - reference) <= atol
    return ours == reference


@pytest.mark.parametrize("encoder", ENCODERS)
def test_facade_gateway_and_router_agree(encoder):
    """The same recourse searches through all three public surfaces.

    dkt is exactly bit-identical; the attention encoders get a few ulp
    for BLAS reduction order over different padded batch widths (the
    same tolerance the cluster parity suite uses).
    """
    from repro.cluster import ScatterGatherRouter

    atol = 0.0 if encoder == "dkt" else 1e-12
    facade = Service(InferenceEngine(make_model(encoder)))
    gateway_service = Service(InferenceEngine(make_model(encoder)))
    shard_services = [Service(InferenceEngine(make_model(encoder)))
                      for _ in range(2)]
    gateway, _ = start_http_thread(gateway_service)
    shard_servers = [start_http_thread(service)[0]
                     for service in shard_services]
    router = ScatterGatherRouter(
        [ServiceClient(f"http://127.0.0.1:{server.server_port}",
                       timeout=10.0) for server in shard_servers])
    client = ServiceClient(f"http://127.0.0.1:{gateway.server_port}",
                           timeout=10.0)
    try:
        students = [f"{encoder}-r{k}" for k in range(4)]
        records = [RecordEvent(student, question, correct, concepts)
                   for student in students
                   for question, correct, concepts in HISTORY]
        for surface in (facade.execute_batch, client.execute_batch,
                        router.execute_batch):
            assert all(reply.ok for reply in surface(records))
        queries = [RecourseQuery(student, *TARGET,
                                 threshold=0.6 + 0.1 * k, max_edits=2,
                                 beam_width=2, candidates=CANDIDATES)
                   for k, student in enumerate(students)]
        reference = facade.execute_batch(queries)
        assert all(reply.ok for reply in reference)
        for surface_replies in (client.execute_batch(queries),
                                router.execute_batch(queries)):
            for ours, ref in zip(surface_replies, reference):
                assert wire_equal(to_wire(ours), to_wire(ref), atol), \
                    f"{to_wire(ours)} != {to_wire(ref)}"
    finally:
        client.close()
        router.close()
        gateway.shutdown()
        gateway.server_close()
        for server in shard_servers:
            server.shutdown()
            server.server_close()
        for service in [facade, gateway_service] + shard_services:
            service.close()


# ---------------------------------------------------------------------------
# The standalone monotonicity sweep
# ---------------------------------------------------------------------------
class TestMonotonicityReport:
    def test_report_matches_golden_deltas(self, stack):
        service, engine = stack
        report = service.monotonicity_report("kai")
        assert report["positions_checked"] == len(INCORRECT)
        assert report["history_length"] == len(HISTORY)
        assert report["window_start"] == 0
        deltas = []
        for position in INCORRECT:
            question, _, concepts = HISTORY[position]
            recorded = golden_score(engine.model, edited_interactions(),
                                    question, concepts)
            corrected = golden_score(
                engine.model, edited_interactions(fixed={position}),
                question, concepts)
            deltas.append(corrected - recorded)
        violations = [p for p, d in zip(INCORRECT, deltas) if d < 0.0]
        assert report["violations"] == len(violations)
        assert report["violation_positions"] == violations
        assert abs(report["mean_delta"] - np.mean(deltas)) < ATOL
        if violations:
            assert abs(report["max_drop"] - (-min(deltas))) < ATOL
        else:
            assert report["max_drop"] == 0.0

    def test_report_errors_are_values(self, stack):
        service, _ = stack
        assert isinstance(service.monotonicity_report("ghost"),
                          UnknownStudent)
        assert isinstance(service.monotonicity_report("kai", model="no"),
                          ModelNotLoaded)
        # Ill-typed arguments fail the query surface's field rules.
        for student_id, model in (([1], "default"), ({}, "default"),
                                  ("kai", ["x"])):
            report = service.monotonicity_report(student_id, model=model)
            assert isinstance(report, MalformedQuery), report

    def test_lowered_score_flags_agree_with_the_report(self, stack):
        """A fix_history step at position p in a recourse path scores
        the same correction the report probes — different probe
        questions, but both must call the same timeline edit."""
        service, _ = stack
        report = service.monotonicity_report("kai")
        reply = service.execute(RecourseQuery(
            "kai", *TARGET, threshold=1.0, max_edits=1, beam_width=32,
            candidates=()))
        assert reply.ok
        assert {step.position for step in reply.steps
                if step.kind == "fix_history"} <= set(INCORRECT)
        assert 0 <= report["violations"] <= report["positions_checked"]
