"""Differential oracle: every serving reply against the offline scorer.

One seeded hypothesis state machine drives a :class:`Service` through
records, every read query type, blue/green rollouts (one with a record
racing the warm standby) and cache squeezes.  The oracle keeps only what
each student recorded and which checkpoint is live.  For every read it
collates the student's anchored window slice from scratch and scores it
offline, with no stream cache and no shared batch:

* score and what-if: ``score_batch_targets`` on the slice plus the probe
  (:func:`test_long_context.truncated_recompute`);
* explain: :meth:`RCKT.influences` on the slice that ends at the target;
* recommend: ``recommendation._target_score`` and ``question_value``;
* monotonicity report: the recorded vs the corrected probe at each
  in-window incorrect position;
* recourse: the baseline, every step and the final score rescored on
  the edited timeline.  Where edits commute (history fixes plus at most
  one candidate) and every generation fits the beam, every edit set up
  to ``max_edits`` is enumerated: no smaller set may clear the
  threshold, and the reply's set must score best among sets of its
  size.

Every number must match to 1e-10 and every error must be the class the
oracle predicts.  The machine runs once per encoder × window × cache
budget; ``-m slow`` runs it longer.
"""

import tempfile
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, rule,
                                 run_state_machine_as_test)
from test_long_context import truncated_recompute

import repro.serve.engine as engine_module
from repro.core import RCKT, RCKTConfig
from repro.core.masking import window_start
from repro.data import Interaction, StudentSequence, collate
from repro.interpret.recommendation import _target_score, question_value
from repro.serve import (DEFAULT_STREAM_CACHE_BYTES, CandidateQuestion,
                         EmptyHistory, ExplainQuery, ExplainReply,
                         HistoryEdit, InferenceEngine, InvalidEdit,
                         RecommendQuery, RecommendReply, RecordEvent,
                         RecordReply, RecourseQuery, RecourseReply,
                         ScoreQuery, ScoreReply, Service, UnknownStudent,
                         WhatIfQuery, WhatIfReply)
from repro.tensor import no_grad

ATOL = 1e-10
NUM_QUESTIONS = 20
NUM_CONCEPTS = 5
#: s0-s2 start with a preloaded history; s3 is unknown until recorded.
STUDENTS = ("s0", "s1", "s2", "s3")
WINDOWS = (None, (8, 1), (8, 2))
BUDGETS = (DEFAULT_STREAM_CACHE_BYTES, 4096, 0)
RULES = {"record", "score", "explain", "what_if", "recommend", "recourse",
         "monotonicity_report", "rollout", "rollout_with_racing_record",
         "squeeze"}

STUDENT = st.sampled_from(STUDENTS)
CONCEPTS = st.lists(st.integers(1, NUM_CONCEPTS), min_size=1, max_size=2,
                    unique=True).map(tuple)
PROBE = st.tuples(st.integers(1, NUM_QUESTIONS), CONCEPTS)
EVENT = st.tuples(st.integers(1, NUM_QUESTIONS), st.integers(0, 1),
                  CONCEPTS)
EDIT = st.one_of(
    st.builds(HistoryEdit, st.integers(0, 15),
              st.sampled_from(("flip", "remove"))),
    st.builds(HistoryEdit, st.integers(0, 15), st.just("set"),
              st.sampled_from((0, 1, None))))


def candidates(min_size, max_size):
    return st.lists(PROBE, min_size=min_size, max_size=max_size,
                    unique_by=lambda probe: probe[0]).map(
        lambda probes: tuple(CandidateQuestion(*p) for p in probes))


def close(got, want):
    assert abs(got - want) <= ATOL, (got, want)


def slice_sequence(events, start) -> StudentSequence:
    return StudentSequence("ref", [Interaction(q, a, c)
                                   for q, a, c in events[start:]])


def offline_explain(model, events, window, hop):
    """(start, influence computation) for the last recorded response."""
    start = window_start(len(events) - 1, window, hop)
    sequence = slice_sequence(events, start)
    with no_grad():
        return start, model.influences(collate([sequence]),
                                       np.array([len(sequence) - 1]))


def apply_what_if(events, edits):
    """The edited timeline, or ``None`` when an edit is invalid."""
    positions = [edit.position for edit in edits]
    if len(set(positions)) != len(positions) or any(
            not 0 <= edit.position < len(events)
            or (edit.op == "set" and edit.value not in (0, 1))
            for edit in edits):
        return None
    edited = list(events)
    for edit in sorted(edits, key=lambda e: -e.position):
        question, correct, concepts = edited[edit.position]
        if edit.op == "remove":
            del edited[edit.position]
        else:
            value = 1 - correct if edit.op == "flip" else edit.value
            edited[edit.position] = (question, value, concepts)
    return edited


def recourse_timeline(events, query, fixed, practiced):
    """``events`` with ``fixed`` positions answered correctly and the
    ``practiced`` candidate indices appended, answered correctly."""
    timeline = [(q, 1 if position in fixed else a, c)
                for position, (q, a, c) in enumerate(events)]
    for index in practiced:
        candidate = query.candidates[index]
        timeline.append((candidate.question_id, 1,
                         tuple(candidate.concept_ids)))
    return timeline


def edit_sets(fix_positions, has_candidate, size):
    """Every (fixed positions, practice count) edit set of ``size``."""
    sets = []
    for repeats in range(size + 1 if has_candidate else 1):
        for fixed in combinations(fix_positions, size - repeats):
            sets.append((frozenset(fixed), repeats))
    return sets


class OracleMachine(RuleBasedStateMachine):
    """Drives one engine configuration; subclasses fix the combination."""

    encoder = "dkt"
    window = None
    budget = DEFAULT_STREAM_CACHE_BYTES
    fired = set()

    @initialize(seeds=st.tuples(st.integers(0, 50), st.integers(1, 50)),
                preload=st.lists(st.lists(EVENT, max_size=12), min_size=3,
                                 max_size=3))
    def boot(self, seeds, preload):
        """Checkpoints A and B in a tmp dir, A live, s0-s2 preloaded."""
        self.tmp = tempfile.TemporaryDirectory()
        self.models, self.paths = {}, {}
        for name, seed in zip("AB", (seeds[0], seeds[0] + seeds[1])):
            model = RCKT(NUM_QUESTIONS, NUM_CONCEPTS, RCKTConfig(
                encoder=self.encoder, dim=8, layers=1, seed=seed))
            self.paths[name] = Path(self.tmp.name) / f"{name}.npz"
            InferenceEngine(model).save(self.paths[name])
            self.models[name] = model
        self.live = "A"
        self.win, self.hop = self.window or (None, None)
        self.service = Service(InferenceEngine.from_checkpoint(
            self.paths["A"], stream_cache_bytes=self.budget,
            window=self.win, window_hop=self.hop))
        self.events = {}
        for student, events in zip(STUDENTS, preload):
            for event in events:
                self._record(student, event)

    def teardown(self):
        if hasattr(self, "tmp"):
            self.tmp.cleanup()

    # ------------------------------------------------------------------
    # Oracle state
    # ------------------------------------------------------------------
    @property
    def model(self):
        return self.models[self.live]

    def _fire(self, name):
        type(self).fired.add(name)

    def _record(self, student, event):
        question, correct, concepts = event
        reply = self.service.execute(RecordEvent(student, question, correct,
                                                 concepts))
        self.events.setdefault(student, []).append(event)
        assert isinstance(reply, RecordReply), reply
        assert reply.history_length == len(self.events[student])

    def _offline(self, events, probe):
        return truncated_recompute(self.model, events, probe, self.win,
                                   self.hop)

    def _sweep(self):
        """Score every student in one envelope against the oracle."""
        probe = (3, (1,))
        replies = self.service.execute_batch(
            [ScoreQuery(student, *probe) for student in STUDENTS])
        for student, reply in zip(STUDENTS, replies):
            events = self.events.get(student, [])
            assert isinstance(reply, ScoreReply), reply
            assert reply.history_length == len(events)
            close(reply.score, self._offline(events, probe))

    # ------------------------------------------------------------------
    # Records and reads
    # ------------------------------------------------------------------
    @rule(student=STUDENT, event=EVENT)
    def record(self, student, event):
        self._fire("record")
        self._record(student, event)

    @rule(student=STUDENT, probe=PROBE)
    def score(self, student, probe):
        self._fire("score")
        reply = self.service.execute(ScoreQuery(student, *probe))
        events = self.events.get(student, [])
        assert isinstance(reply, ScoreReply), reply
        assert reply.history_length == len(events)
        close(reply.score, self._offline(events, probe))

    @rule(student=STUDENT)
    def explain(self, student):
        self._fire("explain")
        reply = self.service.execute(ExplainQuery(student))
        events = self.events.get(student)
        if events is None:
            assert isinstance(reply, UnknownStudent), reply
            return
        if len(events) < 2:
            assert isinstance(reply, EmptyHistory), reply
            return
        assert isinstance(reply, ExplainReply), reply
        start, direct = offline_explain(self.model, events, self.win,
                                        self.hop)
        target = len(events) - 1
        assert (reply.target_question_id, reply.target_correct) \
            == events[target][:2]
        close(reply.score, float(direct.scores[0]))
        assert [item.position for item in reply.influences] \
            == list(range(start, target))
        for offset, item in enumerate(reply.influences):
            question, correct, _ = events[start + offset]
            assert (item.question_id, item.correct) == (question, correct)
            grid = direct.correct_deltas if correct \
                else direct.incorrect_deltas
            close(item.influence, float(grid.data[0, offset]))

    @rule(student=STUDENT, probe=PROBE,
          edits=st.lists(EDIT, min_size=1, max_size=2,
                         unique_by=lambda edit: edit.position).map(tuple))
    def what_if(self, student, probe, edits):
        self._fire("what_if")
        reply = self.service.execute(WhatIfQuery(student, *probe, edits))
        events = self.events.get(student)
        if events is None:
            assert isinstance(reply, UnknownStudent), reply
            return
        edited = apply_what_if(events, edits)
        if edited is None:
            assert isinstance(reply, InvalidEdit), reply
            return
        assert isinstance(reply, WhatIfReply), reply
        assert reply.history_length == len(edited)
        close(reply.score, self._offline(edited, probe))
        close(reply.baseline_score, self._offline(events, probe))

    @rule(student=STUDENT, candidates=candidates(1, 3),
          horizon=st.integers(1, 3), top_k=st.integers(1, 3),
          value_weight=st.sampled_from((1.0, 0.0, 2.5)))
    def recommend(self, student, candidates, horizon, top_k, value_weight):
        self._fire("recommend")
        query = RecommendQuery(student, candidates, top_k=top_k,
                               horizon=horizon, value_weight=value_weight)
        reply = self.service.execute(query)
        events = self.events.get(student)
        if not events:
            assert isinstance(reply, EmptyHistory), reply
            return
        assert isinstance(reply, RecommendReply), reply
        # Value worlds keep the recorded history's window start.
        sequence = slice_sequence(
            events, window_start(len(events), self.win, self.hop))
        expected = []
        for candidate in candidates:
            probe = Interaction(candidate.question_id, 1,
                                candidate.concept_ids)
            with no_grad():
                probability = _target_score(self.model, sequence, probe)
                value = question_value(self.model, sequence, probe,
                                       horizon=horizon)
            expected.append((candidate, probability, value,
                             1.0 - abs(probability - query.target_success)
                             + value_weight * value))
        expected.sort(key=lambda item: -item[3])
        assert len(reply.items) == min(top_k, len(candidates))
        for item, (candidate, probability, value, score) in zip(
                reply.items, expected):
            assert (item.question_id, item.concept_ids) \
                == (candidate.question_id, candidate.concept_ids)
            close(item.success_probability, probability)
            close(item.value, value)
            close(item.score, score)

    @rule(student=STUDENT)
    def monotonicity_report(self, student):
        self._fire("monotonicity_report")
        report = self.service.monotonicity_report(student)
        events = self.events.get(student)
        if events is None:
            assert isinstance(report, UnknownStudent), report
            return
        start = window_start(len(events), self.win, self.hop)
        positions = [p for p in range(start, len(events))
                     if events[p][1] == 0]
        deltas = []
        for position in positions:
            question, _, concepts = events[position]
            corrected = list(events)
            corrected[position] = (question, 1, concepts)
            deltas.append(self._offline(corrected, (question, concepts))
                          - self._offline(events, (question, concepts)))
        assert (report["history_length"], report["window_start"],
                report["positions_checked"]) \
            == (len(events), start, len(positions))
        violations = [p for p, delta in zip(positions, deltas)
                      if delta < 0.0]
        assert report["violation_positions"] == violations
        assert report["violations"] == len(violations)
        close(report["mean_delta"], float(np.mean(deltas)) if deltas
              else 0.0)
        close(report["max_drop"], -min(deltas) if violations else 0.0)

    @rule(student=STUDENT, probe=PROBE, candidates=candidates(0, 2),
          allow_history_edits=st.booleans(),
          max_edits=st.integers(1, 3),
          beam_width=st.sampled_from((1, 2, 32)),
          # Untrained dim-8 models move a score by ~1e-4 per edit.
          lift=st.sampled_from((1e-4, 1e-5, 3e-4, -0.05, 0.1)))
    def recourse(self, student, probe, candidates, allow_history_edits,
                 max_edits, beam_width, lift):
        self._fire("recourse")
        events = self.events.get(student)
        baseline = self._offline(events or [], probe)
        query = RecourseQuery(
            student, *probe,
            threshold=float(np.clip(baseline + lift, 0.0, 1.0)),
            max_edits=max_edits, beam_width=beam_width,
            candidates=candidates,
            allow_history_edits=allow_history_edits or not candidates)
        reply = self.service.execute(query)
        if events is None:
            assert isinstance(reply, UnknownStudent), reply
            return
        assert isinstance(reply, RecourseReply), reply
        close(reply.baseline_score, baseline)
        start = window_start(len(events), self.win, self.hop)
        fix_positions = [p for p in range(start, len(events))
                         if events[p][1] == 0] \
            if query.allow_history_edits else []
        index_of = {c.question_id: k for k, c in enumerate(candidates)}
        fixed, practiced, previous = set(), [], reply.baseline_score
        for step in reply.steps:
            if step.kind == "fix_history":
                assert step.position in fix_positions
                assert step.position not in fixed
                fixed.add(step.position)
            else:
                practiced.append(index_of[step.question_id])
            close(step.score, self._offline(
                recourse_timeline(events, query, fixed, practiced), probe))
            assert step.lowered_score == (step.score < previous)
            previous = step.score
        close(reply.final_score, previous)
        assert reply.history_length == len(events) + len(practiced)
        assert reply.achieved == (reply.final_score >= query.threshold)
        if reply.achieved and not reply.steps:
            assert reply.generations == 0
        self._check_minimal(events, query, fix_positions, reply)

    def _check_minimal(self, events, query, fix_positions, reply):
        """Brute-force minimality where edit sets map to timelines."""
        if len(query.candidates) > 1 or reply.generations == 0:
            return
        has_candidate = bool(query.candidates)
        by_size = [edit_sets(fix_positions, has_candidate, size)
                   for size in range(1, reply.generations + 1)]
        # Every generation that fed the next one kept all its worlds.
        if any(len(sets) > query.beam_width for sets in by_size[:-1]) \
                or sum(map(len, by_size)) > 64:
            return
        scores = [[self._offline(recourse_timeline(
            events, query, fixed, [0] * repeats),
            (query.question_id, query.concept_ids))
            for fixed, repeats in sets] for sets in by_size]
        for smaller in scores[:-1]:
            assert max(smaller) < query.threshold + ATOL
        if reply.achieved:
            assert len(reply.steps) == reply.generations
            close(reply.final_score, max(scores[-1]))
        else:
            best = max(max(level) for level in scores)
            close(reply.final_score, max(best, reply.baseline_score))

    # ------------------------------------------------------------------
    # Model and cache changes
    # ------------------------------------------------------------------
    @rule(warm_top=st.sampled_from((0, 1, 64)))
    def rollout(self, warm_top):
        self._fire("rollout")
        self._rollout(warm_top)
        self._sweep()

    @rule(warm_top=st.sampled_from((1, 64)), pick=st.integers(0, 3),
          event=EVENT)
    def rollout_with_racing_record(self, warm_top, pick, event):
        """A record lands between the standby's snapshot and its put:
        the warmed entry is stale and must heal on first use."""
        self._fire("rollout_with_racing_record")
        real = engine_module.build_stream_caches

        def racing(model, histories):
            engine_module.build_stream_caches = real
            self._record(histories[pick % len(histories)].student_id, event)
            return real(model, histories)

        engine_module.build_stream_caches = racing
        try:
            self._rollout(warm_top)
        finally:
            engine_module.build_stream_caches = real
        self._sweep()

    def _rollout(self, warm_top):
        target = "B" if self.live == "A" else "A"
        summary = self.service.rollout(self.paths[target], warm_top=warm_top)
        assert summary["warmed"] <= warm_top
        self.live = target

    @rule()
    def squeeze(self):
        self._fire("squeeze")
        self.service.engine().stream_caches.invalidate()


COMBOS = [(encoder, window, budget) for encoder in ("dkt", "akt")
          for window in WINDOWS for budget in BUDGETS]
COMBO_IDS = [f"{encoder}-{'w%d.%d' % window if window else 'full'}-"
             f"{budget}" for encoder, window, budget in COMBOS]


def machine_for(encoder, window, budget):
    # The class name seeds the derandomized draws, so every window and
    # budget of one encoder replays the same operation sequence.
    return type(f"OracleMachine_{encoder}", (OracleMachine,), {
        "encoder": encoder, "window": window, "budget": budget,
        "fired": set()})


def run_oracle(encoder, window, budget, examples, steps):
    machine = machine_for(encoder, window, budget)
    run_state_machine_as_test(machine, settings=settings(
        max_examples=examples, stateful_step_count=steps,
        derandomize=True, database=None, deadline=None,
        suppress_health_check=[HealthCheck.too_slow]))
    assert machine.fired == RULES, RULES - machine.fired


@pytest.mark.parametrize("encoder,window,budget", COMBOS, ids=COMBO_IDS)
def test_every_reply_matches_the_offline_oracle(encoder, window, budget):
    run_oracle(encoder, window, budget, examples=8, steps=30)


@pytest.mark.slow
@pytest.mark.parametrize("encoder,window,budget", COMBOS, ids=COMBO_IDS)
def test_long_oracle_runs_slow(encoder, window, budget):
    run_oracle(encoder, window, budget, examples=10, steps=60)
