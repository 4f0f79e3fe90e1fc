"""Counterfactual recourse search: prescribe edits, not just explain.

KTCF ("Actionable Recourse in Knowledge Tracing via Counterfactual
Explanations", PAPERS.md) turns this paper's counterfactual machinery
from *explaining* a prediction into *prescribing* an intervention.  The
:class:`RecourseSearch` behind :class:`~repro.serve.protocol
.RecourseQuery` does exactly that: given a student and a target
question, find the **minimal** set of edits that lifts the predicted
success probability past a caller-supplied threshold.  Two edit
dimensions:

* ``fix_history`` — set an in-window incorrect recorded response to
  correct (the what-if machinery's ``set`` edit, searched instead of
  caller-supplied);
* ``practice`` — append a candidate question answered correctly (the
  assumed-answer worlds RecommendQuery already scores).

Search shape
------------
Breadth-first by edit count: generation ``g`` holds worlds with exactly
``g`` edits, so the first generation to clear the threshold *is* the
minimal edit set (ties broken toward the highest score).  ``beam_width``
bounds how many worlds survive each generation (1 = greedy); duplicate
edit *sets* reached along different paths are expanded once.

Batching contract: the query's plan (:mod:`repro.serve.service`)
puts the target's baseline probe in the batch's shared flush, and its
``finish`` runs the search after that flush.  Every world is one
:meth:`~repro.serve.history.Timeline.edited` step over the admission
snapshot, and every generation is scored through
:meth:`~repro.serve.engine.InferenceEngine.score_rows` as rows of
**one** shared forward-stream batch — and practice worlds whose parent
timeline is already warm carry a ``clone()`` of the parent's stream
cache extended by a single encoder step as their row's ``entry``,
costing *zero* forward passes.  Only ``fix_history`` worlds (whose edit
rewrites the middle of the timeline) are re-encoded, all of them in the
generation's single warm-build pass.  Forward-call counting tests pin
both properties.

The reply carries the chosen edit path with its per-step probability
trajectory, plus a per-step ``lowered_score`` monotonicity diagnostic
(Counterfactual Monotonic KT, PAPERS.md): every move adds a correct
response, so a score that *drops* flags an answer-bias violation —
:meth:`repro.serve.Service.monotonicity_report` sweeps the same signal
as a standalone probe.

Recommend value worlds
----------------------
A :class:`~repro.serve.protocol.RecommendQuery` value world is a
practice world with an assumed answer: the snapshot plus one candidate
answered 1 or 0, probed by each of the ``horizon`` most recent
questions.  :func:`recommend_values` builds them with the same
timeline edit and clone-extended warm entries the search uses, and
scores them through the same call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .engine import ContextRow, InferenceEngine
from .history import ArrayHistory
from .protocol import (RecommendQuery, RecourseQuery, RecourseReply,
                       RecourseStep)


def _practice_entry(engine: InferenceEngine, entry, practice: tuple):
    """A clone of warm ``entry`` extended by one ``practice``
    ``(question_id, concept_ids, correct)`` interaction: the practice
    world's private row entry, or ``None`` without a warm parent."""
    if entry is None:
        return None
    child = entry.clone()
    child.extend(engine.model, *practice)
    return child


@dataclass(frozen=True)
class _Move:
    """One candidate edit applied to a parent world."""

    kind: str                        # "fix_history" | "practice"
    question_id: int
    concept_ids: Tuple[int, ...]
    position: Optional[int] = None   # fix_history: absolute position
    candidate: Optional[int] = None  # practice: index into candidates


class _World:
    """One hypothetical timeline: the base history plus a move chain."""

    __slots__ = ("parent", "move", "fixed", "practiced", "length",
                 "score", "entry")

    def __init__(self, parent: Optional["_World"], move: Optional[_Move],
                 fixed: frozenset, practiced: Tuple[int, ...],
                 length: int):
        self.parent = parent
        self.move = move
        self.fixed = fixed            # fixed history positions
        self.practiced = practiced    # candidate indices, in append order
        self.length = length          # timeline length (base + practiced)
        self.score = None             # filled by the generation batch
        self.entry = None             # warm StudentStreamCache, if any

    def path(self) -> List["_World"]:
        """Root-exclusive chain of worlds, first move first."""
        nodes = []
        world = self
        while world.move is not None:
            nodes.append(world)
            world = world.parent
        return list(reversed(nodes))


class RecourseSearch:
    """One query's search over an admission-time history snapshot.

    ``snapshot`` is the *full*-history copy taken when the query's
    baseline probe was admitted (a concurrent ``record`` must never
    tear the search across two history states), ``baseline``
    the probe's score from the shared mixed-type batch and ``entry``
    the stream-cache entry that served that probe.  The root timeline
    starts from a clone of ``entry`` (:meth:`InferenceEngine.warm_entry`)
    — built by that very batch if the student was cold, and still at
    hand if the store has evicted it since — so first-generation
    practice worlds cost no forward pass.  A stale entry (a record
    extended it since admission) only forfeits that warm start.
    """

    def __init__(self, engine: InferenceEngine, model_name: str,
                 query: RecourseQuery, snapshot: ArrayHistory,
                 baseline: float, entry):
        self.engine = engine
        self.model_name = model_name
        self.query = query
        self.snapshot = snapshot
        self.baseline = float(baseline)
        self.base_length = snapshot.length
        # Every practice move appends its candidate answered correctly.
        self.practice = [(candidate.question_id,
                          tuple(candidate.concept_ids), 1)
                         for candidate in query.candidates]
        # Edits behind the serving window cannot move the score; only
        # in-window incorrect responses are fixable.
        window_start = engine.window_start(self.base_length)
        responses = snapshot.view()[1]
        self.fix_positions = tuple(
            int(p) for p in range(window_start, self.base_length)
            if responses[p] == 0) if query.allow_history_edits else ()
        root = _World(None, None, frozenset(), (), self.base_length)
        root.score = self.baseline
        root.entry = engine.warm_entry(entry, self.base_length)
        self.root = root

    # ------------------------------------------------------------------
    # Search loop
    # ------------------------------------------------------------------
    def run(self) -> RecourseReply:
        query = self.query
        if self.baseline >= query.threshold:
            return self._reply(self.root, True, 0, 0)
        beam = [self.root]
        best = None
        achieved = None
        generations = 0
        worlds_scored = 0
        while generations < query.max_edits:
            children = self._expand(beam)
            if not children:
                break
            generations += 1
            worlds_scored += len(children)
            self._score_generation(children)
            # Stable: ties keep the deterministic expansion order, so
            # every shard and the in-process facade pick the same path.
            children.sort(key=lambda world: -world.score)
            if best is None or children[0].score > best.score:
                best = children[0]
            if children[0].score >= query.threshold:
                achieved = children[0]
                break
            beam = children[:query.beam_width]
            for world in children[query.beam_width:]:
                world.entry = None   # losers' warm timelines die here
        if achieved is not None:
            return self._reply(achieved, True, generations, worlds_scored)
        chosen = best if best is not None and best.score > self.baseline \
            else self.root
        return self._reply(chosen, False, generations, worlds_scored)

    def _expand(self, beam: List[_World]) -> List[_World]:
        """All unseen one-move extensions of the beam, in beam order."""
        children = []
        seen = set()
        for world in beam:
            for move in self._moves(world):
                if move.kind == "fix_history":
                    fixed = world.fixed | {move.position}
                    practiced = world.practiced
                else:
                    fixed = world.fixed
                    practiced = world.practiced + (move.candidate,)
                # Practice order barely moves the final score and never
                # changes the edit *set*; exploring permutations would
                # burn the beam on duplicates.
                key = (fixed, tuple(sorted(practiced)))
                if key in seen:
                    continue
                seen.add(key)
                children.append(_World(world, move, fixed, practiced,
                                       self.base_length + len(practiced)))
        return children

    def _moves(self, world: _World):
        for position in self.fix_positions:
            if position in world.fixed:
                continue
            yield _Move("fix_history", *self.snapshot.question_at(position),
                        position=position)
        for index, (question_id, concept_ids, _) in enumerate(
                self.practice):
            yield _Move("practice", question_id, concept_ids,
                        candidate=index)

    # ------------------------------------------------------------------
    # Batched scoring
    # ------------------------------------------------------------------
    def _score_generation(self, children: List[_World]) -> None:
        """Score a whole generation as one shared forward-stream batch."""
        engine = self.engine
        probe = (self.query.question_id, self.query.concept_ids)
        rows = []
        for world in children:
            timeline = self.snapshot.edited(
                responses=dict.fromkeys(world.fixed, 1),
                appended=[self.practice[index] for index in world.practiced])
            start = engine.window_start(timeline.length)
            rows.append(ContextRow(timeline, start, probe,
                                   entry=self._extended_entry(world, start)))
        scored = engine.score_rows(lambda: rows)
        for index, world in enumerate(children):
            world.score = float(scored.scores[index])
            world.entry = scored.entries.get(index)

    def _extended_entry(self, world: _World, start: int):
        """Clone-extend the parent's warm entry for a practice world.

        Valid only when the child keeps the parent's window anchor (an
        append can slide the window, invalidating anchored state) and
        the parent's entry still covers its whole timeline.  Returns
        the row's private entry — zero forward passes for this row.
        """
        parent = world.parent
        move = world.move
        if (move.kind != "practice" or parent.entry is None
                or not parent.entry.covers(start, parent.length)):
            return None
        return _practice_entry(self.engine, parent.entry,
                               self.practice[move.candidate])

    # ------------------------------------------------------------------
    # Reply assembly
    # ------------------------------------------------------------------
    def _reply(self, world: _World, achieved: bool, generations: int,
               worlds_scored: int) -> RecourseReply:
        steps = []
        previous = self.baseline
        monotonic = True
        for node in world.path():
            move = node.move
            lowered = node.score < previous
            if lowered:
                monotonic = False
            steps.append(RecourseStep(
                kind=move.kind, question_id=move.question_id,
                score=float(node.score), position=move.position,
                concept_ids=move.concept_ids, lowered_score=lowered))
            previous = node.score
        query = self.query
        return RecourseReply(
            query.student_id, query.question_id,
            achieved=achieved, threshold=float(query.threshold),
            baseline_score=self.baseline,
            final_score=float(steps[-1].score) if steps
            else self.baseline,
            steps=tuple(steps), monotonic=monotonic,
            generations=generations, worlds_scored=worlds_scored,
            history_length=world.length, model=self.model_name)


def recommend_values(engine: InferenceEngine, query: RecommendQuery,
                     snapshot: ArrayHistory, entry) -> np.ndarray:
    """Counterfactual question values of the candidates (Sec. V-C).

    For each candidate and each assumed answer (correct, incorrect),
    re-ask the ``horizon`` most recent questions of the serving window
    and measure how far the two worlds pull those re-asked scores
    apart.  ``snapshot`` is the full-history copy the query's success
    probes were admitted against and ``entry`` the stream-cache entry
    that served them.  Every world keeps the recorded history's window
    start, the context those probes scored, and extends a clone of
    ``entry`` by its one practice step, so all ``2 * horizon`` rows per
    candidate share one batch with no forward pass of their own.
    """
    length = snapshot.length
    start = engine.window_start(length)
    probes = [snapshot.question_at(p)
              for p in range(max(start, length - query.horizon), length)]
    root = engine.warm_entry(entry, length)
    rows = []
    for candidate in query.candidates:
        for answer in (1, 0):
            practice = (candidate.question_id, candidate.concept_ids,
                        answer)
            timeline = snapshot.edited(appended=(practice,))
            world = _practice_entry(engine, root, practice)
            rows.extend(ContextRow(timeline, start, probe, entry=world)
                        for probe in probes)
    scores = engine.score_rows(lambda: rows).scores
    return np.array([np.abs(correct - incorrect).mean()
                     for correct, incorrect in
                     scores.reshape(len(query.candidates), 2, len(probes))])
