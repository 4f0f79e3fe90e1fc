"""Prequential (test-then-train) evaluation over a record stream.

The prequential protocol is the streaming analogue of a held-out test
set: every event is **scored before it is recorded**, so each
prediction is made by a model that has never seen that event, and the
running AUC/accuracy over the stream is an unbiased estimate of online
generalisation.  :func:`prequential_run` drives it through the typed
:class:`~repro.serve.Service` facade — the same admission path
production queries take — and :func:`multi_step_sweep` extends the
protocol to k-step-ahead prediction (score the response at position
``t`` from the history up to ``t - k``).

Ordering matters twice over.  The journal replays **grouped per
student** (each student's whole acknowledged stream, students in
first-appearance order); scoring that order verbatim would let early
students be scored entirely cold and late students entirely warm.
:func:`round_robin` re-interleaves the groups — round ``r`` holds each
student's ``r``-th event, students in first-appearance order — which
preserves the per-student score-before-record invariant exactly (a
student appears at most once per round) while spreading history growth
evenly across the stream.  Batched execution leans on the same fact:
each round issues one all-reads batch (the scores) and then one
all-records batch, so no read in a round can observe its own event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.core.multi_target import score_targets
from repro.data import KTDataset, StudentSequence
from repro.eval import accuracy_score, auc_score
from repro.serve import (DEFAULT_MODEL, RecordEvent, ScoreQuery, ScoreReply,
                         is_error)
from repro.tensor import no_grad


class StreamingMetrics:
    """Running AUC/accuracy over a scored stream.

    ``auc`` is ``None`` until both classes have been observed —
    :func:`~repro.eval.auc_score` is undefined (and raises) on a
    single-class sample, and a streaming consumer must tolerate the
    warm-up window where every observed label agrees.
    """

    def __init__(self):
        self._labels: List[int] = []
        self._scores: List[float] = []
        self._positives = 0

    def update(self, label: int, score: float) -> None:
        label = int(label)
        if label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {label}")
        self._labels.append(label)
        self._scores.append(float(score))
        self._positives += label

    @property
    def count(self) -> int:
        return len(self._labels)

    @property
    def auc(self) -> Optional[float]:
        if self._positives in (0, self.count) or not self._labels:
            return None
        return auc_score(self._labels, self._scores)

    @property
    def accuracy(self) -> Optional[float]:
        if not self._labels:
            return None
        return accuracy_score(self._labels, self._scores)


@dataclass(frozen=True)
class TrajectoryPoint:
    """Cumulative metrics after ``events`` scored events."""

    events: int
    auc: Optional[float]
    accuracy: Optional[float]


@dataclass
class PrequentialReport:
    """Outcome of one prequential pass over a stream."""

    events: int = 0
    auc: Optional[float] = None
    accuracy: Optional[float] = None
    trajectory: List[TrajectoryPoint] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"events": self.events, "auc": self.auc,
                "accuracy": self.accuracy,
                "trajectory": [{"events": p.events, "auc": p.auc,
                                "accuracy": p.accuracy}
                               for p in self.trajectory]}


def round_robin(records: Iterable[RecordEvent]
                ) -> Iterator[List[RecordEvent]]:
    """Per-student groups re-interleaved into rounds.

    Yields round ``r`` = each student's ``r``-th event (students in
    first-appearance order; students with fewer than ``r`` events drop
    out).  Within every student the original order is untouched, so a
    prequential driver that scores round ``r`` before recording it
    never scores an event against a history containing that event.
    """
    streams: Dict[object, List[RecordEvent]] = {}
    for record in records:
        streams.setdefault(record.student_id, []).append(record)
    depth = 0
    while True:
        round_events = [stream[depth] for stream in streams.values()
                        if depth < len(stream)]
        if not round_events:
            return
        yield round_events
        depth += 1


def prequential_run(service, records: Iterable[RecordEvent],
                    model: str = DEFAULT_MODEL, checkpoint_every: int = 50,
                    interleave: bool = True) -> PrequentialReport:
    """Test-then-train over ``records`` through a ``Service``.

    Each event is scored (one batched all-reads envelope per round) and
    then recorded (one all-records envelope), mutating the service's
    history stores exactly as live traffic would — after the run the
    service holds every student's full stream.  ``interleave=False``
    processes ``records`` in the given order, one singleton round per
    event, for callers that already interleaved (or want journal replay
    order verbatim).  Metric snapshots land on the trajectory every
    ``checkpoint_every`` scored events and once at the end.

    A :class:`~repro.serve.protocol.ServiceError` reply to any query is
    a driver bug (journaled records are validated at append time), so
    it raises ``RuntimeError`` rather than skewing the metrics
    silently.
    """
    if checkpoint_every <= 0:
        raise ValueError("checkpoint_every must be positive")
    metrics = StreamingMetrics()
    report = PrequentialReport()
    rounds = round_robin(records) if interleave \
        else ([record] for record in records)
    next_checkpoint = checkpoint_every
    for round_events in rounds:
        reads = [ScoreQuery(student_id=r.student_id,
                            question_id=r.question_id,
                            concept_ids=r.concept_ids, model=model)
                 for r in round_events]
        for record, reply in zip(round_events,
                                 service.execute_batch(reads)):
            if is_error(reply) or not isinstance(reply, ScoreReply):
                raise RuntimeError(
                    f"prequential score for student "
                    f"{record.student_id!r} failed: {reply!r}")
            metrics.update(record.correct, reply.score)
        writes = [RecordEvent(student_id=r.student_id,
                              question_id=r.question_id, correct=r.correct,
                              concept_ids=r.concept_ids, model=model)
                  for r in round_events]
        for record, reply in zip(round_events,
                                 service.execute_batch(writes)):
            if is_error(reply):
                raise RuntimeError(
                    f"prequential record for student "
                    f"{record.student_id!r} failed: {reply!r}")
        if metrics.count >= next_checkpoint:
            report.trajectory.append(TrajectoryPoint(
                metrics.count, metrics.auc, metrics.accuracy))
            next_checkpoint = metrics.count + checkpoint_every
    report.events = metrics.count
    report.auc = metrics.auc
    report.accuracy = metrics.accuracy
    if not report.trajectory or report.trajectory[-1].events != report.events:
        report.trajectory.append(TrajectoryPoint(
            report.events, report.auc, report.accuracy))
    return report


def multi_step_sweep(model, dataset: KTDataset,
                     horizons: Sequence[int] = (1, 2, 3),
                     min_history: int = 2,
                     batch_size: int = 64) -> Dict[int, dict]:
    """k-step-ahead prediction sweep: degradation with forecast depth.

    For horizon ``k`` and every target position ``t`` with at least
    ``min_history`` visible interactions, the model scores the target
    question from the history truncated at ``t - k`` — ``k = 1`` is the
    standard next-step protocol, larger ``k`` measures how fast
    predictive power decays when the most recent responses are hidden.
    Each horizon is one :func:`~repro.core.multi_target.score_targets`
    call in eval mode; the model's mode is restored afterwards.

    Returns ``{k: {"auc": float|None, "accuracy": float|None,
    "targets": int}}``; ``auc`` is ``None`` when the horizon's targets
    are single-class.
    """
    if any(horizon <= 0 for horizon in horizons):
        raise ValueError("horizons must be positive")
    results: Dict[int, dict] = {}
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            for horizon in horizons:
                # context = history[:t-k+1] + the probe itself
                probes = [StudentSequence(
                    sequence.student_id,
                    sequence.interactions[:target - horizon + 1]
                    + [sequence[target]])
                    for sequence in dataset
                    for target in range(min_history + horizon - 1,
                                        len(sequence))]
                scores = score_targets(model, probes,
                                       [len(probe) - 1 for probe in probes],
                                       target_batch=batch_size)
                metrics = StreamingMetrics()
                for probe, score in zip(probes, scores):
                    metrics.update(probe[-1].correct, float(score))
                results[horizon] = {"auc": metrics.auc,
                                    "accuracy": metrics.accuracy,
                                    "targets": metrics.count}
    finally:
        if was_training:
            model.train()
    return results
