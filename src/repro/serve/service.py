"""The transport-agnostic ``Service`` facade: query plans, typed edges.

Every serving capability flows through :meth:`Service.execute` /
:meth:`Service.execute_batch` as a typed query
(:mod:`repro.serve.protocol`) and comes back as a typed reply or a
structured :class:`~repro.serve.protocol.ServiceError` **value** — the
facade never raises across its boundary for a bad request, which is what
lets the HTTP gateway forward the exact same taxonomy.

Query plans
-----------
Each read query type is declared once, as a *plan* (:data:`_PLANS`):
called under the engine lock with the engine, the addressed model name,
the query and the student's recorded history (``None`` if unknown), it
returns a taxonomy error, or its :class:`~repro.serve.engine.ContextRow`
rows plus a ``finish(scored, first)`` that builds the typed reply from
the batch's :class:`~repro.serve.engine.ScoredRows` once the lock is
released (``first`` is the plan's first row in the batch).  One batch:

1. screens every slot with the protocol's field rules
   (:func:`~repro.serve.protocol.admission_error`), then routes the
   admitted queries to their named model (:class:`ModelRegistry`);
2. applies every :class:`RecordEvent` first, in envelope order;
3. admits every read query's plan inside **one**
   :meth:`InferenceEngine.score_rows` call per model, so every read
   sees the same post-record history and all their rows — score
   probes, explain targets, both timelines of a what-if, one success
   probe per recommend candidate, a recourse query's baseline probe —
   share one forward-stream batch, each plan's rows contiguous;
4. calls each plan's ``finish`` in query order, except recommend and
   recourse: their ``finish`` scores hypothetical worlds (value worlds,
   search generations) through the same call, so they finish last.
   Each ``finish`` is guarded on its own: if it raises, only its slot
   gets an :class:`~repro.serve.protocol.InternalError`.

Replies come back in query order.  Every row conditions on its anchored
window slice, identical to the offline scorer on that slice.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .. import obs
from ..obs import names as metric_names
from .engine import ContextRow, InferenceEngine
from .history import ArrayHistory, StudentHistory
from .protocol import (DEFAULT_MODEL, DEFAULT_WARM_TOP, PROTOCOL_VERSION,
                       BatchEnvelope, BatchReply, EmptyHistory,
                       ExplainQuery, ExplainReply,
                       InfluenceItem, InternalError, InvalidEdit,
                       MalformedQuery, ModelNotLoaded, RecommendQuery,
                       RecommendReply, RecommendationItem, RecordEvent,
                       RecordReply, RecourseQuery, ScoreQuery, ScoreReply,
                       UnknownStudent, WhatIfQuery, WhatIfReply,
                       admission_error, capabilities, is_error)
from .recourse import RecourseSearch, recommend_values
from .registry import ModelRegistry, registry_for


# ----------------------------------------------------------------------
# Error values built in more than one place
# ----------------------------------------------------------------------
def _internal_error(engine: InferenceEngine, error: Exception):
    return InternalError(
        f"scheduler failure in model '{engine.name}': "
        f"{type(error).__name__}: {error}", details={"model": engine.name})


def _guarded(engine: InferenceEngine, run, *args):
    """``run(*args)``, or an :class:`InternalError` value if it raises:
    the facade never raises across its boundary, and a failure stays in
    its own slot."""
    try:
        return run(*args)
    except Exception as error:  # noqa: BLE001 — taxonomy boundary
        return _internal_error(engine, error)


def _history_error(cls, engine: InferenceEngine, student_id, needs: str,
                   **details):
    """An :class:`UnknownStudent` / :class:`EmptyHistory` value saying
    what the query ``needs``."""
    return cls(f"{needs}{engine.error_context(student_id)}",
               details={"student_id": str(student_id), **details,
                        "model": engine.name})


def _vocabulary_error(engine: InferenceEngine, student_id, probes):
    """The id error of the first probe (anything with ``question_id``
    and ``concept_ids``) outside the model's vocabulary, else ``None``."""
    for probe in probes:
        error = engine.id_error(probe.question_id, probe.concept_ids,
                                student_id)
        if error is not None:
            return error
    return None


def _probe_row(engine: InferenceEngine, history, probe,
               cache_key=None) -> ContextRow:
    """A row probing ``history``'s serving window with ``probe``'s
    question (a query or a candidate)."""
    return ContextRow(history, engine.window_start(history.length),
                      (probe.question_id, probe.concept_ids), cache_key)


# ----------------------------------------------------------------------
# Query plans
# ----------------------------------------------------------------------
def _score_plan(engine, model, query: ScoreQuery, history):
    error = _vocabulary_error(engine, query.student_id, [query])
    if error is not None:
        return error
    history = history or StudentHistory(query.student_id)
    length = history.length

    def finish(scored, first):
        return ScoreReply(query.student_id, query.question_id,
                          float(scored.scores[first]), length, model=model)
    return [_probe_row(engine, history, query, query.student_id)], finish


def _explain_plan(engine, model, query: ExplainQuery, history):
    if history is None or history.length < 2:
        # The taxonomy distinguishes "who?" from "not enough yet",
        # but the message keeps the engine's historical wording.
        return _history_error(
            UnknownStudent if history is None else EmptyHistory, engine,
            query.student_id, "influences need at least two recorded "
            "responses", history_length=history.length if history else 0)
    # The target is the last response; the window bounds the history
    # *before* it.
    target = history.length - 1
    start = engine.window_start(target)
    questions, responses = (array[start:].copy()
                            for array in history.view()[:2])

    def finish(scored, first):
        correct_deltas, incorrect_deltas = scored.deltas[first]
        items = []
        for offset in range(target - start):
            correct = int(responses[offset])
            delta = correct_deltas[offset] if correct \
                else incorrect_deltas[offset]
            items.append(InfluenceItem(
                position=start + offset,
                question_id=int(questions[offset]),
                correct=correct,
                influence=float(delta)))
        return ExplainReply(
            query.student_id, target_question_id=int(questions[-1]),
            target_correct=int(responses[-1]),
            score=float(scored.scores[first]), influences=tuple(items),
            model=model)
    return [ContextRow(history, start, None,
                       cache_key=query.student_id)], finish


def _what_if_plan(engine, model, query: WhatIfQuery, history):
    error = _vocabulary_error(engine, query.student_id, [query])
    if error is not None:
        return error
    if history is None:
        return _history_error(UnknownStudent, engine, query.student_id,
                              "what-if replay needs a recorded history")
    edited = _edited_history(engine, history, query)
    if is_error(edited):
        return edited
    # Two rows: the edited timeline (detached — never cached) and the
    # recorded baseline (shares the student's cache slot with any
    # ScoreQuery in the batch).
    rows = [_probe_row(engine, edited, query),
            _probe_row(engine, history, query, query.student_id)]

    def finish(scored, first):
        return WhatIfReply(
            query.student_id, query.question_id, float(scored.scores[first]),
            baseline_score=float(scored.scores[first + 1]),
            history_length=edited.length, model=model)
    return rows, finish


def _edited_history(engine, history, query: WhatIfQuery):
    """Edited detached timeline, or the first ``InvalidEdit``.

    Each edit's op and integer position passed the field rules; what
    is left needs the history or compares edits with each other.
    """
    length = history.length
    context = engine.error_context(query.student_id)
    for edit in query.edits:
        if not 0 <= edit.position < length:
            return InvalidEdit(
                f"edit position {edit.position} outside the recorded "
                f"history [0, {length}){context}",
                details={"position": edit.position,
                         "history_length": length})
        if edit.op == "set" and edit.value not in (0, 1):
            return InvalidEdit(
                f"edit value must be 0 or 1, got {edit.value!r}"
                f"{context}", details={"value": edit.value})
    positions = [edit.position for edit in query.edits]
    if len(set(positions)) != len(positions):
        duplicate = next(p for p in positions if positions.count(p) > 1)
        return InvalidEdit(
            f"duplicate edit position {duplicate}: positions index "
            f"the history before any edits apply, so each may be "
            f"edited at most once per query{context}",
            details={"position": duplicate})
    questions, responses, concepts, counts = \
        (array.copy() for array in history.view())
    # Highest position first: removals never shift a pending index.
    for edit in sorted(query.edits, key=lambda e: -e.position):
        if edit.op == "flip":
            responses[edit.position] = 1 - responses[edit.position]
        elif edit.op == "set":
            responses[edit.position] = edit.value
        else:
            keep = np.arange(len(questions)) != edit.position
            questions = questions[keep]
            responses = responses[keep]
            concepts = concepts[keep]
            counts = counts[keep]
    return ArrayHistory(query.student_id, questions, responses,
                        concepts, counts)


def _recommend_plan(engine, model, query: RecommendQuery, history):
    error = _vocabulary_error(engine, query.student_id, query.candidates)
    if error is not None:
        return error
    if history is None or history.length == 0:
        return _history_error(EmptyHistory, engine, query.student_id,
                              "recommendation needs a non-empty history")
    if not query.candidates:
        return [], lambda scored, first: RecommendReply(
            query.student_id, (), model=model)
    # The value worlds run after the flush, against this snapshot.
    snapshot = tuple(array.copy() for array in history.view())

    def finish(scored, first):
        """Blend the shared-batch success probes with the value worlds."""
        values = recommend_values(engine, query, snapshot,
                                  scored.entries[first])
        items = []
        for offset, (candidate, value) in enumerate(zip(query.candidates,
                                                        values)):
            probability = float(scored.scores[first + offset])
            difficulty_fit = 1.0 - abs(probability - query.target_success)
            items.append(RecommendationItem(
                question_id=candidate.question_id,
                concept_ids=tuple(candidate.concept_ids),
                success_probability=probability,
                value=float(value),
                score=difficulty_fit + query.value_weight * float(value)))
        items.sort(key=lambda item: -item.score)
        return RecommendReply(query.student_id, tuple(items[:query.top_k]),
                              model=model)
    return [_probe_row(engine, history, candidate, query.student_id)
            for candidate in query.candidates], finish


def _recourse_plan(engine, model, query: RecourseQuery, history):
    if not query.allow_history_edits and not query.candidates:
        return MalformedQuery(
            f"recourse needs at least one edit dimension: provide "
            f"candidates or allow history edits"
            f"{engine.error_context(query.student_id)}")
    error = _vocabulary_error(engine, query.student_id,
                              (query, *query.candidates))
    if error is not None:
        return error
    if history is None:
        return _history_error(UnknownStudent, engine, query.student_id,
                              "recourse search needs a recorded history")
    if history.length == 0:
        return _history_error(EmptyHistory, engine, query.student_id,
                              "recourse search needs a non-empty history")
    # Full-history snapshot: the search edits absolute positions and
    # re-windows every hypothetical timeline itself.
    snapshot = tuple(array.copy() for array in history.view())

    def finish(scored, first):
        return RecourseSearch(engine, model, query, snapshot,
                              scored.scores[first],
                              scored.entries[first]).run()
    return [_probe_row(engine, history, query, query.student_id)], finish


def _monotonicity_plan(engine, model, query: ExplainQuery, history):
    """The plan behind :meth:`Service.monotonicity_report`."""
    student_id = query.student_id
    if history is None:
        return _history_error(UnknownStudent, engine, student_id,
                              "monotonicity report needs a recorded history")
    if history.length == 0:
        return _history_error(EmptyHistory, engine, student_id,
                              "monotonicity report needs a non-empty history")
    questions, responses, concepts, counts = \
        (array.copy() for array in history.view())
    length = len(questions)
    start = engine.window_start(length)
    positions = [p for p in range(start, length) if responses[p] == 0]
    recorded = ArrayHistory(student_id, questions, responses, concepts,
                            counts)
    rows: List[ContextRow] = []
    for position in positions:
        probe = (int(questions[position]),
                 tuple(int(c) for c in concepts[position, :counts[position]]))
        corrected = responses.copy()
        corrected[position] = 1
        rows.append(ContextRow(recorded, start, probe))
        rows.append(ContextRow(ArrayHistory(student_id, questions, corrected,
                                            concepts, counts), start, probe))

    def finish(scored, first):
        scores = scored.scores[first:first + len(rows)]
        deltas = [float(scores[2 * k + 1] - scores[2 * k])
                  for k in range(len(positions))]
        violations = [positions[k] for k, delta in enumerate(deltas)
                      if delta < 0.0]
        return {
            "student_id": student_id,
            "model": model,
            "history_length": length,
            "window_start": start,
            "positions_checked": len(positions),
            "violations": len(violations),
            "violation_positions": violations,
            "max_drop": float(-min(deltas)) if violations else 0.0,
            "mean_delta": float(np.mean(deltas)) if deltas else 0.0,
        }
    return rows, finish


#: Every read query type's plan.
_PLANS = {ScoreQuery: _score_plan, ExplainQuery: _explain_plan,
          WhatIfQuery: _what_if_plan, RecommendQuery: _recommend_plan,
          RecourseQuery: _recourse_plan}

#: Query types whose ``finish`` scores hypothetical worlds after the
#: flush: they reply last, so the other replies are not held (or
#: charged) for them.
_FINISH_LAST = (RecommendQuery, RecourseQuery)


def _apply_record(engine: InferenceEngine, model, query: RecordEvent):
    error = _vocabulary_error(engine, query.student_id, [query])
    if error is not None:
        return error
    length = engine.record(query.student_id, query.question_id,
                           query.correct, query.concept_ids)
    return RecordReply(query.student_id, length, model=model)


def _run_plans(engine: InferenceEngine, model, reads, replies) -> int:
    """Admit every ``(slot, query, plan)`` of ``reads`` inside one
    :meth:`InferenceEngine.score_rows` call, then finish each plan into
    its slot.  Returns the number of rows scored."""
    rows: List[ContextRow] = []
    pending = []

    def admit():
        for index, query, plan in reads:
            admitted = plan(engine, model, query,
                            engine.students.peek(query.student_id))
            if is_error(admitted):
                replies[index] = admitted
                continue
            plan_rows, finish = admitted
            pending.append((isinstance(query, _FINISH_LAST), index,
                            len(rows), finish))
            rows.extend(plan_rows)
        return rows

    try:
        scored = engine.score_rows(admit)
    except Exception as error:  # noqa: BLE001 — taxonomy boundary
        failure = _internal_error(engine, error)
        for index, _, _ in reads:
            if replies[index] is None:
                replies[index] = failure
        return 0
    # Stable: query order, then the plans that score worlds.
    pending.sort(key=lambda item: item[0])
    for _, index, first, finish in pending:
        replies[index] = _guarded(engine, finish, scored, first)
    return len(rows)


class _ReplySlots(list):
    """A batch's reply slots, noting the obs clock when each is filled.

    :meth:`Service.execute_batch` charges every query from its group's
    start to the moment its own slot was filled, so a score sharing an
    envelope with a recourse search is not reported at recourse latency.
    """

    def __init__(self, size: int):
        super().__init__([None] * size)
        self.filled_at = [0.0] * size

    def __setitem__(self, index, reply):
        super().__setitem__(index, reply)
        self.filled_at[index] = obs.clock()


class Service:
    """Typed, transport-agnostic facade over one or many models.

    Parameters
    ----------
    model:
        A :class:`~repro.core.RCKT`, an :class:`InferenceEngine`, or
        ``None`` when ``registry`` is given.  A bare model/engine is
        wrapped in a one-entry registry under its engine name
        (:data:`~repro.serve.protocol.DEFAULT_MODEL` unless the engine
        carries another).
    registry:
        A pre-populated :class:`ModelRegistry` for multi-model serving.
    engine_kwargs:
        Forwarded to :class:`InferenceEngine` when ``model`` is a bare
        model (``window=...``, ``stream_cache_bytes=...``, …).
    """

    def __init__(self, model=None, *, registry: Optional[ModelRegistry]
                 = None, **engine_kwargs):
        if (model is None) == (registry is None):
            raise ValueError("provide exactly one of model or registry")
        self.registry = registry if registry is not None \
            else registry_for(model, **engine_kwargs)
        # Instrument handles are captured at construction (and never
        # mutated afterwards): swapping the process registry affects
        # services built later, not this one — what the bench's
        # instrumented-vs-disabled arms rely on.
        self._obs = obs.get_registry()
        self._obs_batch_seconds = self._obs.histogram(
            metric_names.SERVICE_BATCH_SECONDS)
        self._obs_batch_size = self._obs.histogram(
            metric_names.SERVICE_BATCH_SIZE, buckets=obs.SIZE_BUCKETS)
        self._obs_coalesced_rows = self._obs.counter(
            metric_names.SERVICE_COALESCED_READS_TOTAL)

    @classmethod
    def from_checkpoint(cls, path, name: str = DEFAULT_MODEL,
                        **engine_kwargs) -> "Service":
        """One-model service straight from an engine checkpoint file."""
        registry = ModelRegistry()
        registry.load(name, path, **engine_kwargs)
        return cls(registry=registry)

    # ------------------------------------------------------------------
    # Registry conveniences
    # ------------------------------------------------------------------
    def engine(self, name: str = DEFAULT_MODEL) -> InferenceEngine:
        """The named engine; raises ``KeyError`` for unknown names
        (in-process administration — queries get ``ModelNotLoaded``)."""
        engine = self.registry.get(name)
        if engine is None:
            raise KeyError(f"no model named '{name}' is loaded "
                           f"(known: {self.registry.names()})")
        return engine

    def health(self) -> dict:
        """The ``/v1/health`` body: liveness, protocol capabilities,
        model names and each model's stream-cache stats."""
        stream_caches = {}
        for name in self.registry.names():
            engine = self.registry.get(name)
            if engine is not None:   # None: unregistered meanwhile
                stream_caches[name] = engine.stream_cache_stats()
        return {
            "status": "ok",
            "protocol": PROTOCOL_VERSION,
            "capabilities": capabilities(),
            "models": self.registry.names(),
            "stream_caches": stream_caches,
        }

    def models(self) -> dict:
        """The ``/v1/models`` body: per-model metadata."""
        return {"models": self.registry.describe()}

    def close(self) -> None:
        """Lifecycle hook; a service holds no threads or OS resources."""

    # ------------------------------------------------------------------
    # Warm blue/green rollout
    # ------------------------------------------------------------------
    def rollout(self, checkpoint, model: str = DEFAULT_MODEL,
                warm_top: int = DEFAULT_WARM_TOP, gate=None):
        """Blue/green checkpoint rollout with a warm standby.

        The one way a served model changes: an engine's model is bound
        at construction.  The live engine derives a *standby* from
        ``checkpoint`` (the green side, :meth:`InferenceEngine.standby`)
        that shares its history store and lock, pre-builds the standby's
        forward-stream caches for the ``warm_top`` hottest students (the
        live stream cache's LRU order *is* the hot set), and only then
        is ``model`` atomically rebound.  The blue engine keeps serving,
        records included, until the rebind; in-flight queries that
        already resolved it finish on the old weights.  The hot working
        set scores warm from the first post-swap request.

        ``gate``, when given, is a callable ``(incumbent_engine,
        standby_engine) -> Optional[ServiceError]`` consulted after the
        standby is built and id-space-validated but *before* it is
        warmed or bound.  A returned error value (typically
        :class:`~repro.serve.protocol.RolloutRefused` from a
        ``repro.online`` drift monitor) aborts the rollout and is
        **returned as that value, never raised** — the incumbent keeps
        serving and the standby is discarded.  This is the serve-side
        half of the continual-learning loop's auto-rollout gate
        (``docs/ONLINE.md``).

        Returns a summary dict (model, warmed count, encoder, students)
        on success.  Administration errors are values too:
        :class:`~repro.serve.protocol.ModelNotLoaded` for an unknown
        name, and ``MalformedQuery("rollout rejected: ...")`` for a
        checkpoint that cannot be read, lacks engine metadata or serves
        a different id space.
        """
        old = self.registry.get(model)
        if old is None:
            return ModelNotLoaded(f"no model named '{model}' is loaded "
                                  f"(known: {self.registry.names()})")
        try:
            standby = old.standby(checkpoint)
        except (ValueError, OSError) as error:
            return MalformedQuery(f"rollout rejected: {error}")
        if gate is not None:
            verdict = gate(old, standby)
            if is_error(verdict):
                return verdict
        warmed = old.warm_standby(standby, warm_top)
        self.registry.register(model, standby)
        return {"model": model, "warmed": warmed,
                "encoder": standby.model.config.encoder,
                "students": len(standby.students)}

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def execute(self, query):
        """Run one query synchronously; returns its reply or error.

        A :class:`BatchEnvelope` is accepted too (the gateway's
        ``/v1/query`` route feeds whatever decoded) and comes back as a
        :class:`~repro.serve.protocol.BatchReply`.
        """
        if isinstance(query, BatchEnvelope):
            return BatchReply(tuple(self.execute_batch(query)))
        return self.execute_batch([query])[0]

    def execute_batch(self, queries) -> List[object]:
        """Every query of a batch, replies in order.

        Accepts a :class:`BatchEnvelope` or any sequence of queries
        (stray :class:`~repro.serve.protocol.MalformedQuery` values from
        wire decoding pass through as their own replies).  Every slot is
        screened by :func:`~repro.serve.protocol.admission_error` before
        any model is consulted.  Never raises for a bad query — errors
        come back as values in its slot.
        """
        started = obs.clock()
        if isinstance(queries, BatchEnvelope):
            queries = queries.queries
        queries = list(queries)
        replies = _ReplySlots(len(queries))
        groups = {}
        for index, query in enumerate(queries):
            error = admission_error(query)
            if error is not None:
                replies[index] = error
            else:
                groups.setdefault(query.model, []).append((index, query))
                self._obs.counter(metric_names.SERVICE_REQUESTS_TOTAL,
                                  type=query.TYPE).inc()
        for model_name, group in groups.items():
            engine = self.registry.get(model_name)
            if engine is None:
                error = self._model_not_loaded(model_name)
                for index, _ in group:
                    replies[index] = error
                continue
            group_started = obs.clock()
            self._execute_group(engine, model_name, group, replies)
            # Each query's own latency: records when applied, reads at
            # their plan's finish, rejections when admission refused
            # them.
            for index, query in group:
                self._obs.histogram(
                    metric_names.SERVICE_QUERY_SECONDS, type=query.TYPE
                ).observe(replies.filled_at[index] - group_started)
        self._obs_batch_size.observe(len(queries))
        self._obs_batch_seconds.observe(obs.clock() - started)
        return list(replies)

    def _model_not_loaded(self, name: str) -> ModelNotLoaded:
        return ModelNotLoaded(
            f"no model named '{name}' is loaded "
            f"(known: {self.registry.names()})",
            details={"model": name, "known": tuple(self.registry.names())})

    # ------------------------------------------------------------------
    # Per-model execution
    # ------------------------------------------------------------------
    def _execute_group(self, engine: InferenceEngine, model_name: str,
                       group, replies: List[object]) -> None:
        # Replies echo `model_name` — the name the query addressed —
        # which can differ from `engine.name` when one engine is
        # served under aliases (see ModelRegistry.register).
        reads = []
        for index, query in group:
            if isinstance(query, RecordEvent):
                # Records first, in envelope order: every read of the
                # batch then observes the same post-record history.
                replies[index] = _guarded(engine, _apply_record, engine,
                                          model_name, query)
            else:
                reads.append((index, query, _PLANS[type(query)]))
        if reads:
            self._obs_coalesced_rows.inc(
                _run_plans(engine, model_name, reads, replies))

    # ------------------------------------------------------------------
    # Monotonicity diagnostic
    # ------------------------------------------------------------------
    def monotonicity_report(self, student_id,
                            model: str = DEFAULT_MODEL):
        """Count correct-response-lowers-mastery violations for a student.

        The standalone version of the recourse reply's ``lowered_score``
        flag (Counterfactual Monotonic KT, PAPERS.md) — and the answer-
        bias probe of the source paper: for every in-window *incorrect*
        recorded response, compare re-asking that question next on the
        recorded timeline vs the same timeline with the response set
        correct.  A well-behaved model should never predict *lower*
        mastery after the correction; each position where it does counts
        as a violation.  All ``2 × positions`` probes run as one shared
        forward-stream batch, admitted by a plan like a read query's.

        Returns a plain dict report — or a taxonomy error value
        (``malformed_query`` for an ill-typed argument, screened by the
        :class:`ExplainQuery` field rules; ``model_not_loaded`` /
        ``unknown_student`` / ``empty_history``), never an exception,
        mirroring the query surface.
        """
        query = ExplainQuery(student_id, model=model)
        error = admission_error(query)
        if error is not None:
            return error
        engine = self.registry.get(model)
        if engine is None:
            return self._model_not_loaded(model)
        report = [None]
        _run_plans(engine, model, [(0, query, _monotonicity_plan)], report)
        return report[0]
