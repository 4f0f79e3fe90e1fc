"""The transport-agnostic ``Service`` facade: one scheduler, typed edges.

Every serving capability flows through :meth:`Service.execute` /
:meth:`Service.execute_batch` as a typed query
(:mod:`repro.serve.protocol`) and comes back as a typed reply or a
structured :class:`~repro.serve.protocol.ServiceError` **value** — the
facade never raises across its boundary for a bad request, which is what
lets the HTTP gateway forward the exact same taxonomy.

The scheduler
-------------
``execute_batch`` is the single admission point.  One batch:

1. screens every slot with the protocol's field rules
   (:func:`~repro.serve.protocol.admission_error`), then routes the
   admitted queries to their named model (:class:`ModelRegistry`);
2. applies every :class:`RecordEvent` first, in envelope order — all
   read queries then observe the same post-record snapshot;
3. coalesces the heterogeneous read queries for each model —
   :class:`ScoreQuery` probes, :class:`ExplainQuery` targets, both
   timelines of every :class:`WhatIfQuery` (edited + baseline), and
   every :class:`RecommendQuery` candidate's success-probability
   probe — into **one shared forward-stream batch**: a single
   :class:`repro.core.multi_target.MultiTargetContext` whose forward
   half comes from the per-student incremental caches, with every
   missing row (cold students, edited timelines, off-anchor explain
   targets) warm-built in one stacked pass.  Only the per-target
   backward streams run per query, column-banded on the caller's
   thread.
4. scores each :class:`RecommendQuery`'s assumed-answer value worlds
   (:func:`~repro.serve.recourse.recommend_values`) and runs each
   :class:`RecourseQuery`'s search against the history snapshot their
   probes were admitted with.  Both are hypothetical worlds scored as
   rows through :meth:`InferenceEngine._score_rows`, extending a clone
   of the student's warm stream-cache entry instead of re-encoding the
   history.

Replies come back in query order.  Window semantics are inherited
unchanged: each row conditions on its anchored window slice, identical
to the engine's direct paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.tensor import no_grad

from .. import obs
from ..obs import names as metric_names
from .engine import InferenceEngine, _ContextRow
from .history import ArrayHistory, StudentHistory
from .protocol import (DEFAULT_MODEL, BatchEnvelope, BatchReply,
                       EmptyHistory,
                       ExplainQuery, ExplainReply, InfluenceItem,
                       InternalError, InvalidEdit, MalformedQuery,
                       ModelNotLoaded,
                       RecommendQuery, RecommendReply, RecommendationItem,
                       RecordEvent, RecordReply, RecourseQuery, ScoreQuery,
                       ScoreReply, UnknownStudent,
                       WhatIfQuery, WhatIfReply, admission_error, is_error)
from .recourse import RecourseSearch, recommend_values
from .registry import ModelRegistry, registry_for


@dataclass
class _ReadRow:
    """Scheduler bookkeeping for one row of a shared context batch.

    ``length`` snapshots the (windowed or edited) history length at
    admission — replies must describe the state the row was scored
    against, not whatever a concurrent ``record`` appended since.
    """

    index: int          # reply slot
    role: str           # "score" | "explain" | "what_if_edit"
    #                     | "what_if_base" | "recommend" | "recourse_base"
    query: object
    history: object
    start: int
    length: int


@dataclass
class _PendingRecourse:
    """One :class:`RecourseQuery` whose baseline probe rode the batch.

    ``snapshot`` pins *full*-history copies from admission time — the
    search generations run after the engine lock is released, and a
    concurrent ``record`` must never tear the search across two history
    states.  ``baseline`` collects the target's unedited score from the
    shared context.
    """

    query: RecourseQuery
    snapshot: tuple
    baseline: Optional[float] = None


@dataclass
class _PendingRecommend:
    """One :class:`RecommendQuery` whose probes ride the shared batch.

    ``snapshot`` pins *full*-history copies from admission time (the
    value worlds extend the context the probes scored, after the engine
    lock is released); ``probabilities`` collects the per-candidate
    success scores from the shared context, in candidate order.
    """

    query: RecommendQuery
    snapshot: tuple
    probabilities: List[float] = field(default_factory=list)


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
        self._obs_coalesced_reads = self._obs.counter(
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

    def describe_models(self) -> List[dict]:
        return self.registry.describe()

    def close(self) -> None:
        """Lifecycle hook; a service holds no threads or OS resources."""

    # ------------------------------------------------------------------
    # Warm blue/green rollout
    # ------------------------------------------------------------------
    def rollout(self, path, name: str = DEFAULT_MODEL,
                warm_top: int = 64, gate=None):
        """Blue/green checkpoint rollout with a warm standby.

        The one way a served model changes: an engine's model is bound
        at construction.  The live engine derives a *standby* from
        ``path`` (the green side, :meth:`InferenceEngine.standby`) that
        shares its history store and lock, pre-builds the standby's
        forward-stream caches for the ``warm_top`` hottest students (the
        live stream cache's LRU order *is* the hot set), and only then
        is ``name`` atomically rebound.  The blue engine keeps serving,
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
        on success.  In-process administration errors raise —
        ``KeyError`` for an unknown name, ``ValueError`` for a
        checkpoint without engine metadata or with a different id
        space; the HTTP gateway's ``/v1/admin/rollout`` route maps them
        onto the error taxonomy.
        """
        old = self.registry.get(name)
        if old is None:
            raise KeyError(f"no model named '{name}' is loaded "
                           f"(known: {self.registry.names()})")
        standby = old.standby(path)
        if gate is not None:
            verdict = gate(old, standby)
            if is_error(verdict):
                return verdict
        warmed = old.warm_standby(standby, warm_top)
        self.registry.register(name, standby)
        return {"model": name, "warmed": warmed,
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
        """The scheduler: every query of a batch, replies in order.

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
                error = ModelNotLoaded(
                    f"no model named '{model_name}' is loaded "
                    f"(known: {self.registry.names()})",
                    details={"model": model_name,
                             "known": tuple(self.registry.names())})
                for index, _ in group:
                    replies[index] = error
                continue
            group_started = obs.clock()
            self._execute_group(engine, model_name, group, replies)
            # Each query's own latency: records when applied, plain reads
            # at the shared flush, recommend/recourse after their
            # post-flush work, rejections when admission refused them.
            for index, query in group:
                self._obs.histogram(
                    metric_names.SERVICE_QUERY_SECONDS, type=query.TYPE
                ).observe(replies.filled_at[index] - group_started)
        self._obs_batch_size.observe(len(queries))
        self._obs_batch_seconds.observe(obs.clock() - started)
        return list(replies)

    # ------------------------------------------------------------------
    # Per-model execution
    # ------------------------------------------------------------------
    def _execute_group(self, engine: InferenceEngine, model_name: str,
                       group, replies: List[object]) -> None:
        # Replies echo `model_name` — the name the query addressed —
        # which can differ from `engine.name` when one engine is
        # served under aliases (see ModelRegistry.register).
        def guarded(index, run, *args):
            # The facade never raises across its boundary: anything a
            # handler still throws becomes an InternalError value in
            # that query's slot, leaving its siblings untouched.
            try:
                replies[index] = run(engine, model_name, *args)
            except Exception as error:  # noqa: BLE001 — taxonomy boundary
                replies[index] = InternalError(
                    f"scheduler failure in model '{engine.name}': "
                    f"{type(error).__name__}: {error}",
                    details={"model": engine.name})

        coalesced = []
        for index, query in group:
            if isinstance(query, RecordEvent):
                # Records first, in envelope order: every read of the
                # batch then observes the same post-record snapshot.
                guarded(index, self._apply_record, query)
            else:
                coalesced.append((index, query))
        if coalesced:
            try:
                self._flush_reads(engine, model_name, coalesced,
                                  replies)
            except Exception as error:   # noqa: BLE001 — taxonomy boundary
                failure = InternalError(
                    f"scheduler failure in model '{engine.name}': "
                    f"{type(error).__name__}: {error}",
                    details={"model": engine.name})
                for index, _ in coalesced:
                    if replies[index] is None:
                        replies[index] = failure

    def _apply_record(self, engine: InferenceEngine, model_name: str,
                      query: RecordEvent):
        error = engine._id_error(query.question_id, query.concept_ids,
                                 query.student_id)
        if error is not None:
            return error
        length = engine.record(query.student_id, query.question_id,
                               query.correct, query.concept_ids)
        return RecordReply(query.student_id, length, model=model_name)

    def _admit_recommend(self, engine, model_name, index,
                         query: RecommendQuery, rows, meta, recommends,
                         replies) -> None:
        """Admit a recommend query's success probes into the shared batch.

        One probe row per candidate (sharing the student's stream-cache
        slot with any :class:`ScoreQuery` in the batch).  The
        assumed-answer value worlds run after the shared flush
        (:func:`~repro.serve.recourse.recommend_values`), against the
        snapshot taken here.
        """
        for candidate in query.candidates:
            error = engine._id_error(candidate.question_id,
                                     candidate.concept_ids,
                                     query.student_id)
            if error is not None:
                replies[index] = error
                return
        history = engine.students.peek(query.student_id)
        if history is None or history.length == 0:
            replies[index] = EmptyHistory(
                f"recommendation needs a non-empty history"
                f"{engine._error_context(query.student_id)}",
                details={"student_id": str(query.student_id),
                         "model": engine.name})
            return
        if not query.candidates:
            replies[index] = RecommendReply(query.student_id, (),
                                            model=model_name)
            return
        start = engine._window_start(history.length)
        recommends[index] = _PendingRecommend(
            query, tuple(a.copy() for a in history.view()))
        for candidate in query.candidates:
            rows.append(_ContextRow(history, start,
                                    (candidate.question_id,
                                     candidate.concept_ids),
                                    cache_key=query.student_id))
            meta.append(_ReadRow(index, "recommend", query, history, start,
                                 history.length))

    def _admit_recourse(self, engine, index, query: RecourseQuery, rows,
                        meta, recourses, replies) -> None:
        """Admit a recourse query's baseline probe into the shared batch.

        The target's unedited score rides the same coalesced context as
        every other read (sharing the student's stream-cache slot); the
        search generations run after the flush, each as its own single
        shared batch (:class:`~repro.serve.recourse.RecourseSearch`).
        The field rules (budget caps included) were checked at admission,
        and id validation happens here, so a bad query never costs a
        forward pass.
        """
        if not query.allow_history_edits and not query.candidates:
            replies[index] = MalformedQuery(
                f"recourse needs at least one edit dimension: provide "
                f"candidates or allow history edits"
                f"{engine._error_context(query.student_id)}")
            return
        error = engine._id_error(query.question_id, query.concept_ids,
                                 query.student_id)
        if error is not None:
            replies[index] = error
            return
        for candidate in query.candidates:
            error = engine._id_error(candidate.question_id,
                                     candidate.concept_ids,
                                     query.student_id)
            if error is not None:
                replies[index] = error
                return
        history = engine.students.peek(query.student_id)
        if history is None:
            replies[index] = UnknownStudent(
                f"recourse search needs a recorded history"
                f"{engine._error_context(query.student_id)}",
                details={"student_id": str(query.student_id),
                         "model": engine.name})
            return
        if history.length == 0:
            replies[index] = EmptyHistory(
                f"recourse search needs a non-empty history"
                f"{engine._error_context(query.student_id)}",
                details={"student_id": str(query.student_id),
                         "model": engine.name})
            return
        # Full-history snapshot: the search edits absolute positions and
        # re-windows every hypothetical timeline itself.
        recourses[index] = _PendingRecourse(
            query, tuple(a.copy() for a in history.view()))
        start = engine._window_start(history.length)
        rows.append(_ContextRow(history, start,
                                (query.question_id, query.concept_ids),
                                cache_key=query.student_id))
        meta.append(_ReadRow(index, "recourse_base", query, history, start,
                             history.length))

    # ------------------------------------------------------------------
    # The mixed-type shared-context flush
    # ------------------------------------------------------------------
    def _flush_reads(self, engine: InferenceEngine, model_name: str,
                     coalesced, replies: List[object]) -> None:
        """Score + explain + what-if + recommend/recourse-probe batch."""
        rows: List[_ContextRow] = []
        meta: List[_ReadRow] = []
        recommends = {}
        recourses = {}
        with no_grad():
            with engine._lock:
                for index, query in coalesced:
                    if isinstance(query, ScoreQuery):
                        self._admit_score(engine, index, query, rows, meta,
                                          replies)
                    elif isinstance(query, ExplainQuery):
                        self._admit_explain(engine, index, query, rows,
                                            meta, replies)
                    elif isinstance(query, RecommendQuery):
                        self._admit_recommend(engine, model_name, index,
                                              query, rows, meta,
                                              recommends, replies)
                    elif isinstance(query, RecourseQuery):
                        self._admit_recourse(engine, index, query, rows,
                                             meta, recourses, replies)
                    else:
                        self._admit_what_if(engine, index, query, rows,
                                            meta, replies)
                if not rows:
                    return
                context, cols = engine._assemble_rows(rows)
            # Backward passes run outside the engine lock: the context
            # holds copies.
            probe_rows = np.array([k for k, row in enumerate(meta)
                                   if row.role != "explain"],
                                  dtype=np.int64)
            scores = np.full(len(rows), np.nan)
            if len(probe_rows):
                scores[probe_rows] = engine._score_context(
                    context, probe_rows, cols[probe_rows])
            explain_rows = np.array([k for k, row in enumerate(meta)
                                     if row.role == "explain"],
                                    dtype=np.int64)
            computation = None
            if len(explain_rows):
                computation = context.influences_for(explain_rows,
                                                     cols[explain_rows])
        self._obs_coalesced_reads.inc(len(rows))
        self._resolve_reads(engine, model_name, meta, scores, explain_rows,
                            computation, recommends, recourses, replies)

    def _admit_score(self, engine, index, query: ScoreQuery, rows, meta,
                     replies) -> None:
        error = engine._id_error(query.question_id, query.concept_ids,
                                 query.student_id)
        if error is not None:
            replies[index] = error
            return
        history = engine.students.peek(query.student_id) \
            or StudentHistory(query.student_id)
        start = engine._window_start(history.length)
        rows.append(_ContextRow(history, start,
                                (query.question_id, query.concept_ids),
                                cache_key=query.student_id))
        meta.append(_ReadRow(index, "score", query, history, start,
                             history.length))

    def _admit_explain(self, engine, index, query: ExplainQuery, rows,
                       meta, replies) -> None:
        history = engine.students.peek(query.student_id)
        if history is None or history.length < 2:
            # The taxonomy distinguishes "who?" from "not enough yet",
            # but the message keeps the engine's historical wording.
            cls = UnknownStudent if history is None else EmptyHistory
            replies[index] = cls(
                f"influences need at least two recorded responses"
                f"{engine._error_context(query.student_id)}",
                details={"student_id": str(query.student_id),
                         "history_length":
                         history.length if history else 0,
                         "model": engine.name})
            return
        # The target is the last response; the window bounds the
        # history *before* it.
        start = engine._window_start(history.length - 1)
        rows.append(_ContextRow(history, start, None,
                                cache_key=query.student_id))
        meta.append(_ReadRow(index, "explain", query, history, start,
                             history.length))

    def _admit_what_if(self, engine, index, query: WhatIfQuery, rows,
                       meta, replies) -> None:
        error = engine._id_error(query.question_id, query.concept_ids,
                                 query.student_id)
        if error is not None:
            replies[index] = error
            return
        history = engine.students.peek(query.student_id)
        if history is None:
            replies[index] = UnknownStudent(
                f"what-if replay needs a recorded history"
                f"{engine._error_context(query.student_id)}",
                details={"student_id": str(query.student_id),
                         "model": engine.name})
            return
        edited = self._apply_edits(engine, history, query)
        if is_error(edited):
            replies[index] = edited
            return
        # Two rows per query: the edited timeline (detached — never
        # cached) and the recorded baseline (shares the student's cache
        # slot with any ScoreQuery in the batch).
        edit_start = engine._window_start(edited.length)
        rows.append(_ContextRow(edited, edit_start,
                                (query.question_id, query.concept_ids)))
        meta.append(_ReadRow(index, "what_if_edit", query, edited,
                             edit_start, edited.length))
        start = engine._window_start(history.length)
        rows.append(_ContextRow(history, start,
                                (query.question_id, query.concept_ids),
                                cache_key=query.student_id))
        meta.append(_ReadRow(index, "what_if_base", query, history, start,
                             history.length))

    def _apply_edits(self, engine, history, query: WhatIfQuery):
        """Edited detached timeline, or the first ``InvalidEdit``.

        Each edit's op and integer position passed the field rules; what
        is left needs the history or compares edits with each other.
        """
        length = history.length
        for edit in query.edits:
            context = engine._error_context(query.student_id)
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
                f"edited at most once per query"
                f"{engine._error_context(query.student_id)}",
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

    def _resolve_reads(self, engine: InferenceEngine, model_name: str,
                       meta: List[_ReadRow], scores, explain_rows,
                       computation, recommends, recourses,
                       replies) -> None:
        """Turn raw scores/influence grids into typed replies."""
        edit_scores = {}
        base_scores = {}
        for position, row in enumerate(meta):
            if row.role == "score":
                replies[row.index] = ScoreReply(
                    row.query.student_id, row.query.question_id,
                    float(scores[position]), row.length, model=model_name)
            elif row.role == "what_if_edit":
                edit_scores[row.index] = (row.query, float(scores[position]),
                                          row.length)
            elif row.role == "what_if_base":
                base_scores[row.index] = float(scores[position])
            elif row.role == "recommend":
                # Meta order preserves candidate order per query.
                recommends[row.index].probabilities.append(
                    float(scores[position]))
            elif row.role == "recourse_base":
                recourses[row.index].baseline = float(scores[position])
        for index, (query, score, edited_length) in edit_scores.items():
            replies[index] = WhatIfReply(
                query.student_id, query.question_id, score,
                baseline_score=base_scores[index],
                history_length=edited_length, model=model_name)
        for position, row_index in enumerate(explain_rows):
            row = meta[row_index]
            replies[row.index] = self._explain_reply(
                model_name, row, computation, position,
                attach=len(explain_rows) == 1)
        for index, pending in recommends.items():
            try:
                replies[index] = self._recommend_reply(engine, model_name,
                                                       pending)
            except Exception as error:  # noqa: BLE001 — taxonomy boundary
                replies[index] = InternalError(
                    f"scheduler failure in model '{engine.name}': "
                    f"{type(error).__name__}: {error}",
                    details={"model": engine.name})
        for index, pending in recourses.items():
            try:
                replies[index] = self._recourse_reply(engine, model_name,
                                                      pending)
            except Exception as error:  # noqa: BLE001 — taxonomy boundary
                replies[index] = InternalError(
                    f"scheduler failure in model '{engine.name}': "
                    f"{type(error).__name__}: {error}",
                    details={"model": engine.name})

    def _recommend_reply(self, engine: InferenceEngine, model_name: str,
                         pending: _PendingRecommend) -> RecommendReply:
        """Blend shared-batch probabilities with the value worlds."""
        query = pending.query
        values = recommend_values(engine, query, pending.snapshot)
        items = []
        for candidate, probability, value in zip(query.candidates,
                                                 pending.probabilities,
                                                 values):
            difficulty_fit = 1.0 - abs(probability - query.target_success)
            items.append(RecommendationItem(
                question_id=candidate.question_id,
                concept_ids=tuple(candidate.concept_ids),
                success_probability=probability,
                value=float(value),
                score=difficulty_fit + query.value_weight * float(value)))
        items.sort(key=lambda item: -item.score)
        return RecommendReply(query.student_id,
                              tuple(items[:query.top_k]),
                              model=model_name)

    def _recourse_reply(self, engine: InferenceEngine, model_name: str,
                        pending: _PendingRecourse):
        """Run the edit search against the admission-time snapshot."""
        search = RecourseSearch(engine, model_name, pending.query,
                                pending.snapshot, pending.baseline)
        return search.run()

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
        forward-stream batch.

        Returns a plain dict report — or a taxonomy error value
        (``malformed_query`` for an ill-typed argument, screened by the
        :class:`ExplainQuery` field rules; ``model_not_loaded`` /
        ``unknown_student`` / ``empty_history``), never an exception,
        mirroring the query surface.
        """
        error = admission_error(ExplainQuery(student_id, model=model))
        if error is not None:
            return error
        engine = self.registry.get(model)
        if engine is None:
            return ModelNotLoaded(
                f"no model named '{model}' is loaded "
                f"(known: {self.registry.names()})",
                details={"model": model,
                         "known": tuple(self.registry.names())})
        with engine._lock:
            history = engine.students.peek(student_id)
            if history is not None:
                snapshot = tuple(a.copy() for a in history.view())
        if history is None:
            return UnknownStudent(
                f"monotonicity report needs a recorded history"
                f"{engine._error_context(student_id)}",
                details={"student_id": str(student_id),
                         "model": engine.name})
        questions, responses, concepts, counts = snapshot
        length = len(questions)
        if length == 0:
            return EmptyHistory(
                f"monotonicity report needs a non-empty history"
                f"{engine._error_context(student_id)}",
                details={"student_id": str(student_id),
                         "model": engine.name})
        start = engine._window_start(length)
        positions = [p for p in range(start, length) if responses[p] == 0]
        rows: List[_ContextRow] = []
        for position in positions:
            probe = (int(questions[position]),
                     tuple(int(c) for c in
                           concepts[position, :counts[position]]))
            recorded = ArrayHistory(student_id, questions, responses,
                                    concepts, counts)
            corrected_responses = responses.copy()
            corrected_responses[position] = 1
            corrected = ArrayHistory(student_id, questions,
                                     corrected_responses, concepts, counts)
            rows.append(_ContextRow(recorded, start, probe))
            rows.append(_ContextRow(corrected, start, probe))
        deltas = []
        if rows:
            scores, _ = engine._score_rows(rows)
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

    def _explain_reply(self, model_name: str, row: _ReadRow,
                       computation, position: int,
                       attach: bool) -> ExplainReply:
        query = row.query
        start = row.start
        questions, responses, _, _ = row.history.view()
        target = row.length - 1
        correct_deltas = computation.correct_deltas.data[position]
        incorrect_deltas = computation.incorrect_deltas.data[position]
        items = []
        for offset in range(target - start):
            absolute = start + offset
            correct = int(responses[absolute])
            delta = correct_deltas[offset] if correct \
                else incorrect_deltas[offset]
            items.append(InfluenceItem(
                position=absolute,
                question_id=int(questions[absolute]),
                correct=correct,
                influence=float(delta)))
        return ExplainReply(
            query.student_id,
            target_question_id=int(questions[target]),
            target_correct=int(responses[target]),
            score=float(computation.scores[position]),
            influences=tuple(items),
            model=model_name,
            computation=computation if attach else None)
