"""The serving engine: one model's state and kernels behind the facade.

The engine owns a checkpointed model plus everything that model's
serving state needs — per-student histories, incremental forward-stream
caches, window anchoring.  Its public interface is what the
:class:`repro.serve.Service` query plans and the hypothetical-world
scorers of :mod:`repro.serve.recourse` need: the window anchor
(:meth:`InferenceEngine.window_start`), the id check
(:meth:`InferenceEngine.id_error`), the error context, a clone of a
warm stream-cache entry, and one scoring call,
:meth:`InferenceEngine.score_rows`, over :class:`ContextRow` values.
Queries enter through ``Service.execute`` / ``Service.execute_batch``
only; the engine itself answers none.  It scores on the caller's
thread: process parallelism is :mod:`repro.cluster`.

Scoring replaces the seed's serving idiom (one collated single-row
``predict_scores`` call per probe, as in
:func:`repro.interpret.recommendation.question_value`) with
column-chunked stacked passes: identical scores, several times the
throughput — ``benchmarks/bench_inference.py`` tracks the exact factor.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import (Callable, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.core import RCKT, RCKTConfig
from repro.core.masking import check_window, window_start
from repro.core.multi_target import (FORWARD_BASES, MultiTargetContext,
                                     column_banded_chunks)
from repro.data import PAD_ID, Batch, KTDataset
from repro.tensor import no_grad
from repro.utils import load_checkpoint, save_checkpoint

from .. import obs
from ..obs import names as metric_names
from .forward_cache import (DEFAULT_STREAM_CACHE_BYTES, StreamCacheStore,
                            build_stream_caches, question_vector_for)
from .history import HistoryStore
from .protocol import (DEFAULT_MODEL, InvalidConcept, InvalidQuestion,
                       ServiceError)

#: Chunk size of the stacked backward passes (see
#: :func:`repro.core.multi_target.column_banded_chunks`).
TARGET_BATCH = 64


@dataclass
class ContextRow:
    """One row of a shared scoring context (the unit of ``score_rows``).

    ``history`` is a :class:`~repro.serve.history.Timeline` — the
    stored history, or a world :meth:`~repro.serve.history.Timeline
    .edited` built.  ``start`` is the window anchor into it.  ``probe``
    appends a virtual next interaction (score/what-if rows); ``None``
    makes the row's *last recorded position* the target (explain rows).
    ``cache_key`` names the stream-cache slot that may serve this row
    (``None`` for worlds, which are built transiently).  ``entry`` is a
    caller-owned :class:`~repro.serve.forward_cache.StudentStreamCache`
    already covering the row's ``[start, history.length)`` window — a
    clone-extended practice world — which serves the row with no
    forward pass and never touches the store.
    """

    history: object
    start: int
    probe: Optional[Tuple[int, Tuple[int, ...]]]
    cache_key: object = None
    entry: object = None


class ScoredRows(NamedTuple):
    """What :meth:`InferenceEngine.score_rows` returns, by row index.

    ``scores[k]`` is row ``k``'s score: its probe's, or for an explain
    row its last recorded response's.  ``deltas[k]`` holds an explain
    row's Eq. 12 per-position grids ``(correct, incorrect)`` over its
    window; ``entries[k]`` is the stream-cache entry that served row
    ``k`` (under a zero budget the batch's only copy, which the next
    recourse generation extends).
    """

    scores: np.ndarray
    deltas: Dict[int, Tuple[np.ndarray, np.ndarray]]
    entries: Dict[int, object]


class InferenceEngine:
    """Multi-student counterfactual scoring around one loaded RCKT model.

    Holds serving state and runs the scoring kernels on the caller's
    thread (it starts no threads of its own); queries reach it only
    through :class:`repro.serve.Service`.  The model is bound once, at
    construction: new weights are served by a :meth:`standby` engine
    that :meth:`repro.serve.Service.rollout` swaps in.

    Parameters
    ----------
    model:
        A (typically trained) :class:`repro.core.RCKT`.
    stream_cache_bytes:
        LRU byte budget for the per-student incremental forward-stream
        caches (:mod:`repro.serve.forward_cache`).  With a warm cache,
        ``record`` extends the cached encoder state by one step and a
        score skips the forward half of the encoder entirely.  0 (or
        ``None``) keeps nothing: every batch warm-builds the entries it
        needs and drops them afterwards.  Every budget answers exactly
        what the offline scorer computes on the anchored window
        (``tests/serve/test_oracle.py`` checks each query type).
    window:
        Sliding-window context size: every score uses at most the
        student's last ``window`` recorded responses as history (the
        probe rides on top), so per-request compute and per-student
        cache memory stay bounded no matter how long a history grows.
        ``None`` (default) serves full histories — still unbounded in
        length (positional tables grow on demand) but with compute that
        scales with history length.  Windowed scores are exactly the
        scores a full recompute on the truncated window produces.
    window_hop:
        Re-anchoring stride of the window (default ``max(1,
        window // 8)``): the window start only advances in multiples of
        ``hop``, so the cached encoder state is rebuilt once per ``hop``
        records instead of on every append, at the cost of the context
        length breathing in ``(window - hop, window]``.  See
        :func:`repro.core.masking.window_start` — the anchored start is
        a pure function of the history length, so warm, cold and
        offline recompute paths all agree on the same window.

    Raises
    ------
    ValueError
        On an invalid ``(window, window_hop)`` pair or a negative
        ``stream_cache_bytes``.
    """

    def __init__(self, model: RCKT,
                 stream_cache_bytes: Optional[int]
                 = DEFAULT_STREAM_CACHE_BYTES,
                 window: Optional[int] = None,
                 window_hop: Optional[int] = None,
                 name: str = DEFAULT_MODEL):
        if window is None:
            if window_hop is not None:
                raise ValueError("window_hop requires a window")
            window_hop = 1
        else:
            if window_hop is None:
                window_hop = max(1, window // 8)
            check_window(window, window_hop)
        self.window = window
        self.window_hop = window_hop
        self.model = model
        self.name = name
        self.students = HistoryStore()
        self.stream_caches = StreamCacheStore(stream_cache_bytes)
        self._lock = threading.Lock()
        self._service = None
        embedder = model.generator.embedder
        self.num_questions = embedder.question_embedding.num_embeddings - 1
        self.num_concepts = embedder.concept_embedding.num_embeddings - 1
        self._obs_forward_calls = obs.get_registry().counter(
            metric_names.ENGINE_FORWARD_CALLS_TOTAL)
        model.eval()

    @property
    def service(self):
        """A :class:`repro.serve.Service` over this engine alone, built
        on first use and cached."""
        if self._service is None:
            from .service import Service
            self._service = Service(self)
        return self._service

    def window_start(self, history_length: int) -> int:
        """Anchored window start for a history of ``history_length`` steps."""
        return window_start(history_length, self.window, self.window_hop)

    def error_context(self, student_id=None) -> str:
        if student_id is None:
            return f" (model '{self.name}')"
        return f" (model '{self.name}', student {student_id!r})"

    def id_error(self, question_id: int, concept_ids: Sequence[int],
                 student_id=None) -> Optional[ServiceError]:
        """First id-validation failure as an :class:`InvalidQuestion` or
        :class:`InvalidConcept` value, ``None`` when everything is in
        vocabulary.

        The message names the offending id, the valid range, and the
        model/student context so a gateway error payload is actionable
        on its own.
        """
        context = self.error_context(student_id)
        if not isinstance(question_id, (int, np.integer)) \
                or isinstance(question_id, bool):
            # Wire payloads can carry any JSON type: reject before a
            # string reaches an ordered comparison, a JSON `true` turns
            # into question 1, or either reaches an embedding gather.
            return InvalidQuestion(
                f"question_id must be an integer, got "
                f"{question_id!r}{context}",
                details={"question_id": question_id, "model": self.name})
        if not 1 <= question_id <= self.num_questions:
            return InvalidQuestion(
                f"question_id {question_id} outside the model's "
                f"vocabulary [1, {self.num_questions}]{context}",
                details={"question_id": question_id,
                         "valid_range": (1, self.num_questions),
                         "model": self.name})
        if not concept_ids:
            # Empty concept sets would divide by a zero concept count
            # deep inside the embedder (Eq. 23 averages over concepts).
            return InvalidConcept(f"concept_ids must be non-empty{context}",
                                  details={"model": self.name})
        for concept in concept_ids:
            if not isinstance(concept, (int, np.integer)) \
                    or isinstance(concept, bool):
                return InvalidConcept(
                    f"concept id must be an integer, got "
                    f"{concept!r}{context}",
                    details={"concept_id": concept, "model": self.name})
            if not 1 <= concept <= self.num_concepts:
                return InvalidConcept(
                    f"concept id {concept} outside the model's "
                    f"vocabulary [1, {self.num_concepts}]{context}",
                    details={"concept_id": int(concept),
                             "valid_range": (1, self.num_concepts),
                             "model": self.name})
        return None

    def _validate_ids(self, question_id: int, concept_ids: Sequence[int],
                      student_id=None) -> None:
        error = self.id_error(question_id, concept_ids, student_id)
        if error is not None:
            raise ValueError(error.message)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Persist model weights plus the config/id-space metadata needed
        to rebuild the engine without the original constructor call."""
        metadata = {
            "config": self.model.config.__dict__,
            "num_questions": self.num_questions,
            "num_concepts": self.num_concepts,
        }
        save_checkpoint(path, self.model.state_dict(), metadata)

    @classmethod
    def from_checkpoint(cls, path,
                        stream_cache_bytes: Optional[int]
                        = DEFAULT_STREAM_CACHE_BYTES,
                        window: Optional[int] = None,
                        window_hop: Optional[int] = None
                        ) -> "InferenceEngine":
        """Rebuild an engine from :meth:`save` output.

        Raises ``ValueError`` when the checkpoint lacks the engine
        metadata (config and id-space sizes) that :meth:`save` embeds.
        """
        state, metadata = load_checkpoint(path)
        try:
            config = RCKTConfig(**metadata["config"])
            num_questions = int(metadata["num_questions"])
            num_concepts = int(metadata["num_concepts"])
        except KeyError as missing:
            raise ValueError(f"checkpoint at {path} lacks engine metadata "
                             f"({missing})") from None
        model = RCKT(num_questions, num_concepts, config)
        model.load_state_dict(state)
        return cls(model, stream_cache_bytes=stream_cache_bytes,
                   window=window, window_hop=window_hop)

    # ------------------------------------------------------------------
    # Blue/green standby
    # ------------------------------------------------------------------
    def standby(self, path) -> "InferenceEngine":
        """The green side of a blue/green rollout of checkpoint ``path``.

        The standby gets this engine's serving configuration (cache
        budget and window) and shares its serving state: the history
        store — histories are ground-truth observations, valid under
        any weights — and the lock, which keeps records serialized
        against reads for as long as either engine is referenced.  Its
        stream caches start cold, because they are functions of the
        weights they were computed under; :meth:`warm_standby` fills
        them.

        Raises ``ValueError`` when the checkpoint lacks engine metadata
        or serves a different id space (recorded histories cannot
        migrate onto it).
        """
        with self._lock:
            budget = self.stream_caches.budget_bytes
            students = self.students
        standby = InferenceEngine.from_checkpoint(
            path, stream_cache_bytes=budget, window=self.window,
            window_hop=self.window_hop if self.window is not None else None)
        if (standby.num_questions, standby.num_concepts) \
                != (self.num_questions, self.num_concepts):
            raise ValueError(
                f"checkpoint at {path} serves a different id space "
                f"({standby.num_questions} questions / "
                f"{standby.num_concepts} concepts vs "
                f"{self.num_questions} / {self.num_concepts}); recorded "
                f"histories cannot migrate onto it")
        standby.students = students
        standby._lock = self._lock
        return standby

    def warm_standby(self, standby: "InferenceEngine", top: int) -> int:
        """Pre-build ``standby``'s stream caches for this engine's hot set.

        The hot set is the ``top`` most recently used entries of this
        engine's stream cache: the students whose next request would
        score warm.  Their anchored windows are copied under the shared
        lock (cheap memcpys), and one stacked
        :func:`~repro.serve.forward_cache.build_stream_caches` pass on
        the standby's model runs outside it, so this engine keeps
        serving while the standby warms.  A record that lands before the
        swap only makes its entry stale, and stale entries heal (discard
        and rebuild) on first use.  Returns the number of students
        warmed.
        """
        if top <= 0:
            return 0
        snapshots = []
        with self._lock:
            for student_id in self.stream_caches.hot_keys(top):
                history = self.students.peek(student_id)
                if history is None or history.length == 0:
                    continue
                start = self.window_start(history.length)
                snapshots.append((student_id, start,
                                  history.suffix(start).snapshot()))
        if not snapshots:
            return 0
        with no_grad():
            built = build_stream_caches(standby.model,
                                        [s[2] for s in snapshots])
        with self._lock:
            for (student_id, start, _), entry in zip(snapshots, built):
                entry.anchor = start
                standby.stream_caches.put(student_id, entry)
        return len(snapshots)

    # ------------------------------------------------------------------
    # History management
    # ------------------------------------------------------------------
    def record(self, student_id, question_id: int, correct: int,
               concept_ids: Sequence[int]) -> int:
        """Append one observed response to a student's cached history.

        Rejects ids outside the checkpoint vocabulary (and non-binary
        ``correct``) *before* touching any state — a bad event must
        never poison the cached history or the stream cache.  With a
        warm forward-stream cache, the append also advances the cached
        encoder state by exactly one step (the incremental fast path);
        histories are never length-bounded — beyond the serving window
        (or the initial positional-table size without one) the append
        stays O(1) and scoring windows or grows transparently.

        ``correct`` is stored as ``int(correct)``, so ``True`` and
        ``1.0`` record exactly what ``1`` does, warm cache or cold.

        Returns the history length this append produced, read under the
        same lock as the append: a concurrent record for the same
        student cannot land in between.

        Raises
        ------
        ValueError
            If ``question_id``/``concept_ids`` fall outside the model's
            vocabulary or ``correct`` is not 0/1.
        """
        self._validate_ids(question_id, concept_ids, student_id)
        if correct not in (0, 1):
            raise ValueError(f"correct must be 0 or 1, got {correct}")
        correct = int(correct)
        with self._lock:
            history = self.students.record(student_id, question_id, correct,
                                           concept_ids)
            self._extend_stream_cache(student_id, history, question_id,
                                      correct, concept_ids)
            return history.length

    # invariant: holds-lock
    def _extend_stream_cache(self, student_id, history, question_id: int,
                             correct: int, concept_ids) -> None:
        """Advance a warm cache by the step just recorded (lock held)."""
        entry = self.stream_caches.peek(student_id)
        if entry is None:
            return  # cold/evicted: next score warm-builds in one pass
        if not entry.covers(self.window_start(history.length),
                            history.length - 1):
            # The serving window slid past the cached anchor (cached
            # states are functions of their window-relative positions),
            # or the entry is out of sync (e.g. a bulk load since the
            # last score): stale states must not be extended — the next
            # score rebuilds from the window slice in one pass.
            self.stream_caches.discard(student_id)
            return
        try:
            entry.extend(self.model, question_id, concept_ids, correct)
        except ValueError:
            # Defensive: the cache must never make record() fail where
            # a cold entry would have accepted the event.
            self.stream_caches.discard(student_id)
            return
        self.stream_caches.note_growth(student_id)

    def load_dataset(self, dataset: KTDataset) -> None:
        """Warm the history store with an offline log.

        Every interaction is validated against the checkpoint vocabulary
        up front (same errors as :meth:`record`) so a corrupt log cannot
        half-load.  Stream caches of touched students are invalidated:
        bulk history changes are cheaper to re-encode once at the next
        score than to replay step-by-step.
        """
        for sequence in dataset:
            for interaction in sequence:
                self._validate_ids(interaction.question_id,
                                   interaction.concept_ids,
                                   sequence.student_id)
        with self._lock:
            for sequence in dataset:
                self.students.load_sequence(sequence)
                self.stream_caches.discard(sequence.student_id)

    def history_length(self, student_id) -> int:
        """Number of responses recorded for ``student_id`` (0 if unknown).

        Always the *full* history: the serving window bounds what a
        score conditions on, never what is stored.
        """
        with self._lock:
            history = self.students.peek(student_id)
            return history.length if history is not None else 0

    def stream_cache_stats(self) -> dict:
        """Occupancy/hit/eviction counters of the forward-stream cache."""
        with self._lock:
            return self.stream_caches.stats()

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    # invariant: holds-lock
    def _assemble_rows(self, rows: Sequence[ContextRow]
                       ) -> Tuple[MultiTargetContext, np.ndarray,
                                  Dict[int, object]]:
        """One shared scoring context over heterogeneous rows (lock held).

        The core of :meth:`score_rows`: score probes, what-if replays
        (edited detached histories), and explain targets all become rows
        of a single :class:`MultiTargetContext` whose forward half comes
        from the per-student stream caches.  Every missing row (cold or
        evicted students, edited histories, off-anchor explain targets,
        every row under a zero budget) is warm-built in **one** stacked
        :func:`~repro.serve.forward_cache.build_stream_caches` pass, so
        a mixed flush issues one shared forward-stream batch and only
        per-target backward streams remain.  A row that carries its own
        ``entry`` (a clone-extended practice world) needs no pass.

        Returns the context, the per-row target columns and row index ->
        the entry that served the row, letting the caller keep
        warm-built timelines for the next generation.  The assembled
        arrays are copies, so the backward passes run outside the lock.
        """
        store = self.stream_caches
        # Windowed serving: each row's context is the anchored suffix of
        # its history; the cached entry (if any) must sit at the same
        # anchor — a stale anchor means the window slid since the entry
        # was built, so it is rebuilt from the current window slice.
        lengths = [row.history.length - row.start for row in rows]

        entries = {}
        missing = {}
        slot_of: List[object] = []
        for index, (row, length) in enumerate(zip(rows, lengths)):
            if length == 0:
                slot_of.append(None)
                continue
            if row.entry is not None:
                # Caller-owned entry: private to this row, never touches
                # the store.
                slot = ("local", index)
                slot_of.append(slot)
                entries[slot] = row.entry
                continue
            # Rows with the same cache slot and anchor share one entry;
            # worlds (no cache key) are always private.
            slot = ((row.cache_key, row.start)
                    if row.cache_key is not None else ("row", index))
            slot_of.append(slot)
            if slot in entries or slot in missing:
                continue
            # Only the canonical serving anchor may touch the store: an
            # explain row whose target-relative anchor trails the
            # serving anchor must neither evict nor overwrite the entry
            # the score path keeps extending.
            canonical = (row.cache_key is not None and row.start
                         == self.window_start(row.history.length))
            entry = store.get(row.cache_key) \
                if row.cache_key is not None else None
            if entry is not None and not entry.covers(row.start,
                                                      row.history.length):
                if canonical:
                    store.discard(row.cache_key)
                entry = None
            if entry is None:
                missing[slot] = (row.history.suffix(row.start), row.start,
                                 row.cache_key if canonical else None)
            else:
                entries[slot] = entry
        if missing:
            built = build_stream_caches(
                self.model, [suffix for suffix, _, _ in missing.values()])
            for (slot, (_, start, cache_key)), entry in zip(missing.items(),
                                                            built):
                entry.anchor = start
                # Keep a batch-local reference: the store may evict the
                # entry immediately under a tiny byte budget, but this
                # request still needs it.
                entries[slot] = entry
                if cache_key is not None:
                    store.put(cache_key, entry)
        served = {index: entries[slot]
                  for index, slot in enumerate(slot_of) if slot is not None}

        count = len(rows)
        width = max(length + (1 if row.probe is not None else 0)
                    for row, length in zip(rows, lengths))
        dim = self.model.config.dim
        responses = np.zeros((count, width), dtype=np.int64)
        mask = np.zeros((count, width), dtype=bool)
        question_vectors = np.zeros((count, width, dim))
        # Under "-mono" all base streams coincide (single cached row):
        # alias one padded array instead of filling three copies.
        base_names = (FORWARD_BASES if self.model.config.use_monotonicity
                      else FORWARD_BASES[:1])
        streams = {name: np.zeros((count, width, dim))
                   for name in base_names}
        for name in FORWARD_BASES[len(base_names):]:
            streams[name] = streams[FORWARD_BASES[0]]
        cols = np.empty(count, dtype=np.int64)
        embedder = self.model.generator.embedder
        for index, (row, length) in enumerate(zip(rows, lengths)):
            if row.probe is not None:
                mask[index, :length + 1] = True
                question_vectors[index, length] = question_vector_for(
                    embedder, row.probe[0], row.probe[1])
                cols[index] = length
            else:
                # Explain row: the last recorded response is the target.
                mask[index, :length] = True
                cols[index] = length - 1
            if length == 0:
                continue
            responses[index, :length] = \
                row.history.view()[1][row.start:]
            entry = entries[slot_of[index]]
            question_vectors[index, :length] = \
                entry.question_vectors[:length]
            for name in base_names:
                streams[name][index, :length] = entry.stream_for(name)[:length]

        # Questions/concepts are never read once the fused question
        # vectors are injected; placeholder arrays keep the Batch shape.
        base = Batch(
            questions=np.zeros((count, width), dtype=np.int64),
            responses=responses,
            concepts=np.full((count, width, 1), PAD_ID, dtype=np.int64),
            concept_counts=np.ones((count, width), dtype=np.int64),
            mask=mask,
        )
        context = MultiTargetContext(self.model, base,
                                     question_vectors=question_vectors,
                                     forward_streams=streams)
        return context, cols, served

    def score_rows(self, admit: Callable[[], Sequence[ContextRow]]
                   ) -> ScoredRows:
        """Score heterogeneous rows as **one** shared batch.

        The engine's one scoring call: the facade's read flush, recourse
        generations, recommend value worlds and the monotonicity report
        all score here.  ``admit()`` runs under the engine lock and
        returns the rows, so rows may hold live histories and every row
        of a batch sees one history state; callers with rows in hand
        pass ``lambda: rows``.  The rows are assembled under the lock
        (one warm-build pass for every row no cached or caller-owned
        entry covers); the backward passes run after it is released,
        probe rows column-banded through
        :meth:`MultiTargetContext.scores_for` and explain rows
        (``probe is None``) through one
        :meth:`MultiTargetContext.influences_for`.
        """
        with no_grad():
            with self._lock:
                rows = admit()
                if not rows:
                    return ScoredRows(np.empty(0), {}, {})
                context, cols, entries = self._assemble_rows(rows)
            # The context holds copies: the backward passes need no lock.
            self._obs_forward_calls.inc()
            scores = np.full(len(rows), np.nan)
            probes = np.flatnonzero([row.probe is not None
                                     for row in rows])
            if len(probes):
                probe_cols = cols[probes]
                for chunk in column_banded_chunks(probe_cols, TARGET_BATCH):
                    scores[probes[chunk]] = context.scores_for(
                        probes[chunk], probe_cols[chunk])
            deltas = {}
            explains = np.flatnonzero([row.probe is None for row in rows])
            if len(explains):
                computation = context.influences_for(explains,
                                                     cols[explains])
                scores[explains] = computation.scores
                for position, row in enumerate(explains):
                    deltas[int(row)] = (
                        computation.correct_deltas.data[position],
                        computation.incorrect_deltas.data[position])
        return ScoredRows(scores, deltas, entries)

    def warm_entry(self, entry, length: int):
        """A private clone of ``entry``, a snapshot's served timeline.

        ``entry`` is the stream-cache entry that served the snapshot's
        probe row in the flush (``ScoredRows.entries``), so it is at
        hand even when the store has already evicted it or keeps
        nothing.  It is the root timeline of the snapshot's
        hypothetical worlds: practice worlds clone-extend it by one
        encoder step instead of re-encoding the history.  Only an entry
        that still covers exactly the serving window of a
        ``length``-step history qualifies, so a record that extended it
        in place since the flush returns ``None`` and the worlds
        warm-build instead.  The clone is taken under the lock because
        ``record`` extends a stored entry in place.
        """
        with self._lock:
            if entry is None or not entry.covers(self.window_start(length),
                                                 length):
                return None
            return entry.clone()
