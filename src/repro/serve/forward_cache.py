"""Per-student incremental forward-stream caches.

Eq. 25 splits the counterfactual scorer's encoder work into a *forward*
stream (strictly causal, target-independent) and a *backward* stream
(consumes the intervened target, necessarily per-request).  The forward
half is therefore a pure function of the student's history — it never
changes between requests except by appending one position per recorded
response.  This module caches exactly that half:

* :class:`StudentStreamCache` — one student's forward-stream outputs,
  fused question vectors, and the encoder's extensible carry state
  (LSTM ``(h, c)`` per layer, or attention key/value prefixes per
  layer), for each of the variant base streams the counterfactual
  scorer needs (factual / correct-masked / incorrect-masked under
  monotonicity; a single shared stream for the "-mono" ablation).
* :func:`build_stream_caches` — vectorized warm-up: one batched
  forward pass builds many cold students' caches at once (first score
  after a cold start or an LRU eviction).
* :class:`StreamCacheStore` — LRU keyed by student id under a byte
  budget, so millions of students cannot exhaust memory; evicted
  students silently fall back to the warm-up path on their next score.

With a warm cache, ``InferenceEngine.record`` advances the state by a
single encoder step and ``score`` runs only the per-request backward
streams — the steady-state serving cost drops by the forward half.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.encoders import ForwardStreamState
from repro.core.masking import MASKED
from repro.core.multi_target import FORWARD_BASES
from repro.data import PAD_ID, Batch
from repro.tensor import Tensor

from .. import obs
from ..obs import names as metric_names

# Default LRU budget: roughly 100k active students at dim=64, history 100.
DEFAULT_STREAM_CACHE_BYTES = 256 * 1024 * 1024


def base_contents(responses: np.ndarray, use_monotonicity: bool
                  ) -> np.ndarray:
    """Variant-base response categories for history positions.

    Returns ``(bases, ...)`` stacked over :data:`FORWARD_BASES` order
    (factual, correct-masked, incorrect-masked) — or a single factual
    row when monotonicity is off, since all three streams then coincide
    (mirrors :class:`repro.core.multi_target.MultiTargetContext`).
    """
    responses = np.asarray(responses)
    if not use_monotonicity:
        return responses[None]
    return np.stack([
        responses,
        np.where(responses == 1, MASKED, responses),
        np.where(responses == 0, MASKED, responses),
    ], axis=0)


class StudentStreamCache:
    """One student's extensible forward-stream state and outputs.

    ``streams`` rows follow :data:`FORWARD_BASES`; with one base row
    (monotonicity off) every base name maps to row 0.  Arrays grow
    geometrically like the raw history log, so a ``record`` append is
    O(1) amortized on top of the encoder step itself.

    ``anchor`` is the history position the cached window starts at
    (0 without windowing): the cache covers history positions
    ``[anchor, anchor + length)``, re-based so the window's first step
    encodes at position 0.  When the serving window slides past the
    anchor, the entry is *discarded* rather than trimmed — cached states
    are functions of their window-relative positions (positional
    encodings, LSTM carries), so the next score rebuilds from the new
    window slice in one vectorized pass.  This is how long students stay
    serveable under a bounded per-student memory footprint.
    """

    __slots__ = ("state", "streams", "question_vectors", "length", "anchor")

    INITIAL_CAPACITY = 8

    def __init__(self, state: ForwardStreamState, streams: np.ndarray,
                 question_vectors: np.ndarray, anchor: int = 0):
        bases, length, dim = streams.shape
        capacity = max(length, self.INITIAL_CAPACITY)
        self.state = state
        self.streams = np.empty((bases, capacity, dim))
        self.streams[:, :length] = streams
        self.question_vectors = np.empty((capacity, dim))
        self.question_vectors[:length] = question_vectors
        self.length = length
        self.anchor = anchor

    @property
    def bases(self) -> int:
        return self.streams.shape[0]

    @property
    def nbytes(self) -> int:
        return (self.streams.nbytes + self.question_vectors.nbytes
                + self.state.nbytes)

    def _grow(self) -> None:
        bases, capacity, dim = self.streams.shape
        if self.length < capacity:
            return
        streams = np.empty((bases, 2 * capacity, dim))
        streams[:, :capacity] = self.streams
        self.streams = streams
        vectors = np.empty((2 * capacity, dim))
        vectors[:capacity] = self.question_vectors
        self.question_vectors = vectors

    def covers(self, start: int, length: int) -> bool:
        """Whether this entry is exactly the window ``[start, length)``
        of a ``length``-step timeline: the one test before an entry
        serves a row or is extended by that timeline's next step."""
        return self.anchor == start and self.length == length - start

    def extend(self, model, question_id: int, concept_ids: Sequence[int],
               correct: int) -> None:
        """Append one interaction answered ``correct``: a recorded
        response, or a practice world's assumed one.

        Advances ``model``'s encoder state by one step per base row,
        over the fused Eq. 23 question vector and each base's response
        category (:func:`base_contents`).
        """
        generator = model.generator
        embedder = generator.embedder
        question_vector = question_vector_for(embedder, question_id,
                                              concept_ids)
        categories = base_contents(np.asarray(correct),
                                   model.config.use_monotonicity)
        interactions = question_vector[None] + \
            embedder.response_embedding.weight.data[categories]
        outputs = generator.encoder.extend_forward_state(self.state,
                                                         interactions)
        self._grow()
        self.streams[:, self.length] = outputs
        self.question_vectors[self.length] = question_vector
        self.length += 1

    def stream_for(self, name: str) -> np.ndarray:
        """``(length, dim)`` cached stream for a variant base name."""
        if self.bases == 1:
            return self.streams[0, :self.length]
        return self.streams[FORWARD_BASES.index(name), :self.length]

    def clone(self) -> "StudentStreamCache":
        """Independent deep copy of the filled prefix.

        ``extend`` mutates in place, so anything that forks a shared
        entry into a hypothetical timeline — a practice world appending
        an assumed answer — must clone first.
        The constructor copies the passed arrays into fresh capacity
        arrays; the state clones itself.
        """
        return StudentStreamCache(
            self.state.clone(),
            self.streams[:, :self.length],
            self.question_vectors[:self.length],
            anchor=self.anchor,
        )


def question_vector_for(embedder, question_id: int,
                        concept_ids: Sequence[int]) -> np.ndarray:
    """Fused Eq. 23 vector for one interaction, op-aligned with the
    batched :meth:`~repro.models.InteractionEmbedder.question_vectors`
    (same lookup + sum + reciprocal-scale order, no pad slots)."""
    table = embedder.concept_embedding.weight.data
    concept_sum = table[np.asarray(concept_ids, dtype=np.int64)].sum(axis=0)
    return (embedder.question_embedding.weight.data[question_id]
            + concept_sum * (1.0 / len(concept_ids)))


def build_stream_caches(model, histories) -> List[StudentStreamCache]:
    """Vectorized cold-start warm-up for many students at once.

    ``histories`` yields :class:`~repro.serve.history.Timeline` objects
    — stored histories, or the window suffixes of timelines, which is
    how windowed serving warm-builds anchored caches — with at least one
    interaction each.  One stacked forward
    pass (students x variant bases) builds every cache, reusing the
    exact batch kernels the offline scorer runs — so a cache built
    here scores identically to
    :func:`~repro.core.multi_target.score_batch_targets` on the same
    slice, and every later single-step extension tracks it to roundoff.
    Under a zero budget this is how every row is built.

    The model is only read: attention key/value prefixes come back from
    the no-grad kernel by return value, so warm-builds may run
    concurrently with each other and with scoring on the same model.
    """
    histories = list(histories)
    if not histories:
        return []
    obs.get_registry().counter(
        metric_names.STREAM_CACHE_REBUILDS_TOTAL).inc(len(histories))
    embedder = model.generator.embedder
    encoder = model.generator.encoder
    use_monotonicity = model.config.use_monotonicity
    bases = 3 if use_monotonicity else 1
    count = len(histories)
    lengths = [history.length for history in histories]
    width = max(lengths)
    concept_width = max(history.concept_width for history in histories)

    questions = np.full((count, width), PAD_ID, dtype=np.int64)
    responses = np.zeros((count, width), dtype=np.int64)
    concepts = np.full((count, width, concept_width), PAD_ID, dtype=np.int64)
    counts = np.ones((count, width), dtype=np.int64)
    mask = np.zeros((count, width), dtype=bool)
    for row, history in enumerate(histories):
        q, r, c, k = history.view()
        n = history.length
        questions[row, :n] = q
        responses[row, :n] = r
        concepts[row, :n, :history.concept_width] = c
        counts[row, :n] = k
        mask[row, :n] = True

    batch = Batch(questions, responses, concepts, counts, mask)
    question_vectors = embedder.question_vectors(batch).data
    contents = base_contents(responses, use_monotonicity)
    stacked_contents = contents.reshape(bases * count, width)
    interactions = Tensor(np.tile(question_vectors, (bases, 1, 1))) \
        + embedder.response_embedding(stacked_contents)
    stacked_mask = np.tile(mask, (bases, 1))
    outputs, capture = encoder.forward_stream_with_capture(
        interactions, mask=stacked_mask)

    caches = []
    for row, _history in enumerate(histories):
        n = lengths[row]
        rows_idx = [b * count + row for b in range(bases)]
        state = encoder.state_from_capture(capture, rows_idx, n)
        caches.append(StudentStreamCache(
            state,
            outputs[rows_idx, :n].copy(),
            question_vectors[row, :n].copy(),
        ))
    return caches


class StreamCacheStore:
    """LRU over :class:`StudentStreamCache` under a byte budget.

    Pure bookkeeping — no locking (the engine serializes access) and no
    model knowledge.  A ``budget_bytes`` of 0 (or ``None``) stores
    nothing: :meth:`put` drops every entry, so each batch warm-builds
    what it needs and keeps it only for itself.  A negative budget
    raises ``ValueError``.
    """

    def __init__(self, budget_bytes: Optional[int]):
        if budget_bytes is not None and budget_bytes < 0:
            raise ValueError(f"stream cache budget must be >= 0 bytes, "
                             f"got {budget_bytes}")
        self.budget_bytes = budget_bytes or 0
        self._entries: "OrderedDict[object, StudentStreamCache]" = \
            OrderedDict()
        self._sizes: Dict[object, int] = {}
        self.total_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # Obs mirrors of the plain-int stats above (the ints stay: they
        # are per-store, the obs series aggregate across stores in one
        # process).  Handles are captured at construction.
        registry = obs.get_registry()
        self._obs_hits = registry.counter(
            metric_names.STREAM_CACHE_HITS_TOTAL)
        self._obs_misses = registry.counter(
            metric_names.STREAM_CACHE_MISSES_TOTAL)
        self._obs_evictions = registry.counter(
            metric_names.STREAM_CACHE_EVICTIONS_TOTAL)
        self._obs_bytes = registry.gauge(
            metric_names.STREAM_CACHE_RESIDENT_BYTES)
        self._obs_entries = registry.gauge(
            metric_names.STREAM_CACHE_ENTRIES)

    @property
    def enabled(self) -> bool:
        return self.budget_bytes > 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, student_id) -> Optional[StudentStreamCache]:
        entry = self._entries.get(student_id)
        if entry is None:
            self.misses += 1
            self._obs_misses.inc()
            return None
        self._entries.move_to_end(student_id)
        self.hits += 1
        self._obs_hits.inc()
        return entry

    def peek(self, student_id) -> Optional[StudentStreamCache]:
        """LRU-touching lookup that stays out of the hit/miss stats
        (record-path accesses would otherwise drown the score-path
        signal the counters exist for)."""
        entry = self._entries.get(student_id)
        if entry is not None:
            self._entries.move_to_end(student_id)
        return entry

    def hot_keys(self, limit: Optional[int] = None) -> List[object]:
        """Cached student ids, most recently used first.

        The LRU order *is* the serving working set: these are exactly
        the students whose next request would hit a warm cache.  The
        blue/green rollout pre-builds the standby engine's caches for
        this set so the swap does not cold-start the hot traffic.
        """
        keys = list(reversed(self._entries))
        return keys if limit is None else keys[:limit]

    def put(self, student_id, entry: StudentStreamCache) -> None:
        if not self.enabled:
            return
        self.discard(student_id)
        self._entries[student_id] = entry
        self._sizes[student_id] = entry.nbytes
        self.total_bytes += entry.nbytes
        # Gauges move by delta, not set(): several stores (one per
        # engine) share the process-wide series, so deltas aggregate
        # while absolute sets would clobber each other.
        self._obs_bytes.inc(entry.nbytes)
        self._obs_entries.inc()
        self._evict_over_budget()

    def note_growth(self, student_id) -> None:
        """Re-account an entry whose arrays grew (after ``extend``)."""
        entry = self._entries.get(student_id)
        if entry is None:
            return
        self.total_bytes += entry.nbytes - self._sizes[student_id]
        self._obs_bytes.inc(entry.nbytes - self._sizes[student_id])
        self._sizes[student_id] = entry.nbytes
        self._evict_over_budget()

    def discard(self, student_id) -> None:
        if self._entries.pop(student_id, None) is not None:
            size = self._sizes.pop(student_id)
            self.total_bytes -= size
            self._obs_bytes.dec(size)
            self._obs_entries.dec()

    def invalidate(self) -> None:
        """Drop every entry: each student's next score warm-builds."""
        self._obs_bytes.dec(self.total_bytes)
        self._obs_entries.dec(len(self._entries))
        self._entries.clear()
        self._sizes.clear()
        self.total_bytes = 0

    def _evict_over_budget(self) -> None:
        while self.total_bytes > self.budget_bytes and self._entries:
            student_id, _ = self._entries.popitem(last=False)
            size = self._sizes.pop(student_id)
            self.total_bytes -= size
            self.evictions += 1
            self._obs_evictions.inc()
            self._obs_bytes.dec(size)
            self._obs_entries.dec()

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._entries),
            "bytes": self.total_bytes,
            "budget_bytes": self.budget_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
