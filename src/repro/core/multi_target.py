"""Vectorized multi-target inference: the fast path of ``predict_dataset``.

The legacy evaluation protocol materializes one re-collated prefix batch
per target position, so a sequence of length ``T`` costs O(T^2) collation
work and runs ``4T`` full encoder rows (4 counterfactual variants per
target).  This module restructures that work around two observations:

1. **Collate once.**  ``expand_targets`` semantics: a target at column
   ``c`` is a row of the sequence's single collated batch whose mask is
   truncated after ``c``.  The mask-aware encoders make a truncated row
   bit-compatible with the exact prefix batch (see
   :class:`repro.nn.LSTM` and the attention key masks).

2. **Forward streams are target-independent.**  Eq. 25's forward state at
   position ``j`` only reads inputs ``<= j``.  For every counterfactual
   variant the content below the target is a fixed transform of the
   factual row (factual for ``F+``/``F-``, correct-masked for ``CF-``,
   incorrect-masked for ``CF+``) — independent of *which* column is the
   target.  So one forward pass over each of the three base rows serves
   every target of the sequence, and only the backward stream (which
   consumes the intervened target first) needs one row per
   (variant, target) pair.  This halves encoder work and lets the
   question/concept embeddings be computed once per sequence instead of
   once per variant row.

Targets are processed in column-sorted chunks truncated to the chunk's
longest target, so a target at column ``c`` pays O(c) recurrence steps
(O(c^2) attention) like its exact prefix would, while sharing one stacked
generator pass with ``target_batch - 1`` neighbours.

Long histories can additionally be scored over a sliding ``window``: a
target whose history exceeds the window is re-based onto its anchored
window slice (:func:`repro.core.masking.window_start`,
:func:`repro.data.expand_windowed_targets`) and scored exactly as if the
history had been truncated there — the chunks of windowed targets are
all near window-width, so the column banding respects window boundaries
by construction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.data import (Batch, KTDataset, collate, expand_targets,
                        expand_windowed_targets)
from repro.tensor import Tensor, concat

from .influence import compute_influences
from .masking import (COUNTERFACTUAL_VARIANTS, MASKED, VariantSet,
                      window_starts)

# variant -> (forward-stream base row, intervention value at the target)
VARIANT_BASES: Dict[str, Tuple[str, int]] = {
    "f_plus": ("factual", 1),
    "cf_minus": ("correct_masked", 0),
    "f_minus": ("factual", 0),
    "cf_plus": ("incorrect_masked", 1),
}

FORWARD_BASES = ("factual", "correct_masked", "incorrect_masked")


class MultiTargetContext:
    """Target-independent state for one collated group of sequences.

    Built once per group (inside the caller's ``eval``/``no_grad`` scope):
    the fused question/concept embeddings and the three shared forward
    encoder streams.  ``scores_for`` then prices any subset of
    (row, target-column) pairs against this cache.
    """

    def __init__(self, model, base: Batch,
                 question_vectors: np.ndarray = None,
                 forward_streams: Dict[str, np.ndarray] = None):
        """``question_vectors`` / ``forward_streams`` inject precomputed
        values (the serving layer's per-student incremental caches —
        :mod:`repro.serve.forward_cache`); both must cover ``base``'s
        full ``(B, L)`` grid.  Omitted, they are computed here.
        """
        self.base = base
        generator = model.generator
        self.normalization = model.config.score_normalization
        self.use_monotonicity = model.config.use_monotonicity
        if question_vectors is None:
            question_vectors = generator.embedder.question_vectors(base).data
        self.question_vectors = question_vectors
        real = base.mask
        responses = base.responses
        if self.use_monotonicity:
            self.base_responses = {
                "factual": responses,
                "correct_masked": np.where(real & (responses == 1),
                                           MASKED, responses),
                "incorrect_masked": np.where(real & (responses == 0),
                                             MASKED, responses),
            }
        else:
            # The "-mono" ablation keeps every non-intervened response
            # factual, so all variants share the factual forward stream.
            self.base_responses = {name: responses for name in FORWARD_BASES}
        if forward_streams is not None:
            missing = set(FORWARD_BASES) - set(forward_streams)
            if missing:
                raise KeyError(f"injected forward streams missing "
                               f"{sorted(missing)}")
            self.forward_streams = forward_streams
        else:
            self.forward_streams = {}
            encoded = {}
            for name in FORWARD_BASES:
                content = self.base_responses[name]
                token = id(content)  # all three alias one array in "-mono"
                if token not in encoded:
                    interactions = Tensor(self.question_vectors) \
                        + generator.embedder.response_embedding(content)
                    encoded[token] = generator.encoder.forward_stream(
                        interactions, mask=base.mask).data
                self.forward_streams[name] = encoded[token]
        self._generator = generator

    def scores_for(self, row_indices: np.ndarray,
                   target_cols: np.ndarray) -> np.ndarray:
        """Influence scores for each (row, target-column) pair.

        ``row_indices[k]`` picks a row of the context's base batch and
        ``target_cols[k]`` the column to score there (a real response,
        or the assembled probe column in serving).  Returns one score in
        (0, 1) per pair; raises ``ValueError`` when a target lands on a
        padded position.
        """
        return self.influences_for(row_indices, target_cols).scores

    def influences_for(self, row_indices: np.ndarray,
                       target_cols: np.ndarray):
        """Full per-position influence quantities for each target pair.

        Same shared-forward-stream pricing as :meth:`scores_for` but
        returns the :class:`~repro.core.influence.InfluenceComputation`
        itself — per-position Δ grids, Δ⁺/Δ⁻ totals, scores — which is
        what the serving layer's explanation queries itemize.  Grids are
        truncated to ``max(target_cols) + 1`` columns; row ``k`` of the
        result corresponds to pair ``k``.
        """
        rows = np.asarray(row_indices)
        cols = np.asarray(target_cols)
        if not self.base.mask[rows, cols].all():
            raise ValueError("every target position must be a real response")
        generator = self._generator
        count = len(rows)
        width = int(cols.max()) + 1
        arange = np.arange(count)
        columns = np.arange(width)[None, :]

        mask = self.base.mask[rows, :width] & (columns <= cols[:, None])
        history = mask & (columns < cols[:, None])
        responses = self.base.responses[rows, :width]
        correct = history & (responses == 1)
        incorrect = history & (responses == 0)

        # Backward-stream rows: base-variant content with the intervention
        # written at the target column, one row per (variant, target).
        variant_rows = {}
        for name in COUNTERFACTUAL_VARIANTS:
            base_name, intervention = VARIANT_BASES[name]
            content = self.base_responses[base_name][rows, :width].copy()
            content[arange, cols] = intervention
            variant_rows[name] = content
        stacked_responses = np.concatenate(
            [variant_rows[name] for name in COUNTERFACTUAL_VARIANTS], axis=0)

        questions = self.question_vectors[rows, :width]
        questions_stacked = np.tile(questions, (len(COUNTERFACTUAL_VARIANTS), 1, 1))
        interactions = Tensor(questions_stacked) \
            + generator.embedder.response_embedding(stacked_responses)
        stacked_mask = np.tile(mask, (len(COUNTERFACTUAL_VARIANTS), 1))
        backward = generator.encoder.backward_stream(interactions,
                                                     mask=stacked_mask)

        # Forward streams: gathered from the per-group cache instead of
        # re-encoded — the target only ever reads states at columns < it.
        forward = np.concatenate(
            [self.forward_streams[VARIANT_BASES[name][0]][rows, :width]
             for name in COUNTERFACTUAL_VARIANTS], axis=0)

        from .encoders import shift_and_combine
        hidden = shift_and_combine(Tensor(forward), backward)
        logits = generator.head(
            concat([hidden, Tensor(questions_stacked)], axis=-1)).squeeze(-1)
        probabilities = logits.sigmoid()
        per_variant = {
            name: probabilities[i * count:(i + 1) * count]
            for i, name in enumerate(COUNTERFACTUAL_VARIANTS)
        }
        variants = VariantSet(variant_rows, cols, history, correct, incorrect)
        return compute_influences(per_variant, variants,
                                  normalization=self.normalization)


def column_banded_chunks(cols: np.ndarray, target_batch: int
                         ) -> List[np.ndarray]:
    """Split request indices into column-banded chunks.

    Chunks grow over column-sorted requests until ``target_batch``
    members or until the next request's column would pad the whole chunk
    by more than ~25%, whichever comes first.  Ragged serving batches
    then pay for their own history lengths, not the longest request's.
    """
    order = np.argsort(cols, kind="stable")
    chunks: List[np.ndarray] = []
    start = 0
    while start < len(order):
        narrowest = int(cols[order[start]]) + 1
        end = start + 1
        while (end < len(order) and end - start < target_batch
               and cols[order[end]] < 1.25 * narrowest + 2):
            end += 1
        chunks.append(order[start:end])
        start = end
    return chunks


def score_batch_targets(model, base: Batch, target_cols,
                        target_batch: int = 64,
                        window: Optional[int] = None,
                        window_hop: int = 1) -> np.ndarray:
    """Influence scores for one explicit target per row of ``base``.

    The serving-shaped entry point: each row is one student/request and
    ``target_cols[k]`` the column to score in row ``k``.  Unlike the
    per-length bucketing of the legacy path — which degenerates into
    near-singleton batches when every student sits at a different history
    length — requests are chunked by sorted target column with truncated
    masks, so arbitrary mixes of lengths share full-width stacked passes.

    Parameters
    ----------
    model:
        A :class:`repro.core.RCKT` in eval mode; the caller is also
        responsible for the ``no_grad`` scope.
    base:
        Collated batch with one row per request.
    target_cols:
        ``(B,)`` target column per row; must index a real response.
    target_batch:
        Cap on how many targets share one stacked generator pass.
    window / window_hop:
        Enable sliding-window contexts: a target whose history exceeds
        ``window`` steps is scored over the re-based slice starting at
        :func:`repro.core.masking.window_start` of its history length —
        exactly as if the history had been truncated to that window and
        re-collated.  Windowed targets all land in near-``window``-wide
        chunks, so the column banding naturally respects window
        boundaries.  ``None`` (default) scores full histories.

    Returns
    -------
    np.ndarray
        Scores in row order.

    Raises
    ------
    ValueError
        On row/target count mismatch, targets at padded positions, or an
        invalid ``(window, window_hop)`` pair.
    """
    cols = np.asarray(target_cols, dtype=np.int64)
    if base.batch_size != len(cols):
        raise ValueError("one target column per row required")
    if len(cols) == 0:
        return np.array([])
    # History length at column c is c (positions 0..c-1); the target
    # itself rides on top of the window.  Chunking runs on the re-based
    # columns, so windowed targets band together at near-window widths
    # and the re-basing gather below stays per-chunk (rows whose history
    # fits the window are never copied twice).
    starts = window_starts(cols, window, window_hop) \
        if window is not None else None
    effective_cols = cols - starts if starts is not None else cols
    scores = np.empty(len(cols), dtype=np.float64)
    for chunk in column_banded_chunks(effective_cols, target_batch):
        chunk_cols = effective_cols[chunk]
        width = int(chunk_cols.max()) + 1
        if starts is not None and starts[chunk].any():
            sub_base, sub_cols = expand_windowed_targets(
                base, chunk, cols[chunk], starts[chunk])
            sub_base = sub_base.truncated(width)
        else:
            sub_base = expand_targets(base.truncated(width), chunk,
                                      chunk_cols)
            sub_cols = chunk_cols
        context = MultiTargetContext(model, sub_base)
        scores[chunk] = context.scores_for(np.arange(len(chunk)), sub_cols)
    return scores


def score_targets(model, sequences, target_cols, target_batch: int = 64,
                  window: Optional[int] = None, window_hop: int = 1
                  ) -> np.ndarray:
    """:func:`score_batch_targets` over a ragged list of sequences."""
    if len(sequences) != len(np.atleast_1d(target_cols)):
        raise ValueError("one target column per sequence required")
    if len(sequences) == 0:
        return np.array([])
    return score_batch_targets(model, collate(sequences), target_cols,
                               target_batch=target_batch, window=window,
                               window_hop=window_hop)


def predict_dataset_fast(model, dataset: KTDataset, batch_size: int = 32,
                         stride: int = 1, target_batch: int = 64,
                         window: Optional[int] = None, window_hop: int = 1
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """(labels, scores) over every evaluated target, collating each
    sequence exactly once.

    ``window`` bounds every target's history to its last ``window`` steps
    (see :func:`repro.core.masking.window_start` for the ``window_hop``
    anchoring): targets whose history fits the window share the group's
    forward-stream context exactly as before, while longer-history
    targets are re-based onto their window slice and scored in dedicated
    near-``window``-wide chunks — identical to evaluating the truncated
    histories from scratch.

    The caller is responsible for ``eval`` mode and ``no_grad`` (see
    :meth:`repro.core.RCKT.predict_dataset`, which wraps this).
    """
    if target_batch <= 0:
        raise ValueError("target_batch must be positive")
    min_history = model.config.min_history
    # Sorting by length groups similar-length sequences into one padded
    # batch, bounding the padding waste of the shared collation.
    ordered = sorted((s for s in dataset if len(s) > min_history), key=len)
    labels: List[np.ndarray] = []
    scores: List[np.ndarray] = []
    for start in range(0, len(ordered), batch_size):
        group = ordered[start:start + batch_size]
        base = collate(group)
        rows_list: List[int] = []
        cols_list: List[int] = []
        for row, sequence in enumerate(group):
            for col in range(min_history, len(sequence), stride):
                rows_list.append(row)
                cols_list.append(col)
        rows = np.asarray(rows_list, dtype=np.int64)
        cols = np.asarray(cols_list, dtype=np.int64)
        # Column-sorted chunks can be truncated to the chunk's longest
        # target, so short-history targets never pay full-length encoding.
        order = np.argsort(cols, kind="stable")
        rows, cols = rows[order], cols[order]
        labels.append(base.responses[rows, cols].astype(np.float64))
        starts = window_starts(cols, window, window_hop)
        near = np.flatnonzero(starts == 0)
        far = np.flatnonzero(starts > 0)
        # The group-wide context encodes full-length forward streams;
        # skip it when the window pushes every target off of it.
        context = MultiTargetContext(model, base) if len(near) else None
        group_scores = np.empty(len(rows), dtype=np.float64)
        for part in (near, far):
            for offset in range(0, len(part), target_batch):
                indices = part[offset:offset + target_batch]
                if starts[indices[0]] == 0:
                    group_scores[indices] = context.scores_for(
                        rows[indices], cols[indices])
                    continue
                sub_base, sub_cols = expand_windowed_targets(
                    base, rows[indices], cols[indices], starts[indices])
                sub_context = MultiTargetContext(model, sub_base)
                group_scores[indices] = sub_context.scores_for(
                    np.arange(len(indices)), sub_cols)
        scores.append(group_scores)
    if not labels:
        return np.array([]), np.array([])
    return np.concatenate(labels), np.concatenate(scores)
