"""The RCKT model: counterfactual reasoning over response influences.

Ties together the pieces of Sec. IV: the adaptive probability generator
(bidirectional encoder + MLP), the counterfactual sequence construction,
the approximated influence computation, the Eq. 13 prediction rule and the
Eq. 16/29 training objective.  Also exposes the *exact* (pre-approximation)
forward influence path used by Table VI.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import nn
from repro.data import Batch, KTDataset, StudentSequence, collate
from repro.tensor import Tensor, no_grad
from repro.utils import derive_rng

from .config import RCKTConfig
from .encoders import build_encoder
from .generator import ResponseProbabilityGenerator
from .influence import (ExactInfluenceResult, InfluenceComputation,
                        compute_influences)
from .losses import counterfactual_loss, joint_bce_losses
from .masking import (COUNTERFACTUAL_VARIANTS, MASKED, VARIANT_ORDER,
                      build_exact_counterfactual, build_variants)


def replicate_batch(batch: Batch, times: int) -> Batch:
    """Stack ``times`` copies of a batch along the batch axis."""
    return Batch(
        questions=np.tile(batch.questions, (times, 1)),
        responses=np.tile(batch.responses, (times, 1)),
        concepts=np.tile(batch.concepts, (times, 1, 1)),
        concept_counts=np.tile(batch.concept_counts, (times, 1)),
        mask=np.tile(batch.mask, (times, 1)),
    )


class RCKT(nn.Module):
    """Response influence-based Counterfactual Knowledge Tracing."""

    def __init__(self, num_questions: int, num_concepts: int,
                 config: Optional[RCKTConfig] = None):
        super().__init__()
        self.config = config or RCKTConfig()
        rng = derive_rng(self.config.seed, "rckt", self.config.encoder)
        encoder = build_encoder(self.config.encoder, self.config.dim,
                                self.config.layers, rng,
                                heads=self.config.heads,
                                dropout=self.config.dropout)
        self.generator = ResponseProbabilityGenerator(
            num_questions, num_concepts, self.config.dim, encoder, rng,
            dropout=self.config.dropout)

    # ------------------------------------------------------------------
    # Variant plumbing
    # ------------------------------------------------------------------
    def _variant_probabilities(self, batch: Batch, variants,
                               names: Sequence[str],
                               question_override: Optional[Tensor] = None
                               ) -> Dict[str, Tensor]:
        """One stacked generator pass for all requested variants."""
        stacked_responses = variants.stacked(names)
        big = replicate_batch(batch, len(names))
        override_cols = None
        override = None
        if question_override is not None:
            from repro.tensor import concat as tensor_concat
            override = tensor_concat([question_override] * len(names), axis=0)
            override_cols = np.tile(variants.target_cols, len(names))
        probs = self.generator(big, responses=stacked_responses,
                               question_override=override,
                               override_cols=override_cols)
        rows = batch.questions.shape[0]
        return {name: probs[i * rows:(i + 1) * rows]
                for i, name in enumerate(names)}

    def influences(self, batch: Batch, target_cols: np.ndarray,
                   question_override: Optional[Tensor] = None
                   ) -> InfluenceComputation:
        """Approximated response influences for each row's target.

        ``question_override`` (``(B, dim)``) replaces the target question
        embedding — the Eq. 30 mechanism for probing proficiency on a
        *concept* instead of a concrete question.
        """
        variants = build_variants(batch.responses, batch.mask, target_cols,
                                  use_monotonicity=self.config.use_monotonicity)
        probs = self._variant_probabilities(batch, variants,
                                            COUNTERFACTUAL_VARIANTS,
                                            question_override=question_override)
        return compute_influences(probs, variants,
                                  normalization=self.config.score_normalization)

    # ------------------------------------------------------------------
    # Training objective (Eq. 29)
    # ------------------------------------------------------------------
    def loss(self, batch: Batch, target_cols: np.ndarray) -> Tensor:
        config = self.config
        use_joint = config.use_joint and config.lambda_balance > 0
        names = VARIANT_ORDER if use_joint else COUNTERFACTUAL_VARIANTS
        variants = build_variants(batch.responses, batch.mask, target_cols,
                                  use_monotonicity=config.use_monotonicity)
        probs = self._variant_probabilities(batch, variants, names)
        influence = compute_influences(probs, variants)
        labels = batch.responses[np.arange(len(target_cols)), target_cols]
        loss = counterfactual_loss(influence, labels, alpha=config.alpha,
                                   use_constraint=config.use_constraint)
        if use_joint:
            bce = joint_bce_losses(probs, batch.responses,
                                   variants.history_mask)
            regularizer = bce["factual"] + bce["m_plus"] + bce["m_minus"]
            loss = loss + config.lambda_balance * regularizer
        return loss

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def predict_scores(self, batch: Batch, target_cols: np.ndarray) -> np.ndarray:
        """Influence-difference scores in (0, 1); >= 0.5 means "correct"."""
        was_training = self.training
        self.eval()
        try:
            with no_grad():
                influence = self.influences(batch, target_cols)
        finally:
            if was_training:
                self.train()
        return influence.scores

    def predict_dataset(self, dataset: KTDataset, batch_size: int = 32,
                        stride: int = 1, legacy: bool = False,
                        target_batch: int = 64,
                        window: Optional[int] = None, window_hop: int = 1
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """(labels, scores) treating every position >= 1 as a target.

        Each evaluated position becomes a prefix sample (history before it,
        target at its end), matching the left-to-right protocol of the
        baselines.  ``stride`` subsamples target positions for faster
        approximate evaluation (stride=1 evaluates everything).

        The default path collates each sequence **once** and evaluates
        its target positions as truncated-mask rows over the shared
        padded batch (:mod:`repro.core.multi_target`; the serving entry
        points build such rows via :func:`repro.data.expand_targets`),
        so scoring a length-``T`` sequence does O(T) collation work
        instead of materializing ``T`` prefix copies.  ``legacy=True`` selects the original per-prefix
        bucketing path, kept as the golden reference the parity suite
        checks the fast path against.  ``target_batch`` caps how many
        expanded targets share one stacked generator pass (each target
        becomes ``len(COUNTERFACTUAL_VARIANTS)`` generator rows).

        ``window`` / ``window_hop`` bound every target's history to a
        sliding window of its most recent responses (exact truncation
        semantics — see :func:`repro.core.masking.window_start`); the
        legacy path predates windowing, so combining ``legacy=True``
        with a window raises ``ValueError``.
        """
        if legacy:
            if window is not None:
                raise ValueError("window is not supported on the legacy "
                                 "per-prefix path")
            return self._predict_dataset_legacy(dataset, batch_size, stride)
        from .multi_target import predict_dataset_fast
        was_training = self.training
        self.eval()
        try:
            with no_grad():
                return predict_dataset_fast(self, dataset,
                                            batch_size=batch_size,
                                            stride=stride,
                                            target_batch=target_batch,
                                            window=window,
                                            window_hop=window_hop)
        finally:
            if was_training:
                self.train()

    def _predict_dataset_legacy(self, dataset: KTDataset, batch_size: int,
                                stride: int) -> Tuple[np.ndarray, np.ndarray]:
        """Reference implementation: one re-collated prefix per target."""
        specs: List[Tuple[StudentSequence, int]] = []
        for sequence in dataset:
            for col in range(self.config.min_history, len(sequence), stride):
                specs.append((sequence, col))
        labels, scores = [], []
        for prefix_batch, cols, ys in _bucket_prefixes(specs, batch_size):
            scores.append(self.predict_scores(prefix_batch, cols))
            labels.append(ys)
        if not labels:
            return np.array([]), np.array([])
        return np.concatenate(labels), np.concatenate(scores)

    # ------------------------------------------------------------------
    # Exact (pre-approximation) influence path — Table VI
    # ------------------------------------------------------------------
    def exact_influences(self, sequence: StudentSequence,
                         target_col: Optional[int] = None) -> ExactInfluenceResult:
        """Forward influences by flipping every past response (Eq. 4-11).

        Builds one counterfactual row per past response plus one factual
        row, so inference cost grows linearly with history length — the
        inefficiency Sec. IV-C4's approximation removes.
        """
        if target_col is None:
            target_col = len(sequence) - 1
        if target_col < 1:
            raise ValueError("target needs at least one past response")
        base = collate([sequence])
        responses = base.responses[0]
        mask = base.mask[0]

        factual_row = responses.copy()
        factual_row[target_col] = MASKED
        rows = [factual_row]
        for col in range(target_col):
            rows.append(build_exact_counterfactual(
                responses, mask, target_col, col,
                use_monotonicity=self.config.use_monotonicity))
        stacked = np.stack(rows, axis=0)
        big = replicate_batch(base, len(rows))

        was_training = self.training
        self.eval()
        try:
            with no_grad():
                probs = self.generator(big, responses=stacked).data
        finally:
            if was_training:
                self.train()

        factual_p = probs[0, target_col]
        deltas = np.zeros(len(sequence))
        correct_positions = np.zeros(len(sequence), dtype=bool)
        incorrect_positions = np.zeros(len(sequence), dtype=bool)
        for col in range(target_col):
            counterfactual_p = probs[1 + col, target_col]
            if responses[col] == 1:
                # Eq. 9: drop in P(correct) after flipping a correct answer.
                deltas[col] = factual_p - counterfactual_p
                correct_positions[col] = True
            else:
                # Eq. 11: drop in P(incorrect) after flipping an incorrect one.
                deltas[col] = (1.0 - factual_p) - (1.0 - counterfactual_p)
                incorrect_positions[col] = True
        delta_plus = float(deltas[correct_positions].sum())
        delta_minus = float(deltas[incorrect_positions].sum())
        history = max(int(target_col), 1)
        score = (delta_plus - delta_minus) / (2.0 * history) + 0.5
        return ExactInfluenceResult(
            deltas=deltas,
            correct_positions=correct_positions,
            incorrect_positions=incorrect_positions,
            delta_plus=delta_plus,
            delta_minus=delta_minus,
            score=float(score),
        )


def _bucket_prefixes(specs: Sequence[Tuple[StudentSequence, int]],
                     batch_size: int):
    """Group prefix samples by identical length and yield batches.

    Equal-length buckets keep the bidirectional LSTM exact: no padding ever
    enters the reversed stream.
    """
    buckets: Dict[int, List[Tuple[StudentSequence, int]]] = {}
    for sequence, col in specs:
        buckets.setdefault(col + 1, []).append((sequence, col))
    for length in sorted(buckets):
        group = buckets[length]
        for start in range(0, len(group), batch_size):
            chunk = group[start:start + batch_size]
            prefix_batch = collate([seq[:col + 1] for seq, col in chunk])
            cols = np.array([col for _, col in chunk])
            labels = np.array([seq[col].correct for seq, col in chunk],
                              dtype=np.float64)
            yield prefix_batch, cols, labels
