"""Experiment E7 — Table VI: the response influence approximation.

Compares RCKT inference *before* the approximation (one counterfactual
sequence per past response, Eq. 4-11 — cost grows with history length)
against *after* (two counterfactual sequences total, Eq. 19-22).  The paper
reports a ~20x speedup with slightly better accuracy; the reproduction
target is the same ordering: a large speedup at comparable AUC/ACC.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core import RCKT, fit_rckt
from repro.data import collate
from repro.eval import accuracy_score, auc_score
from repro.interpret import comparison_table

from .common import Budget, cached_dataset, rckt_config_for, single_fold
from .paper_numbers import TABLE6


@dataclass
class ApproximationResult:
    """encoder -> {'before'|'after' -> {'auc','acc','time_ms'}}."""

    metrics: Dict[str, Dict[str, Dict[str, float]]] = field(default_factory=dict)

    def speedup(self, encoder: str) -> float:
        entry = self.metrics[encoder]
        return entry["before"]["time_ms"] / max(entry["after"]["time_ms"], 1e-9)

    def render(self) -> str:
        """Quality against the paper; the measured wall-clock numbers
        change on every run and render apart (:meth:`render_timings`)."""
        rows = []
        for encoder, modes in self.metrics.items():
            for mode, metrics in modes.items():
                paper = TABLE6.get((mode, f"RCKT-{encoder.upper()}"), {})
                rows.append([
                    f"RCKT-{encoder.upper()}", mode,
                    metrics["auc"], metrics["acc"],
                    paper.get("time_ms", float("nan")),
                ])
        return comparison_table(
            ["model", "mode", "AUC", "ACC", "paper time/ms"],
            rows, title="Table VI — influence approximation analysis")

    def render_timings(self) -> str:
        """Measured per-sequence inference time and the speedups."""
        rows = [[f"RCKT-{encoder.upper()}", mode, metrics["time_ms"]]
                for encoder, modes in self.metrics.items()
                for mode, metrics in modes.items()]
        text = comparison_table(["model", "mode", "time/ms"], rows,
                                title="Table VI — measured inference time")
        for encoder in self.metrics:
            text += f"\nspeedup {encoder}: x{self.speedup(encoder):.1f}"
        return text


def run_approximation(encoders: Sequence[str] = ("dkt",),
                      dataset_name: str = "assist09",
                      budget: Optional[Budget] = None,
                      max_eval_sequences: int = 24,
                      seed: int = 0) -> ApproximationResult:
    """Train once per encoder, evaluate with both inference paths.

    Per-sequence timing is averaged over the (last-position) target of each
    test sequence, matching Table VI's "average inference time ... across
    all students in the test set".
    """
    budget = budget or Budget.from_env()
    dataset = cached_dataset(dataset_name, seed=seed)
    fold = single_fold(dataset, seed=seed)
    result = ApproximationResult()

    for encoder in encoders:
        config = rckt_config_for(dataset_name, encoder, budget)
        model = RCKT(dataset.num_questions, dataset.num_concepts, config)
        fit_rckt(model, fold.train, fold.validation,
                 eval_stride=max(budget.eval_stride, 3))

        sequences = [s for s in fold.test if len(s) >= 2][:max_eval_sequences]

        # --- after: approximated (two counterfactual sequences) -----------
        after_labels, after_scores = [], []
        start = time.perf_counter()
        for sequence in sequences:
            batch = collate([sequence])
            cols = np.array([len(sequence) - 1])
            after_scores.append(float(model.predict_scores(batch, cols)[0]))
            after_labels.append(sequence[len(sequence) - 1].correct)
        after_ms = (time.perf_counter() - start) * 1000.0 / len(sequences)

        # --- before: exact forward influences (t counterfactuals) ---------
        before_labels, before_scores = [], []
        start = time.perf_counter()
        for sequence in sequences:
            exact = model.exact_influences(sequence)
            before_scores.append(exact.score)
            before_labels.append(sequence[len(sequence) - 1].correct)
        before_ms = (time.perf_counter() - start) * 1000.0 / len(sequences)

        result.metrics[encoder] = {
            "before": {"auc": _safe_auc(before_labels, before_scores),
                       "acc": accuracy_score(before_labels, before_scores),
                       "time_ms": before_ms},
            "after": {"auc": _safe_auc(after_labels, after_scores),
                      "acc": accuracy_score(after_labels, after_scores),
                      "time_ms": after_ms},
        }
    return result


def _safe_auc(labels, scores) -> float:
    try:
        return auc_score(labels, scores)
    except ValueError:
        return float("nan")
