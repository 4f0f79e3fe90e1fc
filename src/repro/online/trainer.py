"""Incremental fine-tuning of a serving checkpoint on journaled streams.

:class:`OnlineTrainer` is deliberately a thin continual-learning shell
around the offline stack: it loads the live checkpoint through
:meth:`~repro.serve.InferenceEngine.from_checkpoint` (so the refreshed
file round-trips through the exact metadata the serving side expects),
samples counterfactual targets and buckets prefixes with the *same*
helpers :func:`repro.core.fit_rckt` uses, and steps one Adam instance
whose moment state **persists across rounds** — round ``n+1`` continues
the optimiser trajectory of round ``n`` instead of cold-starting, which
is what makes many small journal-driven refreshes behave like one long
training run.

Determinism contract (pinned by ``tests/online``): two trainers built
from the same checkpoint and seed, fed the same datasets in the same
round order, produce byte-identical model states — every RNG draw comes
from :func:`~repro.utils.seeding.derive_rng` keyed on
``(seed, "online", round)``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import obs
from repro.core.trainer import _bucketed_batches, _sample_targets
from repro.data import KTDataset
from repro.obs import names as metric_names
from repro.optim import Adam, clip_grad_norm
from repro.serve import InferenceEngine
from repro.utils.seeding import derive_rng


class OnlineTrainer:
    """Fine-tune a serving checkpoint round by round.

    Parameters
    ----------
    checkpoint:
        Path of the incumbent engine checkpoint (``engine.save`` /
        ``InferenceEngine.from_checkpoint`` format).
    lr, batch_size, targets_per_sequence, grad_clip, seed:
        Overrides for the corresponding
        :class:`~repro.core.RCKTConfig` fields baked into the
        checkpoint; ``None`` keeps the checkpoint's value.  Online
        refreshes typically want a smaller ``lr`` than the offline run
        that produced the checkpoint.
    epochs:
        Passes over each round's dataset per :meth:`fine_tune` call
        (target positions are resampled every pass).
    engine_kwargs:
        Forwarded to :meth:`InferenceEngine.from_checkpoint`.
    """

    def __init__(self, checkpoint, *, lr: Optional[float] = None,
                 epochs: int = 1, batch_size: Optional[int] = None,
                 targets_per_sequence: Optional[int] = None,
                 grad_clip: Optional[float] = None,
                 seed: Optional[int] = None, **engine_kwargs):
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        self.engine = InferenceEngine.from_checkpoint(checkpoint,
                                                      **engine_kwargs)
        self.model = self.engine.model
        config = self.model.config
        self.lr = config.lr if lr is None else float(lr)
        self.epochs = epochs
        self.batch_size = config.batch_size if batch_size is None \
            else int(batch_size)
        self.targets_per_sequence = config.targets_per_sequence \
            if targets_per_sequence is None else int(targets_per_sequence)
        self.grad_clip = config.grad_clip if grad_clip is None \
            else grad_clip
        self.seed = config.seed if seed is None else int(seed)
        self.optimizer = Adam(self.model.parameters(), lr=self.lr,
                              weight_decay=config.weight_decay)
        self.rounds = 0

    @property
    def num_questions(self) -> int:
        return self.engine.num_questions

    @property
    def num_concepts(self) -> int:
        return self.engine.num_concepts

    def fine_tune(self, dataset: KTDataset) -> dict:
        """One incremental round over ``dataset``; returns a summary.

        The dataset is typically
        :func:`repro.data.dataset_from_records` output for the journal
        tail since the last refresh.  The model is left in ``eval``
        mode (serving-ready) afterwards.
        """
        started = obs.clock()
        registry = obs.get_registry()
        registry.counter(metric_names.ONLINE_ROUNDS_TOTAL).inc()
        config = self.model.config
        round_index = self.rounds
        self.rounds += 1
        rng = derive_rng(self.seed, "online", str(round_index))
        losses = []
        self.model.train()
        try:
            for _ in range(self.epochs):
                specs = _sample_targets(dataset, self.targets_per_sequence,
                                        config.min_history, rng,
                                        balanced=config.balanced_targets)
                for batch, cols in _bucketed_batches(specs, self.batch_size,
                                                     rng):
                    self.optimizer.zero_grad()
                    loss = self.model.loss(batch, cols)
                    loss.backward()
                    if self.grad_clip:
                        clip_grad_norm(self.model.parameters(),
                                       self.grad_clip)
                    self.optimizer.step()
                    losses.append(loss.item())
        finally:
            self.model.eval()
        elapsed = obs.clock() - started
        registry.histogram(
            metric_names.ONLINE_FINE_TUNE_SECONDS).observe(elapsed)
        return {"round": round_index, "epochs": self.epochs,
                "batches": len(losses), "sequences": len(dataset),
                "mean_loss": float(np.mean(losses)) if losses else None,
                "seconds": elapsed}

    def save(self, path) -> None:
        """Write the refreshed checkpoint (rollout-ready format)."""
        self.engine.save(path)
