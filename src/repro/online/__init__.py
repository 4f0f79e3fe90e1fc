"""Continual learning: close the serve→train loop over the record journal.

The cluster's durable journal (:class:`repro.cluster.RecordJournal`)
already proves the replay contract — per-student worker-acknowledged
order, ``(student, sequence)`` dedup, crash-safe cold boot.  This
package consumes that stream to keep the live checkpoint fresh:

* :class:`OnlineTrainer` — loads the serving checkpoint, converts
  replayed records into incremental training batches through the
  standard :mod:`repro.data` / :mod:`repro.optim` stack (same target
  sampling and length-bucketed collation as :func:`repro.core.fit_rckt`,
  Adam state persisted across rounds), and saves a refreshed checkpoint
  any :meth:`repro.serve.Service.rollout` can ship warm.
* :func:`prequential_run` — the test-then-train evaluation harness:
  every event is *scored before it is recorded*, giving an unbiased
  streaming AUC/accuracy trajectory over the replayed stream;
  :func:`multi_step_sweep` extends it to k-step-ahead prediction.
* :class:`DriftGate` — gates auto-rollout the way
  ``benchmarks/check_regression.py`` gates CI: the candidate must not
  degrade prequential AUC past a threshold against the incumbent, and a
  veto surfaces as a :class:`~repro.serve.protocol.RolloutRefused`
  **value** (never an exception) from :func:`auto_rollout` /
  ``Service.rollout(gate=...)``.

``python -m repro.online`` runs one refresh from a journal directory;
``tests/online/test_end_to_end_continual.py`` drives the whole loop
through a two-shard cluster.  ``docs/ONLINE.md`` documents the
contracts.
"""

from .drift import DriftGate, GateDecision, auto_rollout
from .prequential import (PrequentialReport, StreamingMetrics, TrajectoryPoint,
                          multi_step_sweep, prequential_run, round_robin)
from .trainer import OnlineTrainer

__all__ = [
    "OnlineTrainer",
    "StreamingMetrics", "TrajectoryPoint", "PrequentialReport",
    "prequential_run", "multi_step_sweep", "round_robin",
    "DriftGate", "GateDecision", "auto_rollout",
]
