"""Drift-gated auto-rollout: refuse regressions as values, not crashes.

The CI benchmark gate (``benchmarks/check_regression.py``) never
crashes a run — it measures, compares against a committed baseline, and
*fails the gate* with a diagnosis.  :class:`DriftGate` applies the same
posture to checkpoint rollouts: the candidate and the incumbent each
run the identical prequential pass over a held-out evaluation stream
(typically the journal tail that the candidate was **not** fine-tuned
on), and the rollout proceeds only if the candidate's streaming AUC has
not dropped more than ``max_auc_drop`` below the incumbent's.  A veto
is a :class:`~repro.serve.protocol.RolloutRefused` **value** carrying
both AUCs, the threshold, and the evidence size — the incumbent keeps
serving, nothing raises, and the caller (or the HTTP admin endpoint)
forwards the refusal in-protocol like any other taxonomy member.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional

from repro.serve import (DEFAULT_MODEL, DEFAULT_WARM_TOP, InferenceEngine,
                         RecordEvent, RolloutRefused, Service)

from repro import obs
from repro.obs import names as metric_names

from .prequential import PrequentialReport, prequential_run


@dataclass(frozen=True)
class GateDecision:
    """One drift-gate verdict, with the evidence that produced it."""

    allowed: bool
    incumbent_auc: Optional[float]
    candidate_auc: Optional[float]
    threshold: float
    events: int
    reason: str

    @property
    def delta(self) -> Optional[float]:
        """Candidate minus incumbent AUC (negative = degradation)."""
        if self.incumbent_auc is None or self.candidate_auc is None:
            return None
        return self.candidate_auc - self.incumbent_auc

    def to_details(self) -> dict:
        return {"incumbent_auc": self.incumbent_auc,
                "candidate_auc": self.candidate_auc,
                "delta": self.delta, "threshold": self.threshold,
                "events": self.events, "reason": self.reason}


class DriftGate:
    """Prequential AUC comparison between incumbent and candidate.

    Parameters
    ----------
    records:
        The held-out evaluation stream (typed
        :class:`~repro.serve.RecordEvent` values, e.g. a
        :meth:`~repro.cluster.RecordJournal.replay_records` tail).
        Materialised once; both models replay the identical stream.
    max_auc_drop:
        Largest tolerated ``incumbent_auc - candidate_auc``.
    min_events:
        Below this many scored events — or whenever either AUC is
        undefined (single-class warm-up) — the gate **waives** rather
        than vetoes: refusing for lack of evidence would wedge a young
        deployment whose journal cannot yet support a verdict.
    """

    def __init__(self, records: Iterable[RecordEvent],
                 max_auc_drop: float = 0.01, min_events: int = 20,
                 interleave: bool = True):
        if max_auc_drop < 0:
            raise ValueError("max_auc_drop must be non-negative")
        if min_events <= 0:
            raise ValueError("min_events must be positive")
        self.records: List[RecordEvent] = list(records)
        self.max_auc_drop = float(max_auc_drop)
        self.min_events = min_events
        self.interleave = interleave
        self.last_decision: Optional[GateDecision] = None

    def _prequential(self, model) -> PrequentialReport:
        # A throwaway service around the *shared* model object: scoring
        # is read-only under no_grad, and the recorded histories die
        # with the service.
        return prequential_run(Service(model), self.records,
                               interleave=self.interleave)

    def evaluate(self, incumbent_model, candidate_model) -> GateDecision:
        """Run both prequential passes and decide; remembers the verdict."""
        incumbent = self._prequential(incumbent_model)
        candidate = self._prequential(candidate_model)
        events = candidate.events
        if events < self.min_events:
            decision = GateDecision(
                True, incumbent.auc, candidate.auc, self.max_auc_drop,
                events, f"waived: {events} events < min_events="
                        f"{self.min_events}")
        elif incumbent.auc is None or candidate.auc is None:
            decision = GateDecision(
                True, incumbent.auc, candidate.auc, self.max_auc_drop,
                events, "waived: single-class stream, AUC undefined")
        else:
            drop = incumbent.auc - candidate.auc
            if drop <= self.max_auc_drop:
                decision = GateDecision(
                    True, incumbent.auc, candidate.auc, self.max_auc_drop,
                    events, f"allowed: AUC drop {drop:+.4f} within "
                            f"{self.max_auc_drop:.4f}")
            else:
                decision = GateDecision(
                    False, incumbent.auc, candidate.auc, self.max_auc_drop,
                    events, f"refused: prequential AUC dropped {drop:.4f} "
                            f"(> {self.max_auc_drop:.4f}) over {events} "
                            f"events")
        self.last_decision = decision
        # The decision's reason string is prefixed with its outcome —
        # that prefix is the (bounded) metric label.
        outcome = decision.reason.split(":", 1)[0]
        obs.get_registry().counter(
            metric_names.ONLINE_GATE_DECISIONS_TOTAL,
            outcome=outcome).inc()
        return decision

    def service_gate(self) -> Callable:
        """The ``Service.rollout(gate=...)`` adapter.

        Returns a callable ``(incumbent_engine, standby_engine) ->
        Optional[RolloutRefused]`` evaluating the two engines' models
        over this gate's stream.
        """
        def gate(incumbent_engine: InferenceEngine,
                 standby_engine: InferenceEngine
                 ) -> Optional[RolloutRefused]:
            decision = self.evaluate(incumbent_engine.model,
                                     standby_engine.model)
            if decision.allowed:
                return None
            return RolloutRefused(message=decision.reason,
                                  details=decision.to_details())
        return gate


def auto_rollout(target, checkpoint, gate: DriftGate, *,
                 model: str = DEFAULT_MODEL,
                 warm_top: int = DEFAULT_WARM_TOP, incumbent_model=None):
    """Ship ``checkpoint`` to ``target``'s ``model`` iff the drift gate
    allows it.

    ``target`` is either a :class:`~repro.serve.Service` (the gate runs
    inside :meth:`Service.rollout` — standby built and validated first,
    warm blue/green semantics preserved) or any other backend with the
    same ``rollout(checkpoint, model=, warm_top=)``, e.g. a
    :class:`~repro.cluster.ScatterGatherRouter` or a
    :class:`~repro.serve.ServiceClient`; those cannot expose their
    remote incumbent weights, so ``incumbent_model`` (the weights
    currently deployed) must be supplied and the gate runs as a
    pre-check before fanning the rollout out.

    Returns the target's rollout summary on success, or the
    :class:`~repro.serve.protocol.RolloutRefused` value on a veto —
    never raises for a refusal.
    """
    if isinstance(target, Service):
        return target.rollout(checkpoint, model=model, warm_top=warm_top,
                              gate=gate.service_gate())
    if incumbent_model is None:
        raise ValueError("auto_rollout to a non-Service target needs "
                         "incumbent_model for the gate pre-check")
    candidate = InferenceEngine.from_checkpoint(checkpoint)
    decision = gate.evaluate(incumbent_model, candidate.model)
    if not decision.allowed:
        return RolloutRefused(message=decision.reason,
                              details=decision.to_details())
    return target.rollout(checkpoint, model=model, warm_top=warm_top)
