"""``python -m repro.online`` — journal-driven checkpoint refresh CLI.

Two modes:

* **Run** (``--journal-dir`` + ``--checkpoint`` + ``--output``): replay
  the durable record journal, run the prequential test-then-train pass
  on the incumbent, fine-tune the checkpoint on the replayed stream's
  head, hold out the tail for the drift gate, and write the refreshed
  checkpoint plus a JSON report (gate decision included).  The gate
  decision is *data*, not an exit code: a refused refresh still exits 0
  with ``"allowed": false`` in the report — exactly how
  ``check_regression.py`` separates "the run broke" from "the gate said
  no".
* **Selfcheck** (``--selfcheck``): the CI smoke lane.  Synthesises a
  corpus, journals it durably, cold-boots the journal, proves the
  golden journal→dataset round trip, fine-tunes, ships the refresh
  through a drift-gated warm ``Service.rollout``, checks post-rollout
  score parity against a fresh service on the refreshed checkpoint, and
  proves a degraded checkpoint is refused **as a value** (exit 1 on any
  failure, 0 otherwise).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

from .drift import DriftGate, auto_rollout
from .prequential import multi_step_sweep, prequential_run, round_robin
from .trainer import OnlineTrainer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.online",
        description="Continual trainer over the cluster record journal")
    parser.add_argument("--journal-dir", default=None,
                        help="durable RecordJournal directory to replay")
    parser.add_argument("--checkpoint", default=None,
                        help="incumbent engine checkpoint (.npz)")
    parser.add_argument("--output", default=None,
                        help="where to write the refreshed checkpoint")
    parser.add_argument("--report", default=None,
                        help="write the JSON report here (default stdout)")
    parser.add_argument("--epochs", type=int, default=1,
                        help="fine-tune passes over the replayed stream")
    parser.add_argument("--lr", type=float, default=None,
                        help="override the checkpoint's learning rate")
    parser.add_argument("--batch-size", type=int, default=None)
    parser.add_argument("--targets-per-sequence", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None,
                        help="override the checkpoint's seed for target "
                             "sampling")
    parser.add_argument("--eval-fraction", type=float, default=0.25,
                        help="tail fraction of the interleaved stream "
                             "held out for the drift gate")
    parser.add_argument("--max-auc-drop", type=float, default=0.01,
                        help="largest tolerated prequential AUC drop vs "
                             "the incumbent")
    parser.add_argument("--min-gate-events", type=int, default=20,
                        help="below this many held-out events the gate "
                             "waives instead of judging")
    parser.add_argument("--checkpoint-every", type=int, default=200,
                        help="prequential trajectory snapshot interval")
    parser.add_argument("--horizons", type=int, nargs="*", default=(1, 2, 3),
                        help="multi-step-ahead sweep horizons (empty "
                             "disables the sweep)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the end-to-end continual-loop smoke "
                             "test and exit")
    return parser


def _run(args) -> int:
    from repro.cluster import RecordJournal
    from repro.data import dataset_from_records
    from repro.serve import Service, is_error

    if not (args.journal_dir and args.checkpoint and args.output):
        print("error: --journal-dir, --checkpoint and --output are "
              "required (or use --selfcheck)", file=sys.stderr)
        return 2
    if not 0.0 < args.eval_fraction < 1.0:
        print("error: --eval-fraction must be in (0, 1)", file=sys.stderr)
        return 2

    journal = RecordJournal(args.journal_dir, fsync="off")
    try:
        records = journal.replay_records()
    finally:
        journal.close()
    if not records:
        print(f"error: no records to replay in {args.journal_dir}",
              file=sys.stderr)
        return 1

    service = Service.from_checkpoint(args.checkpoint)
    trainer = OnlineTrainer(args.checkpoint, lr=args.lr, epochs=args.epochs,
                            batch_size=args.batch_size,
                            targets_per_sequence=args.targets_per_sequence,
                            seed=args.seed)
    incumbent = prequential_run(service, records,
                                checkpoint_every=args.checkpoint_every)
    interleaved = [event for round_events in round_robin(records)
                   for event in round_events]
    cut = max(1, int(len(interleaved) * (1.0 - args.eval_fraction)))
    train_records, eval_records = interleaved[:cut], interleaved[cut:]

    dataset = dataset_from_records(train_records,
                                   trainer.num_questions,
                                   trainer.num_concepts)
    tune = trainer.fine_tune(dataset)
    trainer.save(args.output)

    gate = DriftGate(eval_records, max_auc_drop=args.max_auc_drop,
                     min_events=args.min_gate_events, interleave=False)
    outcome = auto_rollout(service, args.output, gate)
    decision = gate.last_decision
    report = {
        "journal": {"directory": args.journal_dir,
                    "events": len(records)},
        "prequential": incumbent.to_dict(),
        "fine_tune": tune,
        "gate": None if decision is None else
        {"allowed": decision.allowed, **decision.to_details()},
        "rollout": ({"refused": True, "message": outcome.message}
                    if is_error(outcome)
                    else {"refused": False, **outcome}),
        "output": args.output,
    }
    if args.horizons:
        report["multi_step"] = {
            str(k): v for k, v in multi_step_sweep(
                trainer.model, dataset,
                horizons=tuple(args.horizons)).items()}

    body = json.dumps(report, indent=2, sort_keys=True)
    if args.report:
        Path(args.report).write_text(body + "\n")
    else:
        print(body)
    return 0


def _batches_match(left, right) -> bool:
    import numpy as np
    return all(np.array_equal(getattr(left, name), getattr(right, name))
               for name in ("questions", "responses", "concepts",
                            "concept_counts", "mask"))


def _selfcheck(args) -> int:
    import numpy as np
    from repro.cluster import RecordJournal
    from repro.core import RCKT, RCKTConfig
    from repro.data import (SimulationConfig, StudentSimulator,
                            build_dataset, collate, dataset_from_records)
    from repro.serve import (InferenceEngine, RecordEvent, ScoreQuery,
                             Service, is_error, to_wire)

    failures = 0

    def check(label: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        if ok:
            print(f"selfcheck: {label} ... ok")
        else:
            failures += 1
            print(f"selfcheck: {label} ... FAIL {detail}")

    with tempfile.TemporaryDirectory(prefix="rckt-online-") as tmp:
        tmp = Path(tmp)
        incumbent_path = tmp / "incumbent.npz"
        refreshed_path = tmp / "refreshed.npz"
        degraded_path = tmp / "degraded.npz"
        InferenceEngine(RCKT(20, 5, RCKTConfig(
            encoder="dkt", dim=8, layers=1, seed=0))).save(incumbent_path)
        InferenceEngine(RCKT(20, 5, RCKTConfig(
            encoder="dkt", dim=8, layers=1, seed=9))).save(degraded_path)

        # A learnable synthetic stream, journaled durably.
        simulator = StudentSimulator(SimulationConfig(
            num_students=48, num_questions=20, num_concepts=5,
            sequence_length=(12, 24)), seed=7)
        sequences = simulator.simulate()
        total = sum(len(sequence) for sequence in sequences)
        journal_dir = tmp / "journal"
        journal = RecordJournal(journal_dir, fsync="off")
        for sequence in sequences:
            student = f"student-{sequence.student_id}"
            for position, interaction in enumerate(sequence):
                event = RecordEvent(student, interaction.question_id,
                                    interaction.correct,
                                    interaction.concept_ids)
                error = journal.append(0, to_wire(event), position + 1)
                if error is not None:
                    check("journal append", False, repr(error))
        journal.close()

        # Cold boot: a fresh process would see exactly this.
        journal = RecordJournal(journal_dir, fsync="off")
        records = journal.replay_records()
        journal.close()
        check("cold-boot replay count", len(records) == total,
              f"(replayed {len(records)} of {total})")

        # Golden round trip: journal -> dataset == direct build_dataset.
        streamed = dataset_from_records(records, 20, 5)
        direct = build_dataset("online", sequences, 20, 5)
        golden = len(streamed) == len(direct) and all(
            _batches_match(collate([a]), collate([b]))
            for a, b in zip(streamed, direct))
        check("golden journal->dataset round trip", golden,
              f"({len(streamed)} vs {len(direct)} sequences)")

        # Prequential test-then-train on the incumbent (this also
        # leaves the service holding every student's full history).
        service = Service.from_checkpoint(incumbent_path)
        incumbent_report = prequential_run(service, records,
                                           checkpoint_every=200)
        check("prequential pass",
              incumbent_report.events == total
              and incumbent_report.auc is not None,
              f"({incumbent_report.events} events, "
              f"auc={incumbent_report.auc})")

        # Fine-tune on the stream head; hold the tail out for the gate.
        interleaved = [event for round_events in round_robin(records)
                       for event in round_events]
        cut = int(len(interleaved) * 0.75)
        trainer = OnlineTrainer(incumbent_path, epochs=4, seed=123)
        dataset = dataset_from_records(interleaved[:cut],
                                       trainer.num_questions,
                                       trainer.num_concepts)
        tune = trainer.fine_tune(dataset)
        trainer.save(refreshed_path)
        check("fine-tune ran", tune["batches"] > 0, repr(tune))

        gate = DriftGate(interleaved[cut:], max_auc_drop=0.05,
                         min_events=10, interleave=False)
        summary = auto_rollout(service, refreshed_path, gate)
        decision = gate.last_decision
        check("drift-gated rollout allowed",
              not is_error(summary) and decision is not None
              and decision.allowed,
              f"({summary!r}, {decision!r})")

        # Post-rollout parity: the warm-rolled service must score
        # exactly like a fresh service on the refreshed checkpoint
        # with the same histories (dkt is bit-exact).
        reference = Service.from_checkpoint(refreshed_path)
        reference.execute_batch(records)
        rng = np.random.default_rng(11)
        probes = [ScoreQuery(f"student-{sequence.student_id}",
                             int(rng.integers(1, 21)),
                             (int(rng.integers(1, 6)),))
                  for sequence in sequences[:16]]
        live = [to_wire(reply) for reply in service.execute_batch(probes)]
        fresh = [to_wire(reply)
                 for reply in reference.execute_batch(probes)]
        check("post-rollout score parity", live == fresh,
              f"({sum(a != b for a, b in zip(live, fresh))} mismatches)")

        # A degraded candidate must be refused as a value, never raised,
        # and must leave the incumbent serving untouched.
        refused = auto_rollout(service, degraded_path, gate)
        check("degraded rollout refused as a value",
              is_error(refused) and refused.code == "rollout_refused",
              repr(refused))
        after = [to_wire(reply) for reply in service.execute_batch(probes)]
        check("incumbent untouched after refusal", after == live)

    if failures:
        print(f"selfcheck: {failures} failure(s)")
        return 1
    print("selfcheck: all checks passed")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.selfcheck:
        return _selfcheck(args)
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
