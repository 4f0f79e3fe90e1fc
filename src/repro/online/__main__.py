"""``python -m repro.online`` — journal-driven checkpoint refresh CLI.

Given ``--journal-dir``, ``--checkpoint`` and ``--output``: replay the
durable record journal, run the prequential test-then-train pass on the
incumbent, fine-tune the checkpoint on the replayed stream's head, hold
out the tail for the drift gate, and write the refreshed checkpoint
plus a JSON report (gate decision included).  The gate decision is
*data*, not an exit code: a refused refresh still exits 0 with
``"allowed": false`` in the report — exactly how
``check_regression.py`` separates "the run broke" from "the gate said
no".
"""

from __future__ import annotations

import argparse
import json
import sys
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
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.cluster import RecordJournal
    from repro.data import dataset_from_records
    from repro.serve import Service, is_error

    args = build_parser().parse_args(argv)
    if not (args.journal_dir and args.checkpoint and args.output):
        print("error: --journal-dir, --checkpoint and --output are "
              "required", file=sys.stderr)
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


if __name__ == "__main__":
    sys.exit(main())
