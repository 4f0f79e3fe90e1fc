"""Run one benchmark workload and print its result as a JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload gateway_mixed --seed 1 \\
        --seconds 12 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs an
untraced and a traced window and prints every per-layer metric, writing
the stage ledger and spans under ``.perfbench/``.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
Exit codes: 0 measured, 2 no ``src/repro`` to benchmark, 3 a sanity
floor refused the run, 1 anything else.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.oplog import WORKLOADS  # noqa: E402 - needs ROOT on the path


def _report(name: str, seed: int, result: dict) -> None:
    tally = result["tally"]
    fixture = result["fixture"]
    print(f"# {name} seed={seed}: fixture {fixture['encoder']} "
          f"validation AUC {fixture['validation_auc']:.3f} "
          f"(trained {fixture['train_seconds']:.1f}s)")
    print("# timings: " + ", ".join(
        f"{key} {value}" for key, value in fixture.items()
        if key.endswith("seconds")))
    print(f"# samples {result['samples']}; attempted {tally.attempted}, "
          f"failed {tally.failed} {tally.reasons or ''}")
    for example in tally.examples:
        print(f"#   failure: {example}")
    for warning in result.get("warnings", ()):
        print(f"# warning: {warning}")
    for metric, value in result["metrics"].items():
        print(f"{metric:36s} {value:14.6f} {result['units'][metric]}")
    for metric, value in result.get("harness", {}).items():
        print(f"# harness {metric:28s} {value:14.6f}")
    for row in result.get("ledger", {}).get("stages", ()):
        print(f"# ledger {row['stage']:24s} {row['self_ms']:12.1f} ms "
              f"{100 * row['share']:6.1f}%  ({row['source']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "serve" / "__init__.py").is_file():
        print(f"perfbench: no serving stack at {src}/repro to benchmark",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from perfbench import workloads

    # A termination request unwinds like an error, so every serving
    # process this run started is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    out = ROOT / ".perfbench"
    work = out / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(root=ROOT, work=work, seed=args.seed,
                            seconds=args.seconds)
    try:
        result = workloads.run(args.workload, ctx, bool(args.trace))
    except workloads.Refused as refusal:
        print(f"perfbench: refused: {refusal}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        stem = out / f"{args.workload}-seed{args.seed}"
        with open(f"{stem}.ledger.json", "w", encoding="utf-8") as handle:
            json.dump(result["ledger"], handle, indent=2)
        with open(f"{stem}.spans.jsonl", "w", encoding="utf-8") as handle:
            # ``id``/``parent`` index spans within one source.
            for source, spans in result["spans"].items():
                for index, span in enumerate(spans):
                    handle.write(json.dumps({"source": source, "id": index,
                                             **span}) + "\n")
    _report(args.workload, args.seed, result)
    tally = result["tally"]
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
