"""Untimed fixture: a seeded corpus and the checkpoints trained on it.

Every workload serves weights trained by the benchmark itself, so the
branches a real request takes (recourse crossing its threshold,
explanations of a model that learned something) are the ones measured.
The corpus, the checkpoint and the served roster come from
:class:`repro.data.StudentSimulator` under one fixed seed; the workload
seed drives the traffic only (arrivals, student draws, query mix).  Ten
seeds then measure ten traffic samples against one system, instead of
ten differently trained checkpoints whose quality differs by chance.

Run as a module, in a child process that keeps training memory out of
the benchmark's peak-RSS reading; it trains (or reuses) the workload's
checkpoint and writes its operation log into ``--out``::

    python -m perfbench.fixture --workload gateway_mixed --seed 1 \
        --seconds 10 --out DIR --cache DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

#: One question bank for training and serving: the served students must
#: answer the questions the checkpoint was trained on.
NUM_QUESTIONS = 100
NUM_CONCEPTS = 10
HISTORY_RANGE = (20, 60)

#: Refuse to benchmark a checkpoint no better than this on validation,
#: so random-init weights can never be measured again.
MIN_VALIDATION_AUC = 0.6

#: (training students, epochs, learning rate) per encoder.  One epoch of
#: dkt over 300 students takes ~5 s on a 2-core box and reaches a
#: validation AUC near 0.7; akt gets there on 200 students.
TRAINING = {
    "dkt": (300, 1, 3e-3),
    "akt": (200, 2, 2e-3),
}
FIXTURE_SEED = 0


def simulator():
    """The simulator whose question bank every phase shares."""
    from repro.data import SimulationConfig, StudentSimulator
    config = SimulationConfig(num_students=max(n for n, _, _ in
                                               TRAINING.values()),
                              num_questions=NUM_QUESTIONS,
                              num_concepts=NUM_CONCEPTS,
                              sequence_length=HISTORY_RANGE)
    return StudentSimulator(config, seed=FIXTURE_SEED)


def roster(sim, future_steps: List[int], history_range=HISTORY_RANGE):
    """Serving students ``1..len(future_steps)``: ``(prefix, future)``.

    Each student gets a simulated prefix (preloaded before timing) and
    ``future_steps[k]`` further steps that the workload replays live.
    Every student has a private random stream, apart from the training
    corpus, so its steps never depend on how many any student needs.
    """
    students = []
    low, high = history_range
    for index, extra in enumerate(future_steps):
        rng = np.random.default_rng([FIXTURE_SEED, 2, index])
        prefix = int(rng.integers(low, high + 1))
        sequence = sim.simulate_student(index + 1, rng,
                                        length=prefix + int(extra))
        steps = [(int(i.question_id), int(i.correct),
                  tuple(int(c) for c in i.concept_ids)) for i in sequence]
        students.append((steps[:prefix], steps[prefix:]))
    return students


def train(encoder: str, out: str) -> Dict[str, float]:
    """Train one checkpoint on the fixture corpus and save it to ``out``."""
    from repro.core import RCKT, RCKTConfig, fit_rckt
    from repro.data import build_dataset
    from repro.serve import InferenceEngine

    students, epochs, lr = TRAINING[encoder]
    started = time.perf_counter()
    sim = simulator()
    sequences = sim.simulate(seed=FIXTURE_SEED + 1)[:students]
    dataset = build_dataset("perfbench", sequences, NUM_QUESTIONS,
                            NUM_CONCEPTS)
    cut = int(len(dataset) * 0.8)
    model = RCKT(NUM_QUESTIONS, NUM_CONCEPTS,
                 RCKTConfig(encoder=encoder, dim=32, layers=2,
                            epochs=epochs, lr=lr, seed=FIXTURE_SEED))
    result = fit_rckt(model, dataset.subset(range(cut)),
                      dataset.subset(range(cut, len(dataset))),
                      eval_stride=3)
    InferenceEngine(model).save(out)
    return {"encoder": encoder, "validation_auc": result.best_val_auc,
            "train_seconds": time.perf_counter() - started,
            "epochs": epochs, "students": students}


def cache_budget(checkpoint: str, log: dict, share: float) -> int:
    """Stream-cache bytes that hold ``share`` of the roster.

    Mean entry size comes from warm-building a sample of the preloaded
    histories, the way the engine itself builds them.
    """
    from repro.serve import InferenceEngine, query_from_wire
    from repro.serve.forward_cache import build_stream_caches
    from repro.tensor import no_grad

    engine = InferenceEngine.from_checkpoint(checkpoint)
    for request in log["setup"]:
        engine.service.execute_batch([query_from_wire(query)
                                      for query in request["queries"]])
    names = sorted({query["student_id"] for request in log["setup"]
                    for query in request["queries"]})
    sample = [engine.students.peek(name) for name in names[::32]]
    with no_grad():
        entries = build_stream_caches(engine.model, sample)
    mean = float(np.mean([entry.nbytes for entry in entries]))
    return int(mean * len(names) * share)


def source_digest() -> str:
    """Hash of every source file a checkpoint depends on."""
    package = Path(__file__).resolve().parent
    import repro
    files = sorted(Path(repro.__file__).resolve().parent.rglob("*.py"))
    digest = hashlib.sha256()
    for path in files + [package / "fixture.py"]:
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cached_train(encoder: str, out: str, cache: Path) -> dict:
    """:func:`train`, reusing an identical earlier training if cached.

    Training is deterministic, so a checkpoint keyed by encoder and the
    hash of every source file it depends on is exactly what retraining
    would produce; the cache only saves the wall time.
    """
    stem = cache / f"{encoder}-{source_digest()}"
    checkpoint, meta = Path(f"{stem}.npz"), Path(f"{stem}.json")
    if checkpoint.is_file() and meta.is_file():
        shutil.copyfile(checkpoint, out)
        return dict(json.loads(meta.read_text()), cached=True)
    info = train(encoder, out)
    cache.mkdir(parents=True, exist_ok=True)
    for source, target, write in ((out, checkpoint, None),
                                  (None, meta, json.dumps(info))):
        partial = Path(f"{target}.{os.getpid()}.partial")
        if write is None:
            shutil.copyfile(source, partial)
        else:
            partial.write_text(write)
        os.replace(partial, target)
    return dict(info, cached=False)


def main(argv: Optional[List[str]] = None) -> int:
    """Train the workload's checkpoint, then write its operation log."""
    from . import oplog
    parser = argparse.ArgumentParser(prog="python -m perfbench.fixture")
    parser.add_argument("--workload", choices=oplog.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--cache", required=True,
                        help="directory of reusable trained checkpoints")
    args = parser.parse_args(argv)
    checkpoint = f"{args.out}/checkpoint.npz"
    info = cached_train(oplog.ENCODER[args.workload], checkpoint,
                        Path(args.cache))
    started = time.perf_counter()
    log = oplog.build(args.workload, args.seed, args.seconds, checkpoint)
    oplog.write(log, f"{args.out}/oplog.jsonl")
    if args.workload == "cohort_batch":
        info["stream_cache_bytes"] = cache_budget(
            checkpoint, log, oplog.COHORT_CACHE_SHARE)
    info["oplog_seconds"] = time.perf_counter() - started
    print(json.dumps(info))
    return 0


if __name__ == "__main__":
    sys.exit(main())
