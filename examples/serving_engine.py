"""Serving RCKT: the multi-student inference engine behind the facade.

Walks the full ``repro.serve`` lifecycle on a synthetic corpus:

1. Train a small RCKT model.
2. Build an :class:`~repro.serve.InferenceEngine`, warm its per-student
   history caches, checkpoint it, and serve it through a
   :class:`~repro.serve.Service`.
3. Serve "how would this student do on question q?" probes — one query,
   a mixed batch scored in one shared pass, and again after recording
   fresh responses (incremental re-scoring).
4. Rank candidate next questions with a batched recommendation query.

Usage::

    python examples/serving_engine.py
"""

import tempfile
from pathlib import Path

from repro.core import RCKT, RCKTConfig, fit_rckt
from repro.data import make_assist09, train_test_split
from repro.serve import (CandidateQuestion, InferenceEngine, RecommendQuery,
                         RecordEvent, ScoreQuery, Service)


def main() -> None:
    print("1) training a small RCKT-DKT ...")
    dataset = make_assist09(scale=0.15, seed=7)
    fold = train_test_split(dataset, seed=0)
    config = RCKTConfig(encoder="dkt", dim=16, layers=1, epochs=4,
                        batch_size=32, lr=2e-3, seed=0)
    model = RCKT(dataset.num_questions, dataset.num_concepts, config)
    fit_rckt(model, fold.train, fold.validation, eval_stride=4)

    print("2) building the serving engine + checkpoint round-trip ...")
    path = Path(tempfile.mkdtemp()) / "rckt-engine.npz"
    InferenceEngine(model).save(path)
    engine = InferenceEngine.from_checkpoint(path)
    engine.load_dataset(fold.test)
    service = Service(engine)
    print(f"   checkpoint: {path.name}, "
          f"{len(engine.students)} students cached")

    students = sorted({s.student_id for s in fold.test})[:6]
    question = 17
    concepts = (3,)

    print("3) serving scores ...")
    single = service.execute(ScoreQuery(students[0], question, concepts))
    print(f"   one query: student {students[0]} on q{question} "
          f"-> {single.score:.4f}")

    replies = service.execute_batch([ScoreQuery(s, question, concepts)
                                     for s in students])
    print("   one batch: " + ", ".join(
        f"{reply.student_id}:{reply.score:.4f}" for reply in replies))

    service.execute_batch([RecordEvent(students[0], question, 1, concepts),
                           RecordEvent(students[0], question, 1, concepts)])
    updated = service.execute(ScoreQuery(students[0], question, concepts))
    print(f"   after two correct answers on q{question}: "
          f"{single.score:.4f} -> {updated.score:.4f}")

    print("4) batched next-question recommendation ...")
    reply = service.execute(RecommendQuery(
        students[0], tuple(CandidateQuestion(q, (1 + q % 10,))
                           for q in (5, 12, 23, 31, 44)), top_k=3))
    for item in reply.items:
        print(f"   q{item.question_id}: "
              f"p(correct)={item.success_probability:.2f}  "
              f"value={item.value:.3f}  score={item.score:.3f}")

    print("5) incremental forward-stream cache ...")
    stats = engine.stream_cache_stats()
    print(f"   {stats['entries']} students cached "
          f"({stats['bytes'] / 1024:.1f} KiB of "
          f"{stats['budget_bytes'] // 2**20} MiB budget), "
          f"{stats['hits']} hits / {stats['misses']} misses, "
          f"{stats['evictions']} evictions")
    print("   a record extends each cached encoder state by one step; "
          "a score only runs the per-request backward streams")


if __name__ == "__main__":
    main()
