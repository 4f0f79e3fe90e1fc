"""Serving RCKT over HTTP: the typed API v1 end to end.

Boots the full wire stack in one process and drives it like an external
caller would:

1. Train a small RCKT-DKT and build a :class:`repro.serve.Service`.
2. Start the HTTP/JSON gateway on an ephemeral port (the same stack
   ``python -m repro.serve --checkpoint ...`` runs standalone).
3. Round-trip typed queries through :class:`repro.serve.ServiceClient`:
   record events, score a probe, explain the latest response, and replay
   a counterfactual what-if (flip an early answer) — then verify every
   wire score against the in-process service.

Exits non-zero if any round-trip fails or drifts; the CI docs lane
runs it.

Usage::

    python examples/serve_http.py
"""

import sys

from repro.core import RCKT, RCKTConfig, fit_rckt
from repro.data import make_assist09, train_test_split
from repro.serve import (BatchEnvelope, ExplainQuery, HistoryEdit,
                         InferenceEngine, RecordEvent, ScoreQuery, Service,
                         ServiceClient, WhatIfQuery, start_http_thread)

PARITY = 1e-10


def main() -> int:
    print("1) training a small RCKT-DKT ...")
    dataset = make_assist09(scale=0.1, seed=7)
    fold = train_test_split(dataset, seed=0)
    config = RCKTConfig(encoder="dkt", dim=16, layers=1, epochs=2,
                        batch_size=32, lr=2e-3, seed=0)
    model = RCKT(dataset.num_questions, dataset.num_concepts, config)
    fit_rckt(model, fold.train, fold.validation, eval_stride=4)

    print("2) starting the HTTP gateway ...")
    engine = InferenceEngine(model)
    engine.load_dataset(fold.test)
    service = Service(engine)
    server, _ = start_http_thread(service)
    client = ServiceClient(f"http://127.0.0.1:{server.server_port}")
    health = client.health()
    print(f"   http://127.0.0.1:{server.server_port} -> {health}")
    failures = 0

    try:
        student = sorted({s.student_id for s in fold.test})[0]
        question, concepts = 17, (3,)

        print("3) score + record round-trip ...")
        replies = client.execute_batch(BatchEnvelope((
            RecordEvent(student, question, 1, concepts),
            ScoreQuery(student, question, concepts),
        )))
        wire_score = replies[1].score
        direct = service.execute(ScoreQuery(student, question,
                                            concepts)).score
        drift = abs(wire_score - direct)
        print(f"   wire {wire_score:.6f} vs in-process {direct:.6f} "
              f"(|diff| {drift:.2e})")
        failures += drift > PARITY

        print("4) explain round-trip (per-response influences) ...")
        explain = client.execute(ExplainQuery(student))
        if explain.ok:
            top = max(explain.influences,
                      key=lambda item: abs(item.influence))
            print(f"   target q{explain.target_question_id} "
                  f"(score {explain.score:.4f}); most influential: "
                  f"position {top.position} q{top.question_id} "
                  f"({'correct' if top.correct else 'incorrect'}, "
                  f"Δ {top.influence:+.4f})")
        else:
            print(f"   FAILED: {explain}")
            failures += 1

        print("5) what-if round-trip (flip the first response) ...")
        what_if = client.execute(WhatIfQuery(student, question, concepts,
                                             (HistoryEdit(0, "flip"),)))
        if what_if.ok:
            print(f"   baseline {what_if.baseline_score:.4f} -> edited "
                  f"{what_if.score:.4f} (Δ {what_if.delta:+.4f})")
        else:
            print(f"   FAILED: {what_if}")
            failures += 1

        print("6) structured errors are values, with HTTP statuses ...")
        error = client.execute(ScoreQuery(student, 10 ** 6, concepts))
        print(f"   {error.code} (HTTP {error.http_status}): "
              f"{error.message}")
        failures += error.code != "invalid_question"
    finally:
        server.shutdown()

    if failures:
        print(f"serve_http: {failures} round-trip failure(s)")
        return 1
    print("serve_http: all round-trips verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
