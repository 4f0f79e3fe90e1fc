"""Inference throughput: old per-prefix path vs the multi-target engine.

Two workloads, both scored identically by construction (the golden-parity
suite in ``tests/core/test_multi_target_parity.py`` pins the score
equality this benchmark asserts as a by-product):

* **evaluation sweep** — score every position of every sequence, the
  Table IV protocol.  Old path: ``predict_dataset(legacy=True)``, one
  re-collated prefix batch per target bucket.  New path: the shared
  forward-stream engine of :mod:`repro.core.multi_target`.
* **serving** — one "how would this student do on question q next?"
  probe per student, the production workload ``repro.serve`` exists for.
  Old path: the seed's serving idiom (one collated single-row
  ``predict_scores`` call per probe, exactly as
  ``repro.interpret.recommendation`` scores candidates).  New path:
  one ``Service.execute_batch`` call scoring all probes over the
  engine's cached student histories.

One more section tracks the incremental stream cache:

* **serving_incremental** — the steady-state record/score loop with the
  per-student forward-stream caches (:mod:`repro.serve.forward_cache`)
  against the same engine with a zero cache budget, which warm-builds
  every batch's rows and keeps nothing: warm caches skip the forward
  half of the encoder, so ``record`` costs one step and a score only
  runs the per-request backward streams.

And one for the PR 3 long-context work:

* **long_context** — a single synthetic student far past the seed's
  128-step ceiling, served through the steady-state record/score loop
  twice: once with full (unbounded, growing positional tables)
  histories and once with a sliding window
  (``InferenceEngine(window=W)``).  ``speedup`` is full/windowed wall
  time — windowed serving pays O(window) per score instead of
  O(history).  The two arms intentionally condition on different
  contexts, so ``max_abs_score_diff`` here compares the *windowed*
  scores against a from-scratch recompute on each probe's anchored
  window slice — the parity the long-context test suite pins at 1e-10.

And one for the PR 5 cluster:

* **cluster** — the same mixed batch envelope through ``repro.cluster``
  deployments of 1, 2, and 4 worker *processes* behind the
  scatter-gather router; ``speedup`` is 2-shard vs 1-shard throughput
  (hardware-bound: ~2x on multi-core hosts, ~1x on the single-core
  baseline machine) and ``max_abs_score_diff``
  checks every routed reply bit-identical against a single in-process
  ``Service`` — the cluster parity contract, gated at 0 drift.

And one for the PR 4 typed serving API:

* **service_layer** — the ``repro.serve.Service`` facade.  ``speedup``
  is the mixed-type scheduler win: one batch envelope of score +
  explain + what-if queries (coalesced into shared forward-stream
  batches) against executing the same queries one ``execute`` call at
  a time.  Also reported: the HTTP gateway's single-query round-trip
  throughput.  ``max_abs_score_diff`` spans batched vs per-query
  scores *and* wire vs in-process scores, so the drift gate covers the
  whole stack.

And one for the PR 7 counterfactual recourse API:

* **recourse** — the protocol-v2 ``RecourseQuery`` edit search: beam
  search over fix-history and practice-candidate edits, every
  generation scored as one shared forward-stream batch with practice
  worlds extending cloned warm caches.  Reports edit/world throughput
  and worlds-per-forward-call (the coalescing ratio); its
  ``max_abs_score_diff`` rescores each returned path's edited timeline
  from scratch, so the drift gate covers the search's answers.

And one for the PR 8 continual-learning loop:

* **online** — the closed serve→train loop of ``repro.online``: the
  durable record journal doubles as the load generator (append the
  live stream, cold-boot, ``replay_records``), the replayed stream is
  scored prequentially (test-then-train) on the incumbent, converted
  to training batches via ``dataset_from_records``, fine-tuned one
  round by ``OnlineTrainer``, and shipped back through a drift-gated
  warm ``Service.rollout``.  Reported: replay and prequential
  throughput (events/s), the prequential AUC, fine-tune and gated
  rollout wall time, and the gate's verdict.  There is deliberately
  no ``speedup`` ratio — the loop has no legacy arm to race — so only
  its ``max_abs_score_diff`` is gated: the max of (a) the golden
  round trip (journal-replayed training batches must be bit-identical
  to batches built from the original sequences; 1.0 when broken) and
  (b) post-rollout parity (the rolled-out service must score exactly
  like a fresh service booted from the refreshed checkpoint).

And one for the PR 10 observability layer:

* **obs** — the cost of the metrics registry itself: two identical
  ``Service`` stacks, one built under the default (enabled) registry
  and one under a disabled registry (``repro.obs`` instrument handles
  bind at construction, so the disabled arm runs the shared no-op
  singletons), driven with the same score batches interleaved in
  alternating order.  ``overhead_pct`` — the median paired per-loop
  time ratio, robust to scheduler spikes — is what instrumentation
  costs; ``check_regression.py`` gates it below 2%, the budget
  ``docs/OBSERVABILITY.md`` commits to, and ``max_abs_score_diff``
  pins both arms bit-identical (telemetry must never touch scores).
  All timing in this file runs on the same stopwatch
  (:class:`repro.obs.Timer`), so the bench exercises the clock
  indirection it is measuring.

Emits ``BENCH_inference.json`` (top-level ``speedup`` = serving-workload
throughput ratio for the default encoder) to start the perf trajectory::

    PYTHONPATH=src python benchmarks/bench_inference.py --quick

``benchmarks/check_regression.py`` gates CI on these numbers.
"""

from __future__ import annotations

import argparse
import json
import platform
from pathlib import Path

import numpy as np

from repro import obs
from repro.core import RCKT, RCKTConfig
from repro.data import (SimulationConfig, StudentSimulator, build_dataset,
                        collate)
from repro.obs import Timer
from repro.serve import InferenceEngine, ScoreQuery, Service


def build_corpus(num_students: int, seed: int = 11):
    config = SimulationConfig(num_students=num_students, num_questions=200,
                              num_concepts=20, sequence_length=(8, 50))
    simulator = StudentSimulator(config, seed=seed)
    return build_dataset("bench", simulator.simulate(seed=seed + 1),
                         config.num_questions, config.num_concepts)


def build_model(dataset, encoder: str, dim: int, layers: int) -> RCKT:
    return RCKT(dataset.num_questions, dataset.num_concepts,
                RCKTConfig(encoder=encoder, dim=dim, layers=layers, seed=1))


def scores_of(replies) -> np.ndarray:
    """Scores of replies that must all succeed.

    Every reply in these workloads carries a score; an error reply
    means the benchmark itself is broken — fail loudly instead of
    silently comparing fewer queries.
    """
    bad = [reply for reply in replies if not reply.ok]
    if bad:
        raise RuntimeError(f"benchmark query failed: {bad[0]}")
    return np.array([reply.score for reply in replies])


def probe_queries(sequences, questions) -> list:
    """One ``ScoreQuery`` per student for a row of probe questions."""
    return [ScoreQuery(sequence.student_id, int(question),
                       (1 + int(question) % 20,))
            for sequence, question in zip(sequences, questions)]


def bench_eval_sweep(model: RCKT, dataset, stride: int) -> dict:
    with Timer() as timer:
        _, legacy_scores = model.predict_dataset(dataset, stride=stride,
                                                 legacy=True)
    legacy_seconds = timer.elapsed_s
    with Timer() as timer:
        _, fast_scores = model.predict_dataset(dataset, stride=stride)
    fast_seconds = timer.elapsed_s
    # Path outputs are ordered differently (length buckets vs sorted
    # groups); sorting compares the score multisets, which the
    # target-aligned parity tests pin down exactly.
    max_diff = float(np.max(np.abs(np.sort(legacy_scores)
                                   - np.sort(fast_scores))))
    targets = len(legacy_scores)
    return {
        "targets": targets,
        "legacy_seconds": round(legacy_seconds, 4),
        "fast_seconds": round(fast_seconds, 4),
        "legacy_targets_per_sec": round(targets / legacy_seconds, 1),
        "fast_targets_per_sec": round(targets / fast_seconds, 1),
        "speedup": round(legacy_seconds / fast_seconds, 2),
        "max_abs_score_diff": max_diff,
    }


def bench_serving(model: RCKT, dataset, rounds: int) -> dict:
    sequences = list(dataset)
    rng = np.random.default_rng(7)
    probe_questions = rng.integers(1, dataset.num_questions + 1,
                                   size=(rounds, len(sequences)))

    # Old path: the seed idiom — collate one probe row per request
    # (repro.interpret.recommendation._target_score).
    from repro.data import Interaction, StudentSequence
    with Timer() as timer:
        old_scores = []
        for round_index in range(rounds):
            for k, sequence in enumerate(sequences):
                question = int(probe_questions[round_index, k])
                probe = Interaction(question, 1, (1 + question % 20,))
                extended = StudentSequence(
                    sequence.student_id,
                    list(sequence.interactions) + [probe])
                batch = collate([extended])
                old_scores.append(model.predict_scores(
                    batch, np.array([len(extended) - 1]))[0])
    old_seconds = timer.elapsed_s
    old_scores = np.array(old_scores)

    # New path: the service over a warm per-student history cache.
    engine = InferenceEngine(model)
    engine.load_dataset(dataset)
    service = Service(engine)
    with Timer() as timer:
        new_scores = []
        for round_index in range(rounds):
            new_scores.append(scores_of(service.execute_batch(
                probe_queries(sequences, probe_questions[round_index]))))
    new_seconds = timer.elapsed_s
    new_scores = np.concatenate(new_scores)

    requests_total = rounds * len(sequences)
    return {
        "requests": requests_total,
        "legacy_seconds": round(old_seconds, 4),
        "fast_seconds": round(new_seconds, 4),
        "legacy_targets_per_sec": round(requests_total / old_seconds, 1),
        "fast_targets_per_sec": round(requests_total / new_seconds, 1),
        "speedup": round(old_seconds / new_seconds, 2),
        "max_abs_score_diff": float(np.max(np.abs(old_scores - new_scores))),
    }


def bench_serving_incremental(model: RCKT, dataset, rounds: int) -> dict:
    """Steady-state serving: interleaved record/score, cache vs no cache."""
    rng = np.random.default_rng(13)
    sequences = list(dataset)
    probe_questions = rng.integers(1, dataset.num_questions + 1,
                                   size=(rounds, len(sequences)))
    record_questions = rng.integers(1, dataset.num_questions + 1,
                                    size=(rounds, len(sequences)))
    record_answers = rng.integers(0, 2, size=(rounds, len(sequences)))

    def run_loop(engine: InferenceEngine) -> tuple:
        engine.load_dataset(dataset)
        service = Service(engine)
        # Pre-warm: the first score pays the one-off cache build; the
        # benchmark measures the steady state that follows it.
        scores_of(service.execute_batch([
            ScoreQuery(s.student_id, 1, (1,)) for s in sequences]))
        with Timer() as timer:
            scores = []
            for round_index in range(rounds):
                for k, sequence in enumerate(sequences):
                    question = int(record_questions[round_index, k])
                    engine.record(sequence.student_id, question,
                                  int(record_answers[round_index, k]),
                                  (1 + question % 20,))
                scores.append(scores_of(service.execute_batch(
                    probe_queries(sequences, probe_questions[round_index]))))
        return timer.elapsed_s, np.concatenate(scores)

    nocache_seconds, nocache_scores = run_loop(
        InferenceEngine(model, stream_cache_bytes=0))
    cached_engine = InferenceEngine(model)
    cached_seconds, cached_scores = run_loop(cached_engine)

    requests_total = rounds * len(sequences)
    return {
        "requests": requests_total,
        "records": requests_total,
        "nocache_seconds": round(nocache_seconds, 4),
        "cached_seconds": round(cached_seconds, 4),
        "nocache_targets_per_sec": round(requests_total / nocache_seconds, 1),
        "cached_targets_per_sec": round(requests_total / cached_seconds, 1),
        "speedup": round(nocache_seconds / cached_seconds, 2),
        "max_abs_score_diff": float(np.max(np.abs(nocache_scores
                                                  - cached_scores))),
        "cache_stats": cached_engine.stream_cache_stats(),
    }


def bench_long_context(model: RCKT, num_concepts: int, length: int,
                       window: int, score_every: int) -> dict:
    """One long student: full-history serving vs sliding-window serving.

    Both arms replay the same record/score trace; the windowed arm's
    scores are additionally checked against a from-scratch recompute on
    each probe's anchored window slice (``max_abs_score_diff``).
    """
    from repro.core import score_batch_targets
    from repro.core.masking import window_start
    from repro.data import Interaction, StudentSequence
    from repro.tensor import no_grad

    rng = np.random.default_rng(17)
    num_questions = model.generator.embedder.question_embedding \
        .num_embeddings - 1
    questions = rng.integers(1, num_questions + 1, size=length)
    answers = rng.integers(0, 2, size=length)
    probe_questions = rng.integers(1, num_questions + 1, size=length + 1)

    def concept_for(question: int) -> int:
        return 1 + int(question) % num_concepts

    def run_loop(engine: InferenceEngine) -> tuple:
        service = Service(engine)
        with Timer() as timer:
            replies = []
            for step in range(length):
                question = int(questions[step])
                engine.record("long", question, int(answers[step]),
                              (concept_for(question),))
                if (step + 1) % score_every == 0:
                    probe = int(probe_questions[step])
                    replies.append(service.execute(ScoreQuery(
                        "long", probe, (concept_for(probe),))))
        return timer.elapsed_s, scores_of(replies)

    full_seconds, _ = run_loop(InferenceEngine(model))
    windowed_engine = InferenceEngine(model, window=window)
    windowed_seconds, windowed_scores = run_loop(windowed_engine)

    # Parity: windowed scores vs full recompute on the anchored slice.
    references = []
    for step in range(score_every - 1, length, score_every):
        anchor = window_start(step + 1, window, windowed_engine.window_hop)
        interactions = [
            Interaction(int(q), int(a), (concept_for(q),))
            for q, a in zip(questions[anchor:step + 1],
                            answers[anchor:step + 1])
        ]
        probe = int(probe_questions[step])
        interactions.append(Interaction(probe, 1, (concept_for(probe),)))
        batch = collate([StudentSequence("ref", interactions)])
        with no_grad():
            references.append(score_batch_targets(
                model, batch, np.array([len(interactions) - 1]))[0])

    probes = len(windowed_scores)
    return {
        "history_length": length,
        "window": window,
        "window_hop": windowed_engine.window_hop,
        "probes": probes,
        "full_seconds": round(full_seconds, 4),
        "windowed_seconds": round(windowed_seconds, 4),
        "full_probes_per_sec": round(probes / full_seconds, 1),
        "windowed_probes_per_sec": round(probes / windowed_seconds, 1),
        "speedup": round(full_seconds / windowed_seconds, 2),
        "max_abs_score_diff": float(np.max(np.abs(
            windowed_scores - np.array(references)))),
    }


def bench_service_layer(model: RCKT, dataset, rounds: int) -> dict:
    """Typed facade: mixed-batch scheduling and HTTP."""
    from repro.serve import (ExplainQuery, HistoryEdit, ServiceClient,
                             WhatIfQuery, start_http_thread)

    rng = np.random.default_rng(29)
    sequences = list(dataset)
    num_questions = dataset.num_questions
    probe_questions = rng.integers(1, num_questions + 1,
                                   size=(rounds, len(sequences)))

    def mixed_queries(round_index: int) -> list:
        queries = []
        for k, sequence in enumerate(sequences):
            question = int(probe_questions[round_index, k])
            queries.append(ScoreQuery(sequence.student_id, question,
                                      (1 + question % 20,)))
            if k % 3 == 0 and len(sequence) >= 2:
                queries.append(ExplainQuery(sequence.student_id))
            if k % 4 == 0 and len(sequence) >= 2:
                queries.append(WhatIfQuery(
                    sequence.student_id, question, (1 + question % 20,),
                    (HistoryEdit(0, "flip"),)))
        return queries

    def fresh_service() -> Service:
        engine = InferenceEngine(model)
        engine.load_dataset(dataset)
        service = Service(engine)
        # Pre-warm the stream caches: both arms measure the steady
        # state, not the one-off cold build.
        service.execute_batch([ScoreQuery(s.student_id, 1, (1,))
                               for s in sequences])
        return service

    # Arm 1: one execute() per query (no cross-query coalescing).
    service = fresh_service()
    with Timer() as timer:
        single_scores = []
        for round_index in range(rounds):
            for query in mixed_queries(round_index):
                single_scores.append(service.execute(query))
    single_seconds = timer.elapsed_s
    single_scores = scores_of(single_scores)

    # Arm 2: the same queries as batch envelopes (the scheduler
    # coalesces all score/explain/what-if rows per model into shared
    # forward-stream batches).
    service = fresh_service()
    with Timer() as timer:
        batched_scores = []
        for round_index in range(rounds):
            batched_scores.extend(service.execute_batch(
                mixed_queries(round_index)))
    batched_seconds = timer.elapsed_s
    batched_scores = scores_of(batched_scores)
    queries_total = len(batched_scores)

    # HTTP round-trip: single-query latency through the stdlib gateway.
    service = fresh_service()
    server, _ = start_http_thread(service)
    client = ServiceClient(f"http://127.0.0.1:{server.server_port}")
    http_queries = probe_queries(sequences[:50], probe_questions[0])
    try:
        with Timer() as timer:
            wire_scores = np.array([client.execute(query).score
                                    for query in http_queries])
        http_seconds = timer.elapsed_s
        local_scores = scores_of(service.execute_batch(http_queries))
    finally:
        server.shutdown()
    http_diff = float(np.max(np.abs(wire_scores - local_scores)))

    return {
        "queries": queries_total,
        "single_seconds": round(single_seconds, 4),
        "batched_seconds": round(batched_seconds, 4),
        "single_queries_per_sec": round(queries_total / single_seconds, 1),
        "batched_queries_per_sec": round(queries_total / batched_seconds,
                                         1),
        "speedup": round(single_seconds / batched_seconds, 2),
        "http_requests": len(http_queries),
        "http_seconds": round(http_seconds, 4),
        "http_requests_per_sec": round(len(http_queries) / http_seconds, 1),
        "max_abs_score_diff": max(
            float(np.max(np.abs(single_scores - batched_scores))),
            http_diff),
    }


def bench_cluster(model: RCKT, dataset, rounds: int,
                  shard_counts=(1, 2, 4)) -> dict:
    """Sharded multi-process serving: N workers behind the router.

    The same mixed batch envelope (score + explain + what-if) is driven
    through ``repro.cluster`` deployments of 1, 2, and 4 worker
    *processes*; ``speedup`` is 2-shard vs 1-shard throughput (and
    ``speedup_4`` 4-vs-1).  The ratio measures hardware parallelism —
    worker processes sidestep the GIL entirely, so expect ~2x at 2
    shards on multi-core hosts and ~1x on single-core CI runners (the
    committed baseline machine is single-core; the regression gate
    therefore checks this section's *drift* only).
    ``max_abs_score_diff`` compares every routed reply against a single
    in-process ``Service`` on the same checkpoint and records — the
    cluster's bit-identity contract, so anything above 0.0 is a routing
    bug, not noise.
    """
    import tempfile
    from pathlib import Path

    from repro.cluster import RecordJournal, ScatterGatherRouter, \
        Supervisor, WorkerSpec, free_port
    from repro.serve import (DEFAULT_MODEL, ExplainQuery, HistoryEdit,
                             RecordEvent, WhatIfQuery)

    rng = np.random.default_rng(41)
    sequences = list(dataset)[:32]
    num_questions = dataset.num_questions
    records = [
        RecordEvent(sequence.student_id, interaction.question_id,
                    interaction.correct, interaction.concept_ids)
        for sequence in sequences for interaction in sequence
    ]
    probe_questions = rng.integers(1, num_questions + 1,
                                   size=(rounds, len(sequences)))

    def mixed_queries(round_index: int) -> list:
        queries = []
        for k, sequence in enumerate(sequences):
            question = int(probe_questions[round_index, k])
            queries.append(ScoreQuery(sequence.student_id, question,
                                      (1 + question % 20,)))
            if k % 3 == 0:
                queries.append(ExplainQuery(sequence.student_id))
            if k % 4 == 0:
                queries.append(WhatIfQuery(
                    sequence.student_id, question, (1 + question % 20,),
                    (HistoryEdit(0, "flip"),)))
        return queries

    with tempfile.TemporaryDirectory(prefix="rckt-bench-cluster-") as tmp:
        checkpoint = Path(tmp) / "bench.npz"
        InferenceEngine(model).save(checkpoint)

        # Reference arm: one in-process Service on the same state.
        local = Service.from_checkpoint(checkpoint)
        local.execute_batch(records)
        # Warm round (stream-cache build) outside the timer, matching
        # the cluster arms below.
        local.execute_batch(mixed_queries(0))
        local_scores = []
        with Timer() as timer:
            for round_index in range(rounds):
                local_scores.append(scores_of(local.execute_batch(
                    mixed_queries(round_index))))
        local_seconds = timer.elapsed_s
        local_scores = np.concatenate(local_scores)
        queries_total = len(local_scores)

        entry = {
            "queries": queries_total,
            "students": len(sequences),
            "records": len(records),
            "local_seconds": round(local_seconds, 4),
            "local_queries_per_sec": round(queries_total / local_seconds,
                                           1),
        }
        max_diff = 0.0
        throughput = {}
        for shards in shard_counts:
            specs = [WorkerSpec(shard_id=shard, port=free_port(),
                                checkpoints=[(DEFAULT_MODEL,
                                              str(checkpoint))])
                     for shard in range(shards)]
            supervisor = Supervisor(specs, journal=RecordJournal())
            supervisor.start()
            router = ScatterGatherRouter(
                [spec.base_url for spec in specs],
                journal=supervisor.journal)
            supervisor.attach_router(router)
            try:
                router.execute_batch(records)
                # Warm round (stream-cache build) outside the timer.
                router.execute_batch(mixed_queries(0))
                with Timer() as timer:
                    shard_scores = []
                    for round_index in range(rounds):
                        shard_scores.append(scores_of(router.execute_batch(
                            mixed_queries(round_index))))
                seconds = timer.elapsed_s
            finally:
                supervisor.stop()
                router.close()
            shard_scores = np.concatenate(shard_scores)
            max_diff = max(max_diff, float(np.max(np.abs(
                shard_scores - local_scores))))
            throughput[shards] = queries_total / seconds
            entry[f"shards_{shards}_seconds"] = round(seconds, 4)
            entry[f"shards_{shards}_queries_per_sec"] = \
                round(throughput[shards], 1)

        base = shard_counts[0]
        entry["speedup"] = round(throughput.get(2, throughput[base])
                                 / throughput[base], 2)
        if 4 in throughput:
            entry["speedup_4"] = round(throughput[4] / throughput[base], 2)
        entry["max_abs_score_diff"] = max_diff
        return entry


def bench_recourse(model: RCKT, dataset, rounds: int) -> dict:
    """Counterfactual recourse: edit-search throughput and coalescing.

    One ``RecourseQuery`` per student per round (two practice
    candidates + history fixes, beam width 2, up to 3 edits).  The
    benchmark weights are untrained, so the 0.8 threshold is
    effectively unreachable and every search explores its full
    ``max_edits`` depth — the deterministic worst case for the
    search, which is exactly what a throughput trend wants.  Three
    reported facets:

    * ``edits_per_sec`` / ``worlds_per_sec`` — returned path edits and
      hypothetical timelines scored per wall-clock second;
    * ``worlds_per_forward_call`` — worlds scored divided by encoder
      forward passes (captures + streams), measured by wrapping the
      encoder.  The search scores each generation as one shared batch
      and extends warm caches for practice-only worlds, so this ratio
      must stay well above 1; a collapse to ~1 means the search
      regressed to world-at-a-time scoring;
    * ``max_abs_score_diff`` — every achieved path's final timeline is
      rebuilt from scratch and rescored through collate +
      ``predict_scores`` (the paper's evaluation idiom), gating the
      search's claimed ``final_score`` like every other drift entry.
    """
    from repro.data import Interaction, StudentSequence
    from repro.serve import CandidateQuestion, RecourseQuery

    rng = np.random.default_rng(43)
    sequences = [s for s in list(dataset) if len(s) >= 4][:40]
    num_questions = dataset.num_questions

    engine = InferenceEngine(model)
    engine.load_dataset(dataset)
    service = Service(engine)
    # Warm the stream caches: steady state, not the cold build.
    service.execute_batch([ScoreQuery(s.student_id, 1, (1,))
                           for s in sequences])

    probes = rng.integers(1, num_questions + 1,
                          size=(rounds, len(sequences), 3))

    def queries_for(round_index: int) -> list:
        queries = []
        for k, sequence in enumerate(sequences):
            target, cand_a, cand_b = (int(q)
                                      for q in probes[round_index, k])
            queries.append(RecourseQuery(
                sequence.student_id, target, (1 + target % 20,),
                threshold=0.8, max_edits=3, beam_width=2,
                candidates=(CandidateQuestion(cand_a, (1 + cand_a % 20,)),
                            CandidateQuestion(cand_b,
                                              (1 + cand_b % 20,)))))
        return queries

    counts = {"calls": 0}
    encoder = engine.model.generator.encoder
    real_capture = encoder.forward_stream_with_capture
    real_forward = encoder.forward_stream

    def counted_capture(*args, **kwargs):
        counts["calls"] += 1
        return real_capture(*args, **kwargs)

    def counted_forward(*args, **kwargs):
        counts["calls"] += 1
        return real_forward(*args, **kwargs)

    encoder.forward_stream_with_capture = counted_capture
    encoder.forward_stream = counted_forward
    try:
        with Timer() as timer:
            replies = []
            for round_index in range(rounds):
                replies.extend(service.execute_batch(
                    queries_for(round_index)))
        seconds = timer.elapsed_s
    finally:
        encoder.forward_stream_with_capture = real_capture
        encoder.forward_stream = real_forward

    bad = [reply for reply in replies if not reply.ok]
    if bad:
        raise RuntimeError(f"recourse benchmark query failed: {bad[0]}")
    edits = sum(len(reply.steps) for reply in replies)
    worlds = sum(reply.worlds_scored for reply in replies)
    achieved = sum(reply.achieved for reply in replies)

    # Drift gate: rescore each first-round reply's edited timeline from
    # scratch.  The recorded histories are exactly the dataset
    # sequences (load_dataset, no window), so the edit path replays
    # directly onto them.
    by_student = {s.student_id: s for s in sequences}
    max_diff = 0.0
    first_round = replies[:len(sequences)]
    for query, reply in zip(queries_for(0), first_round):
        rows = list(by_student[query.student_id].interactions)
        for step in reply.steps:
            if step.kind == "fix_history":
                old = rows[step.position]
                rows[step.position] = Interaction(
                    old.question_id, 1, old.concept_ids)
            else:
                rows.append(Interaction(step.question_id, 1,
                                        step.concept_ids))
        rows.append(Interaction(query.question_id, 1, query.concept_ids))
        golden = StudentSequence("golden", rows)
        batch = collate([golden])
        score = float(model.predict_scores(
            batch, np.array([len(rows) - 1]))[0])
        max_diff = max(max_diff, abs(reply.final_score - score))

    return {
        "searches": len(replies),
        "achieved": achieved,
        "edits": edits,
        "worlds_scored": worlds,
        "forward_calls": counts["calls"],
        "seconds": round(seconds, 4),
        "edits_per_sec": round(edits / seconds, 1),
        "worlds_per_sec": round(worlds / seconds, 1),
        "worlds_per_forward_call": round(
            worlds / max(counts["calls"], 1), 2),
        "max_abs_score_diff": max_diff,
    }


def bench_online(model: RCKT, dataset, epochs: int = 1) -> dict:
    """Closed serve→train loop: journal replay -> prequential ->
    fine-tune -> drift-gated warm rollout.

    The journal replayer is the load generator: the stream is appended
    to a durable journal, cold-booted, and replayed — everything
    downstream (scoring, training, the gate) consumes the replay, not
    the original sequences.  ``max_abs_score_diff`` gates the two
    bit-exactness contracts of the loop (see module docstring).
    """
    import tempfile

    from repro.cluster import RecordJournal
    from repro.data import StudentSequence, dataset_from_records
    from repro.online import DriftGate, auto_rollout, prequential_run
    from repro.online import OnlineTrainer
    from repro.serve import RecordEvent
    from repro.serve.protocol import to_wire

    sequences = list(dataset)[:32]
    events = [RecordEvent(sequence.student_id, interaction.question_id,
                          interaction.correct, interaction.concept_ids)
              for sequence in sequences for interaction in sequence]
    # The gate re-scores its stream twice (incumbent + candidate), so
    # it watches a held-out tail rather than the whole corpus.
    gate_students = {s.student_id for s in sequences[-8:]}

    with tempfile.TemporaryDirectory(prefix="rckt-bench-online-") as tmp:
        checkpoint = Path(tmp) / "incumbent.npz"
        refreshed = Path(tmp) / "refreshed.npz"
        InferenceEngine(model).save(checkpoint)

        # Load generator: journal the live stream, cold boot, replay.
        journal = RecordJournal(directory=Path(tmp) / "journal",
                                fsync="off")
        positions = {}
        for event in events:
            positions[event.student_id] = \
                positions.get(event.student_id, 0) + 1
            journal.append(0, to_wire(event),
                           positions[event.student_id])
        journal.close()
        with Timer() as timer:
            replayer = RecordJournal(directory=Path(tmp) / "journal")
            records = replayer.replay_records()
        replay_seconds = timer.elapsed_s
        replayer.close()

        # Golden round trip: journal-replayed training batches must be
        # bit-identical to batches built from the original sequences.
        streamed = dataset_from_records(records, dataset.num_questions,
                                        dataset.num_concepts)
        direct = {s.student_id: s for s in sequences}
        roundtrip = 0.0
        for sequence in streamed:
            reference = collate([direct[sequence.student_id]])
            mine = collate([StudentSequence(sequence.student_id,
                                            list(sequence.interactions))])
            for field in ("questions", "responses", "concepts",
                          "concept_counts", "mask"):
                if getattr(mine, field).tobytes() \
                        != getattr(reference, field).tobytes():
                    roundtrip = 1.0

        # Prequential test-then-train sweep on the incumbent (also
        # builds the service histories the rollout below warm-swaps).
        service = Service.from_checkpoint(checkpoint)
        with Timer() as timer:
            baseline = prequential_run(service, records)
        prequential_seconds = timer.elapsed_s

        # One incremental fine-tune round on the replayed stream.
        with Timer() as timer:
            trainer = OnlineTrainer(checkpoint, epochs=epochs, seed=123)
            summary = trainer.fine_tune(streamed)
            trainer.save(refreshed)
        fine_tune_seconds = timer.elapsed_s

        # Drift-gated warm rollout back into the serving tier.
        gate = DriftGate([r for r in records
                          if r.student_id in gate_students],
                         max_auc_drop=0.5, min_events=10)
        with Timer() as timer:
            verdict = auto_rollout(service, refreshed, gate)
        rollout_seconds = timer.elapsed_s
        from repro.serve import is_error
        if is_error(verdict):
            raise RuntimeError(f"online benchmark rollout refused: "
                               f"{verdict}")

        # Post-rollout parity: the rolled-out service must answer
        # exactly like a fresh service booted from the refreshed
        # checkpoint and fed the same replay.
        probes = [ScoreQuery(s.student_id, 1 + k % dataset.num_questions,
                             (1 + k % dataset.num_concepts,))
                  for k, s in enumerate(sequences)]
        reference = Service.from_checkpoint(refreshed)
        reference.execute_batch(records)
        ours = [reply.score for reply in service.execute_batch(probes)]
        theirs = [reply.score
                  for reply in reference.execute_batch(probes)]
        parity = float(np.max(np.abs(np.array(ours) - np.array(theirs))))

    decision = gate.last_decision
    return {
        "events": len(records),
        "students": len(sequences),
        "replay_seconds": round(replay_seconds, 4),
        "replay_events_per_sec": round(len(records) / replay_seconds, 1),
        "prequential_seconds": round(prequential_seconds, 4),
        "prequential_events_per_sec": round(
            len(records) / prequential_seconds, 1),
        "prequential_auc": (None if baseline.auc is None
                            else round(baseline.auc, 4)),
        "fine_tune_seconds": round(fine_tune_seconds, 4),
        "fine_tune_batches": summary["batches"],
        "gated_rollout_seconds": round(rollout_seconds, 4),
        "gate_allowed": decision.allowed,
        "gate_delta": (None if decision.delta is None
                       else round(decision.delta, 4)),
        "max_abs_score_diff": max(roundtrip, parity),
    }


def bench_obs(model: RCKT, dataset, rounds: int) -> dict:
    """Observability overhead: instrumented vs disabled serving arms.

    Two ``Service`` stacks on the same checkpoint and histories, one
    built under the default (enabled) metrics registry and one under a
    disabled registry — instrument handles bind at construction, so the
    disabled arm's counters and histograms are the shared no-op
    singletons.  The same score batches are driven through both arms
    *interleaved* with alternating order (slow drift and position bias
    on shared runners cancel); ``overhead_pct`` is the median over
    loops of the paired per-loop time ratio — robust to the
    heavy-tailed scheduler spikes a sum-of-times ratio inherits —
    which ``check_regression.py`` gates below 2%, the budget
    ``docs/OBSERVABILITY.md`` promises.
    ``max_abs_score_diff`` pins the arms bit-identical (metrics must
    never touch scores), and ``live_series`` counts the distinct series
    the instrumented arm actually populated (a collapse to ~0 means the
    instrumentation silently unplugged and the overhead number is
    measuring nothing).
    """
    rng = np.random.default_rng(47)
    sequences = list(dataset)
    num_questions = dataset.num_questions
    # The <2% gate needs a far steadier ratio than the speedup
    # sections: single ~100ms batches jitter ±10% on shared runners, so
    # the paired-median estimator below only converges inside the
    # budget with a deep sample — 24 loops still let it swing ±3%,
    # 60 hold every estimator within ~1%.  Even, so the order
    # alternation below gives both arms each position equally.
    loops = max(rounds * 4, 60)
    probe_questions = rng.integers(1, num_questions + 1,
                                   size=(loops, len(sequences)))

    def build_service() -> Service:
        engine = InferenceEngine(model)
        engine.load_dataset(dataset)
        service = Service(engine)
        # Pre-warm the stream caches: steady state, not the cold build.
        service.execute_batch([ScoreQuery(s.student_id, 1, (1,))
                               for s in sequences])
        return service

    previous = obs.set_registry(obs.MetricsRegistry())
    try:
        registry = obs.get_registry()
        instrumented = build_service()
        obs.set_registry(obs.MetricsRegistry(enabled=False))
        disabled = build_service()
    finally:
        obs.set_registry(previous)

    loop_seconds = {False: [], True: []}
    max_diff = 0.0
    for loop_index in range(loops):
        queries = probe_queries(sequences, probe_questions[loop_index])
        # Alternate which arm goes first: whichever runs second in
        # a loop inherits warmer caches and ramped CPU clocks, and
        # a fixed order would book that bias against one arm.
        arms = [(disabled, False), (instrumented, True)]
        if loop_index % 2:
            arms.reverse()
        replies = {}
        for service_arm, enabled in arms:
            with Timer() as timer:
                replies[enabled] = service_arm.execute_batch(queries)
            loop_seconds[enabled].append(timer.elapsed_s)
        off_scores = np.array([r.score for r in replies[False]])
        on_scores = np.array([r.score for r in replies[True]])
        max_diff = max(max_diff, float(np.max(np.abs(
            on_scores - off_scores))))

    disabled_seconds = float(np.sum(loop_seconds[False]))
    instrumented_seconds = float(np.sum(loop_seconds[True]))
    # Each loop times both arms back-to-back on the same queries, so
    # the per-loop ratio pairs away slow drift; the *median* over loops
    # then sheds the heavy-tailed spikes (GC, scheduler preemption)
    # that would swing a sum-of-times ratio by whole percents — the
    # <2% gate needs the estimator, not the noise.
    paired = (np.array(loop_seconds[True]) - np.array(loop_seconds[False])) \
        / np.array(loop_seconds[False])
    overhead_pct = float(np.median(paired)) * 100.0

    snapshot = registry.snapshot()
    live_series = (len(snapshot["counters"]) + len(snapshot["gauges"])
                   + len(snapshot["histograms"]))
    requests_total = loops * len(sequences)
    return {
        "requests": requests_total,
        "disabled_seconds": round(disabled_seconds, 4),
        "instrumented_seconds": round(instrumented_seconds, 4),
        "disabled_requests_per_sec": round(
            requests_total / disabled_seconds, 1),
        "instrumented_requests_per_sec": round(
            requests_total / instrumented_seconds, 1),
        "overhead_pct": round(overhead_pct, 2),
        "live_series": live_series,
        "max_abs_score_diff": max_diff,
    }


def bench_journal(num_entries: int) -> dict:
    """Durable record journal: append throughput and cold-boot replay.

    Encoder-independent (the journal moves wire payloads, not model
    state), so it runs once per benchmark and is keyed ``"wal"``.
    Three arms: (1) append rate under each fsync policy (``record`` =
    fsync per append, ``batch`` = fsync per 16 appends — the router's
    per-sub-envelope cadence, ``off`` = OS-buffered); (2) cold boot
    from the full segment log vs from a snapshot + empty tail, whose
    ratio (``speedup``) is the algorithmic win snapshot + truncation
    exists for; (3) ``max_abs_score_diff`` is 0.0 only when the
    replay streams from the full log, the snapshot, and an in-memory
    journal fed the same appends are *identical* — ordering/dedup
    correctness as a gated drift entry (1.0 means broken).
    """
    import tempfile
    from pathlib import Path

    from repro.cluster import RecordJournal
    from repro.serve import RecordEvent
    from repro.serve.protocol import to_wire

    rng = np.random.default_rng(7)
    students = [f"wal-{k}" for k in range(64)]
    sequences = {student: 0 for student in students}
    stream = []
    for _ in range(num_entries):
        student = students[int(rng.integers(0, len(students)))]
        sequences[student] += 1
        stream.append((to_wire(RecordEvent(
            student, int(rng.integers(1, 21)),
            int(rng.integers(0, 2)), (1,))), sequences[student]))
    # Retried acks: ~5% of appends are duplicates of earlier entries
    # (replay must keep exactly one copy of each).
    duplicates = [stream[int(rng.integers(0, len(stream)))]
                  for _ in range(num_entries // 20)]
    stream += duplicates

    def drain(journal):
        return [query for envelope in journal.envelopes(0)
                for query in envelope["queries"]]

    entry = {"entries": len(stream), "students": len(students),
             "duplicate_appends": len(duplicates)}
    with tempfile.TemporaryDirectory(prefix="rckt-bench-wal-") as tmp:
        for policy in ("record", "batch", "off"):
            journal = RecordJournal(directory=Path(tmp) / policy,
                                    fsync=policy)
            with Timer() as timer:
                for position, (payload, sequence) in enumerate(stream):
                    error = journal.append(0, payload, sequence)
                    if error is not None:
                        raise RuntimeError(f"journal rejected benchmark "
                                           f"payload: {error}")
                    if policy == "batch" and position % 16 == 15:
                        journal.sync(0)
                journal.sync(0)
            seconds = timer.elapsed_s
            journal.close()
            entry[f"append_{policy}_per_sec"] = round(
                len(stream) / seconds, 1)

        log_dir = Path(tmp) / "batch"
        with Timer() as timer:
            from_log = RecordJournal(directory=log_dir)
        log_seconds = timer.elapsed_s
        log_replay = drain(from_log)
        from_log.snapshot(0)
        from_log.close()
        with Timer() as timer:
            from_snapshot = RecordJournal(directory=log_dir)
        snapshot_seconds = timer.elapsed_s
        snapshot_replay = drain(from_snapshot)
        from_snapshot.close()

    in_memory = RecordJournal()
    for payload, sequence in stream:
        in_memory.append(0, payload, sequence)
    memory_replay = drain(in_memory)

    entry["replay_entries"] = len(log_replay)
    entry["cold_boot_log_seconds"] = round(log_seconds, 4)
    entry["cold_boot_snapshot_seconds"] = round(snapshot_seconds, 4)
    entry["speedup"] = round(log_seconds / snapshot_seconds, 2)
    entry["max_abs_score_diff"] = (
        0.0 if log_replay == snapshot_replay == memory_replay else 1.0)
    return entry


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small corpus, default encoder only (CI smoke)")
    parser.add_argument("--students", type=int, default=None)
    parser.add_argument("--stride", type=int, default=None)
    parser.add_argument("--rounds", type=int, default=2,
                        help="serving rounds (requests per student)")
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--layers", type=int, default=2)
    parser.add_argument("--encoders", nargs="*", default=None)
    parser.add_argument("--output", default="BENCH_inference.json")
    args = parser.parse_args()

    if args.quick:
        students = args.students or 100
        stride = args.stride or 4
        encoders = args.encoders or ["dkt"]
        # Long enough that both timing arms sit well clear of the
        # shared-runner noise floor the regression gate tolerates.
        long_length, long_window, long_every = 600, 64, 25
    else:
        students = args.students or 120
        stride = args.stride or 2
        encoders = args.encoders or ["dkt", "sakt", "akt"]
        long_length, long_window, long_every = 1200, 128, 60

    import os

    dataset = build_corpus(students)
    print(f"corpus: {len(dataset)} sequences, "
          f"{dataset.num_responses} responses")

    results = {
        "benchmark": "multi-target inference engine vs legacy prefix path",
        "quick": args.quick,
        "corpus": {"students": students,
                   "sequences": len(dataset),
                   "responses": int(dataset.num_responses)},
        "model": {"dim": args.dim, "layers": args.layers},
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "eval_sweep": {},
        "serving": {},
        "serving_incremental": {},
        "long_context": {},
        "service_layer": {},
        "cluster": {},
        "journal": {},
        "recourse": {},
        "online": {},
        "obs": {},
    }
    for encoder in encoders:
        model = build_model(dataset, encoder, args.dim, args.layers)
        sweep = bench_eval_sweep(model, dataset, stride)
        serving = bench_serving(model, dataset, args.rounds)
        incremental = bench_serving_incremental(model, dataset, args.rounds)
        long_context = bench_long_context(model, dataset.num_concepts,
                                          long_length, long_window,
                                          long_every)
        service_layer = bench_service_layer(model, dataset, args.rounds)
        cluster = bench_cluster(model, dataset, max(args.rounds, 3))
        recourse = bench_recourse(model, dataset, args.rounds)
        online = bench_online(model, dataset)
        obs_entry = bench_obs(model, dataset, args.rounds)
        results["eval_sweep"][encoder] = sweep
        results["serving"][encoder] = serving
        results["serving_incremental"][encoder] = incremental
        results["long_context"][encoder] = long_context
        results["service_layer"][encoder] = service_layer
        results["cluster"][encoder] = cluster
        results["recourse"][encoder] = recourse
        results["online"][encoder] = online
        results["obs"][encoder] = obs_entry
        print(f"{encoder}: eval sweep {sweep['speedup']}x "
              f"({sweep['legacy_targets_per_sec']} -> "
              f"{sweep['fast_targets_per_sec']} targets/s, "
              f"diff {sweep['max_abs_score_diff']:.2e}) | "
              f"serving {serving['speedup']}x "
              f"({serving['legacy_targets_per_sec']} -> "
              f"{serving['fast_targets_per_sec']} req/s, "
              f"diff {serving['max_abs_score_diff']:.2e})")
        print(f"{encoder}: incremental serving {incremental['speedup']}x "
              f"({incremental['nocache_targets_per_sec']} -> "
              f"{incremental['cached_targets_per_sec']} req/s, "
              f"diff {incremental['max_abs_score_diff']:.2e})")
        print(f"{encoder}: long context ({long_context['history_length']} "
              f"steps, window {long_context['window']}) "
              f"{long_context['speedup']}x "
              f"({long_context['full_probes_per_sec']} -> "
              f"{long_context['windowed_probes_per_sec']} probes/s, "
              f"window-recompute diff "
              f"{long_context['max_abs_score_diff']:.2e})")
        print(f"{encoder}: service layer mixed-batch "
              f"{service_layer['speedup']}x "
              f"({service_layer['single_queries_per_sec']} -> "
              f"{service_layer['batched_queries_per_sec']} queries/s) | "
              f"http {service_layer['http_requests_per_sec']} req/s "
              f"(diff {service_layer['max_abs_score_diff']:.2e})")
        print(f"{encoder}: cluster 2-shard {cluster['speedup']}x / "
              f"4-shard {cluster.get('speedup_4', '-')}x vs 1 shard "
              f"({cluster['shards_1_queries_per_sec']} -> "
              f"{cluster['shards_2_queries_per_sec']} -> "
              f"{cluster.get('shards_4_queries_per_sec', '-')} queries/s, "
              f"in-process {cluster['local_queries_per_sec']} q/s, "
              f"router-vs-local diff "
              f"{cluster['max_abs_score_diff']:.2e})")
        print(f"{encoder}: recourse {recourse['searches']} searches "
              f"({recourse['achieved']} achieved) | "
              f"{recourse['edits_per_sec']} edits/s, "
              f"{recourse['worlds_per_sec']} worlds/s, "
              f"{recourse['worlds_per_forward_call']} worlds/forward "
              f"(rescore diff {recourse['max_abs_score_diff']:.2e})")
        print(f"{encoder}: online loop {online['events']} events | "
              f"replay {online['replay_events_per_sec']} ev/s, "
              f"prequential {online['prequential_events_per_sec']} ev/s "
              f"(auc {online['prequential_auc']}) | fine-tune "
              f"{online['fine_tune_seconds']}s, gated rollout "
              f"{online['gated_rollout_seconds']}s "
              f"(allowed={online['gate_allowed']}, "
              f"roundtrip+parity diff "
              f"{online['max_abs_score_diff']:.2e})")
        print(f"{encoder}: obs overhead {obs_entry['overhead_pct']}% "
              f"({obs_entry['disabled_requests_per_sec']} -> "
              f"{obs_entry['instrumented_requests_per_sec']} req/s, "
              f"{obs_entry['live_series']} live series, "
              f"diff {obs_entry['max_abs_score_diff']:.2e})")

    journal = bench_journal(1000 if args.quick else 5000)
    results["journal"]["wal"] = journal
    print(f"journal: append {journal['append_record_per_sec']} "
          f"(record) / {journal['append_batch_per_sec']} (batch) / "
          f"{journal['append_off_per_sec']} (off) entries/s | "
          f"cold boot {journal['cold_boot_log_seconds']}s log -> "
          f"{journal['cold_boot_snapshot_seconds']}s snapshot "
          f"({journal['speedup']}x), replay/dedup diff "
          f"{journal['max_abs_score_diff']:.1f}")

    headline = results["serving"][encoders[0]]
    results["headline_workload"] = "serving"
    results["headline_encoder"] = encoders[0]
    results["speedup"] = headline["speedup"]
    results["legacy_targets_per_sec"] = headline["legacy_targets_per_sec"]
    results["fast_targets_per_sec"] = headline["fast_targets_per_sec"]

    path = Path(args.output)
    path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"headline: serving speedup {results['speedup']}x "
          f"-> {path.resolve()}")


if __name__ == "__main__":
    main()
