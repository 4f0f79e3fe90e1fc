"""Serving kernels keep BLAS single-threaded at serving shapes.

OpenBLAS hands a gemm to a helper thread once the problem is big
enough, and a woken helper spin-waits for more work for ~0.15 s after
every call.  A single stacked ``(B*L, D) @ (D, 4H)`` input projection
crosses that threshold at ordinary serving shapes (a few probe rows over
~40-step histories), so the helper burns as much CPU as the thread
serving the request: on a second core it competes with the other
processes of a cluster, and on a shared one it halves the serving
thread's share.  The no-grad kernels therefore project each ``(L, D)``
sequence with its own small gemm.

The dkt kernel runs its stacked LSTM layers as one block gemm per step,
which crosses the threshold at a quarter of the rows a single layer's
would, so it splits rows into blocks under a fixed M·N·K bound; the
warm-up case drives it at hundreds of rows.

These tests drive both encoder families' serving paths and assert that
the process spends at most ``MAX_CPU_OVER_THREAD`` times the serving
thread's own CPU time, which is itself at most its wall time.  Comparing
against the thread rather than the wall clock keeps the check honest
when the helper and the serving thread share one core, where process CPU
stays at wall time but half of it is the helper's.
"""

import os
import time

import numpy as np
import pytest

from repro.core import RCKT, RCKTConfig
from repro.serve import InferenceEngine, RecordEvent, ScoreQuery, Service

NUM_QUESTIONS = 60
NUM_CONCEPTS = 8
DIM = 32
HISTORY = 40
STUDENTS = 16
#: Cold students scored in one envelope by the warm-up case.
WARM_STUDENTS = 256
#: Process CPU over serving-thread CPU.  Single-threaded BLAS reads 1.0;
#: a spinning helper reads ~2.
MAX_CPU_OVER_THREAD = 1.3
#: Idle first so a helper an earlier test woke has gone back to sleep.
IDLE_S = 0.4
#: Timed window per encoder.
MIN_WALL_S = 0.5


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


pytestmark = pytest.mark.skipif(
    usable_cpus() < 2,
    reason="OpenBLAS starts no helper thread on a single CPU")


def make_service(encoder: str, seed: int,
                 students: int = STUDENTS) -> Service:
    """A dim-32, 2-layer engine holding ``students`` ~40-step histories."""
    model = RCKT(NUM_QUESTIONS, NUM_CONCEPTS,
                 RCKTConfig(encoder=encoder, dim=DIM, layers=2, seed=seed))
    engine = InferenceEngine(model)
    rng = np.random.default_rng(seed)
    for student in range(students):
        for _ in range(HISTORY + student % 5):
            engine.record(f"s{student}", int(rng.integers(1, NUM_QUESTIONS)),
                          int(rng.integers(0, 2)),
                          (int(rng.integers(1, NUM_CONCEPTS)),))
    return Service(engine)


def cpu_over_thread(run) -> float:
    """Process CPU per serving-thread CPU over repeated ``run()`` calls."""
    run()                     # untimed: lazy tables, caches, imports
    time.sleep(IDLE_S)
    wall = time.perf_counter()
    process, thread = time.process_time(), time.thread_time()
    while time.perf_counter() - wall < MIN_WALL_S:
        run()
    return (time.process_time() - process) / (time.thread_time() - thread)


def test_dkt_record_and_score_flush_stays_single_threaded():
    """A cluster worker's envelope: records plus two score probes (eight
    backward LSTM rows) on warm ~40-step histories."""
    service = make_service("dkt", seed=1)
    rng = np.random.default_rng(2)

    def envelope():
        students = rng.permutation(STUDENTS)
        queries = [RecordEvent(f"s{s}", int(rng.integers(1, NUM_QUESTIONS)),
                               int(rng.integers(0, 2)), (1,))
                   for s in students[:8]]
        queries += [ScoreQuery(f"s{s}", int(rng.integers(1, NUM_QUESTIONS)),
                               (2,)) for s in students[8:10]]
        replies = service.execute_batch(queries)
        assert all(reply.ok for reply in replies), replies

    ratio = cpu_over_thread(envelope)
    assert ratio < MAX_CPU_OVER_THREAD, (
        f"dkt serving burnt {ratio:.2f}x the serving thread's CPU: a "
        f"kernel gemm woke a BLAS helper thread")


def test_dkt_warm_build_and_score_stays_single_threaded():
    """Warm-up shapes: ``WARM_STUDENTS`` cold students in one envelope,
    so the LSTM kernel runs hundreds of rows per stacked pass."""
    service = make_service("dkt", seed=4, students=WARM_STUDENTS)
    engine = service.registry.get("default")
    queries = [ScoreQuery(f"s{s}", 1 + s % (NUM_QUESTIONS - 1),
                          (1 + s % 4,)) for s in range(WARM_STUDENTS)]

    def warm_build_and_score():
        engine.stream_caches.invalidate()
        replies = service.execute_batch(queries)
        assert all(reply.ok for reply in replies), replies

    ratio = cpu_over_thread(warm_build_and_score)
    assert ratio < MAX_CPU_OVER_THREAD, (
        f"dkt warm-up burnt {ratio:.2f}x the serving thread's CPU: a "
        f"kernel gemm woke a BLAS helper thread")


def test_akt_warm_build_and_score_stays_single_threaded():
    """Cold students warm-built in one stacked pass, then scored."""
    service = make_service("akt", seed=3)
    engine = service.registry.get("default")
    queries = [ScoreQuery(f"s{s}", 1 + s, (1 + s % 4,))
               for s in range(STUDENTS)]

    def warm_build_and_score():
        engine.stream_caches.invalidate()
        replies = service.execute_batch(queries)
        assert all(reply.ok for reply in replies), replies

    ratio = cpu_over_thread(warm_build_and_score)
    assert ratio < MAX_CPU_OVER_THREAD, (
        f"akt serving burnt {ratio:.2f}x the serving thread's CPU: a "
        f"kernel gemm woke a BLAS helper thread")
