"""Warm rollouts under concurrent reads/records: replies are never torn
across checkpoints, and failures — if any — are taxonomy values, never
exceptions."""

import threading

import numpy as np
import pytest

from repro.core import RCKT, RCKTConfig
from repro.serve import (InferenceEngine, RecordEvent, ScoreQuery, Service,
                         is_error)

NUM_QUESTIONS = 30
NUM_CONCEPTS = 5
#: Scores under the two checkpoints differ macroscopically (different
#: init seeds), so tolerance-based membership cleanly detects a torn
#: (mixed-weights) reply.
MEMBER_ATOL = 1e-9


def make_model(seed):
    return RCKT(NUM_QUESTIONS, NUM_CONCEPTS,
                RCKTConfig(encoder="dkt", dim=8, layers=1, seed=seed))


def load_records(engine, students, per_student=5, seed=31):
    rng = np.random.default_rng(seed)
    for student in students:
        for _ in range(per_student):
            engine.record(student, int(rng.integers(1, NUM_QUESTIONS + 1)),
                          int(rng.integers(0, 2)),
                          (int(rng.integers(1, NUM_CONCEPTS + 1)),))


@pytest.fixture()
def checkpoints(tmp_path):
    paths = {}
    for label, seed in (("blue", 1), ("green", 9)):
        path = tmp_path / f"{label}.npz"
        InferenceEngine(make_model(seed)).save(path)
        paths[label] = path
    return paths


def expected_scores(students, probe, seed):
    """Per-student probe score under one checkpoint's weights."""
    engine = InferenceEngine(make_model(seed))
    load_records(engine, students)
    scores = {student: engine.service.execute(
                  ScoreQuery(student, probe[0], tuple(probe[1]))).score
              for student in students}
    return scores


class TestSwapUnderConcurrency:
    def _run(self, service, students, probe, swap, iterations=40,
             readers=4):
        """Hammer reads from ``readers`` threads while ``swap()`` flips
        checkpoints on the main thread; returns (replies, exceptions)."""
        replies = []
        exceptions = []
        lock = threading.Lock()
        stop = threading.Event()

        def read_loop():
            rng = np.random.default_rng()
            try:
                while not stop.is_set():
                    student = students[int(rng.integers(len(students)))]
                    reply = service.execute(ScoreQuery(student, probe[0],
                                                       probe[1]))
                    with lock:
                        replies.append((student, reply))
            except Exception as error:  # noqa: BLE001 — must not happen
                exceptions.append(error)

        threads = [threading.Thread(target=read_loop)
                   for _ in range(readers)]
        for thread in threads:
            thread.start()
        try:
            for iteration in range(iterations):
                swap(iteration)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
        return replies, exceptions

    def test_reads_are_never_torn_across_checkpoints(self, checkpoints):
        students = [f"s{k}" for k in range(6)]
        probe = (7, (2,))
        blue_scores = expected_scores(students, probe, seed=1)
        green_scores = expected_scores(students, probe, seed=9)
        for student in students:
            assert abs(blue_scores[student]
                       - green_scores[student]) > 10 * MEMBER_ATOL

        engine = InferenceEngine.from_checkpoint(checkpoints["blue"])
        load_records(engine, students)
        service = Service(engine)

        def swap(iteration):
            target = checkpoints["green" if iteration % 2 == 0 else "blue"]
            service.rollout(target, warm_top=4)

        replies, exceptions = self._run(service, students, probe, swap)
        service.close()
        assert not exceptions
        assert len(replies) > 20
        torn = []
        for student, reply in replies:
            assert reply.ok, f"taxonomy failure mid-swap: {reply}"
            near_blue = abs(reply.score
                            - blue_scores[student]) < MEMBER_ATOL
            near_green = abs(reply.score
                             - green_scores[student]) < MEMBER_ATOL
            if not (near_blue or near_green):
                torn.append((student, reply.score))
        assert not torn, f"replies match neither checkpoint: {torn[:3]}"
        # Both weight generations were actually observed mid-run.
        generations = {abs(reply.score - blue_scores[student])
                       < MEMBER_ATOL for student, reply in replies}
        assert generations == {True, False}

    def test_records_survive_continuous_rollouts(self, checkpoints):
        students = [f"w{k}" for k in range(4)]
        engine = InferenceEngine.from_checkpoint(checkpoints["blue"])
        load_records(engine, students)
        service = Service(engine)
        base_length = service.engine().history_length(students[0])
        outcomes = []
        exceptions = []
        stop = threading.Event()

        def record_loop():
            step = 0
            try:
                while not stop.is_set():
                    student = students[step % len(students)]
                    reply = service.execute(RecordEvent(
                        student, 1 + step % NUM_QUESTIONS, step % 2,
                        (1 + step % NUM_CONCEPTS,)))
                    outcomes.append(reply)
                    step += 1
            except Exception as error:  # noqa: BLE001 — must not happen
                exceptions.append(error)

        recorder = threading.Thread(target=record_loop)
        recorder.start()
        try:
            for iteration in range(20):
                service.rollout(
                    checkpoints["green" if iteration % 2 == 0
                                else "blue"], warm_top=4)
        finally:
            stop.set()
            recorder.join(timeout=30.0)
        assert not exceptions
        assert outcomes and all(not is_error(reply) for reply in outcomes)
        # Every acknowledged record landed in the (shared) history
        # store, across 20 generations of engines.
        recorded = sum(1 for reply in outcomes)
        total = sum(service.engine().history_length(s) for s in students)
        assert total == recorded + base_length * len(students)
        service.close()
