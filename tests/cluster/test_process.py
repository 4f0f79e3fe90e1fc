"""Real multi-process cluster: supervisor-spawned workers end to end.

One deliberately compact test drives the whole OS-process stack through
a worker crash, a warm rollout and a crash after the rollout (the
thread-backed suite in ``test_router.py`` covers the routing logic
breadth; ``test_cold_boot.py`` covers recovery from disk).  The CLI's
argument screen and its cleanup after a failed boot are checked here
too.
"""

import socket

import numpy as np
import pytest

from repro.core import RCKT, RCKTConfig
from repro.cluster import (RecordJournal, ScatterGatherRouter, Supervisor,
                           WorkerSpec, free_port)
from repro.serve import (DEFAULT_MODEL, CandidateQuestion, ExplainQuery,
                         HistoryEdit, InferenceEngine, RecommendQuery,
                         RecordEvent, RecourseQuery, ScoreQuery, Service,
                         WhatIfQuery, is_error, to_wire)

NUM_QUESTIONS = 20
NUM_CONCEPTS = 5


def save_model(path, seed):
    InferenceEngine(RCKT(NUM_QUESTIONS, NUM_CONCEPTS,
                         RCKTConfig(encoder="dkt", dim=8, layers=1,
                                    seed=seed))).save(path)
    return path


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    return save_model(tmp_path_factory.mktemp("cluster") / "model.npz", 2)


def five_read_types(students):
    """Score, explain, what-if, recommend and recourse per student."""
    queries = []
    for index, student in enumerate(students):
        question = 1 + (3 * index) % NUM_QUESTIONS
        concepts = (1 + index % NUM_CONCEPTS,)
        candidates = (CandidateQuestion(question, (1,)),
                      CandidateQuestion(1 + (question + 4) % NUM_QUESTIONS,
                                        (2,)))
        queries += [
            ScoreQuery(student, question, concepts),
            ExplainQuery(student),
            WhatIfQuery(student, question, concepts,
                        (HistoryEdit(0, "flip"),)),
            RecommendQuery(student, candidates, top_k=2, horizon=2),
            RecourseQuery(student, question, concepts, threshold=0.95,
                          max_edits=2, beam_width=2,
                          candidates=candidates),
        ]
    return queries


def test_two_process_cluster_round_trip_and_crash_recovery(checkpoint,
                                                           tmp_path):
    specs = [WorkerSpec(shard_id=shard, port=free_port(),
                        checkpoints=[(DEFAULT_MODEL, str(checkpoint))],
                        log_path=str(tmp_path / f"worker{shard}.log"))
             for shard in range(2)]
    journal = RecordJournal()
    supervisor = Supervisor(specs, journal=journal, boot_timeout=60.0)
    supervisor.start()
    router = ScatterGatherRouter([spec.base_url for spec in specs],
                                 timeout=10.0, journal=journal)
    supervisor.attach_router(router)
    reference = Service.from_checkpoint(checkpoint)

    def assert_same(batch):
        ours = router.execute_batch(batch)
        theirs = reference.execute_batch(batch)
        assert [to_wire(a) for a in ours] == [to_wire(b) for b in theirs]

    try:
        rng = np.random.default_rng(3)
        students = [f"proc-{k}" for k in range(6)]
        records = [RecordEvent(s, int(rng.integers(1, NUM_QUESTIONS + 1)),
                               int(rng.integers(0, 2)),
                               (int(rng.integers(1, NUM_CONCEPTS + 1)),))
                   for _ in range(3) for s in students]
        mixed = five_read_types(students)
        assert_same(records)
        assert_same(mixed)

        # Hard-kill one worker: the watchdog round must respawn it on
        # the same port and replay its journal, restoring bit-identity.
        supervisor.workers[0].process.kill()
        supervisor.workers[0].process.wait()
        supervisor.check_once()
        assert supervisor.workers[0].restarts == 1
        assert_same(mixed)
        assert router.health()["status"] == "ok"

        # A warm rollout through the supervisor's hook, then a crash:
        # the restarted worker must come back on the rolled-out weights.
        green = save_model(tmp_path / "green.npz", 9)
        results = router.rollout(str(green))
        assert len(results) == 2
        assert not any(is_error(result) for result in results), results
        reference.rollout(green)
        assert_same(mixed)
        supervisor.workers[1].process.kill()
        supervisor.workers[1].process.wait()
        supervisor.check_once()
        assert supervisor.workers[1].restarts == 1
        assert_same(mixed)
    finally:
        supervisor.stop()
        router.close()
        reference.close()


def test_cli_rejects_a_negative_cache_budget(capsys):
    from repro.cluster.__main__ import build_parser
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(["--stream-cache-bytes", "-1"])
    assert exit_info.value.code == 2
    assert "byte count >= 0" in capsys.readouterr().err


@pytest.fixture()
def booted(monkeypatch):
    """Every ``Supervisor`` the cluster CLI builds; teardown stops any
    worker still running."""
    import repro.cluster.__main__ as cli

    instances = []

    class Recording(cli.Supervisor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            instances.append(self)

    monkeypatch.setattr(cli, "Supervisor", Recording)
    yield instances
    for supervisor in instances:
        supervisor.stop()


def test_cli_rejects_zero_replicas_before_spawning(checkpoint, booted,
                                                   capsys):
    from repro.cluster.__main__ import main
    with pytest.raises(SystemExit) as exit_info:
        main(["--checkpoint", str(checkpoint), "--replicas", "0",
              "--port", "0"])
    assert exit_info.value.code == 2
    assert "--replicas must be positive" in capsys.readouterr().err
    assert booted == []


def test_taken_router_port_stops_every_worker(checkpoint, booted,
                                              tmp_path):
    from repro.cluster.__main__ import main
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        with pytest.raises(OSError):
            main(["--checkpoint", str(checkpoint), "--log-dir",
                  str(tmp_path), "--port", str(taken.getsockname()[1])])
    [supervisor] = booted
    processes = [handle.process for handle in supervisor.workers]
    assert len(processes) == 2 and None not in processes
    assert all(process.poll() is not None for process in processes)
