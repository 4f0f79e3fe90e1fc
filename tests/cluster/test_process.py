"""Real multi-process cluster: supervisor-spawned workers end to end.

One deliberately compact test drives the whole OS-process stack (the
thread-backed suite in ``test_router.py`` covers the routing logic
breadth; ``python -m repro.cluster --selfcheck`` is the CI smoke lane
that additionally exercises rollout + post-rollout crash recovery).
The CLI's argument screen is checked here too.
"""

import numpy as np
import pytest

from repro.core import RCKT, RCKTConfig
from repro.cluster import (RecordJournal, ScatterGatherRouter, Supervisor,
                           WorkerSpec, free_port)
from repro.serve import (DEFAULT_MODEL, ExplainQuery, InferenceEngine,
                         RecordEvent, ScoreQuery, Service, to_wire)

NUM_QUESTIONS = 20
NUM_CONCEPTS = 5


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("cluster") / "model.npz"
    engine = InferenceEngine(RCKT(NUM_QUESTIONS, NUM_CONCEPTS,
                                  RCKTConfig(encoder="dkt", dim=8,
                                             layers=1, seed=2)))
    engine.save(path)
    return path


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
    try:
        rng = np.random.default_rng(3)
        students = [f"proc-{k}" for k in range(6)]
        records = [RecordEvent(s, int(rng.integers(1, NUM_QUESTIONS + 1)),
                               int(rng.integers(0, 2)),
                               (int(rng.integers(1, NUM_CONCEPTS + 1)),))
                   for _ in range(3) for s in students]
        mixed = [q for s in students
                 for q in (ScoreQuery(s, 7, (2,)), ExplainQuery(s))]

        for batch in (records, mixed):
            ours = router.execute_batch(batch)
            theirs = reference.execute_batch(batch)
            assert [to_wire(a) for a in ours] \
                == [to_wire(b) for b in theirs]

        # Hard-kill one worker: the watchdog round must respawn it on
        # the same port and replay its journal, restoring bit-identity.
        supervisor.workers[0].process.kill()
        supervisor.workers[0].process.wait()
        supervisor.check_once()
        assert supervisor.workers[0].restarts == 1
        ours = router.execute_batch(mixed)
        theirs = reference.execute_batch(mixed)
        assert [to_wire(a) for a in ours] == [to_wire(b) for b in theirs]
        assert router.health()["status"] == "ok"
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
