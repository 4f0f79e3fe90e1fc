"""Sharded serving end to end: 2 worker processes, one router, no drift.

Boots the full ``repro.cluster`` stack the way an operator would and
drives it like an external caller, asserting the cluster's core
contract at every step — replies **bit-identical** to a single
in-process :class:`repro.serve.Service`:

1. Train a small RCKT-DKT and save it as the *blue* checkpoint.
2. Boot a 2-shard cluster: a :class:`repro.cluster.Supervisor` spawns
   two worker processes (each the stock HTTP serving gateway), and a
   :class:`repro.cluster.ScatterGatherRouter` becomes the single
   public endpoint.
3. Stream records and a mixed batch envelope (score + explain +
   what-if) through the router's HTTP face and verify wire replies
   against the in-process reference.
4. Hard-kill worker 0; the supervisor restarts it on the same port and
   replays the record journal — identity must survive the crash.
5. Train one more epoch (the *green* checkpoint) and roll it out warm
   (blue/green with pre-built stream caches); identity must survive
   the swap, on the new weights.

Exits non-zero on any mismatching reply; the CI docs lane runs it.

Usage::

    python examples/serve_cluster.py
"""

import sys
import tempfile
from pathlib import Path

from repro.core import RCKT, RCKTConfig, fit_rckt
from repro.cluster import (RecordJournal, ScatterGatherRouter, Supervisor,
                           WorkerSpec, free_port)
from repro.data import make_assist09, train_test_split
from repro.serve import (DEFAULT_MODEL, ExplainQuery, HistoryEdit,
                         InferenceEngine, RecordEvent, ScoreQuery, Service,
                         ServiceClient, WhatIfQuery, start_http_thread,
                         to_wire)


def check(label, cluster_replies, local_replies) -> int:
    mismatches = sum(to_wire(a) != to_wire(b)
                     for a, b in zip(cluster_replies, local_replies))
    print(f"   {label}: {len(cluster_replies)} replies, "
          f"{mismatches} mismatches vs in-process Service")
    return mismatches


def main() -> int:
    print("1) training a small RCKT-DKT (blue checkpoint) ...")
    dataset = make_assist09(scale=0.2, seed=11)
    fold = train_test_split(dataset, seed=0)
    config = RCKTConfig(encoder="dkt", dim=16, layers=1, epochs=1,
                        batch_size=32, lr=2e-3, seed=0)
    model = RCKT(dataset.num_questions, dataset.num_concepts, config)
    fit_rckt(model, fold.train, fold.validation, eval_stride=4)

    failures = 0
    with tempfile.TemporaryDirectory(prefix="rckt-cluster-demo-") as tmp:
        blue = Path(tmp) / "blue.npz"
        InferenceEngine(model).save(blue)

        print("2) booting a 2-shard cluster ...")
        specs = [WorkerSpec(shard_id=shard, port=free_port(),
                            checkpoints=[(DEFAULT_MODEL, str(blue))],
                            log_path=f"{tmp}/worker{shard}.log")
                 for shard in range(2)]
        journal = RecordJournal()
        supervisor = Supervisor(specs, journal=journal)
        supervisor.start()
        router = ScatterGatherRouter([spec.base_url for spec in specs],
                                     journal=journal)
        supervisor.attach_router(router)
        server, _ = start_http_thread(router, role="router")
        client = ServiceClient(f"http://127.0.0.1:{server.server_port}")
        local = Service.from_checkpoint(blue)
        print(f"   router on http://127.0.0.1:{server.server_port} -> "
              f"{client.health()['status']}")

        try:
            students = sorted({s.student_id for s in fold.test})[:8]
            records = [RecordEvent(student, 1 + (3 * k) % 20, k % 2,
                                   (1 + k % 5,))
                       for k in range(4) for student in students]
            mixed = []
            for k, student in enumerate(students):
                question = 1 + (7 * k) % 20
                mixed.append(ScoreQuery(student, question, (1 + k % 5,)))
                mixed.append(ExplainQuery(student))
                mixed.append(WhatIfQuery(student, question, (1 + k % 5,),
                                         (HistoryEdit(0, "flip"),)))

            print("3) records + mixed envelope over the wire ...")
            failures += check("records", client.execute_batch(records),
                              local.execute_batch(records))
            failures += check("mixed envelope", client.execute_batch(mixed),
                              local.execute_batch(mixed))

            print("4) hard-killing worker 0 (restart + journal replay)")
            supervisor.workers[0].process.kill()
            supervisor.workers[0].process.wait()
            supervisor.check_once()
            failures += check("post-crash envelope",
                              client.execute_batch(mixed),
                              local.execute_batch(mixed))

            print("5) warm blue/green rollout (one more training epoch)")
            fit_rckt(model, fold.train, fold.validation, eval_stride=4)
            green = Path(tmp) / "green.npz"
            InferenceEngine(model).save(green)
            results = client.rollout(green, warm_top=16)
            if not isinstance(results, dict) \
                    or results.get("status") != "ok":
                print(f"   rollout failed: {results}")
                failures += 1
            local.rollout(green, warm_top=16)
            failures += check("post-rollout envelope",
                              client.execute_batch(mixed),
                              local.execute_batch(mixed))
        finally:
            client.close()
            server.shutdown()
            server.server_close()
            supervisor.stop()
            router.close()
            local.close()

    if failures:
        print(f"FAILED: {failures} mismatching replies")
        return 1
    print("ok: 2-shard cluster served bit-identically through a crash "
          "and a warm rollout")
    return 0


if __name__ == "__main__":
    sys.exit(main())
