"""CLI: boot a sharded serving cluster (supervisor + workers + router).

Usage::

    python -m repro.cluster --checkpoint rckt.npz --shards 4
    python -m repro.cluster --checkpoint rckt.npz --shards 4 \\
        --journal-dir /var/lib/rckt/journal --fsync batch
    python -m repro.cluster --checkpoint prod=a.npz --checkpoint \\
        canary=b.npz --shards 2 --port 8080 --window 256
    python -m repro.cluster --selfcheck [--journal-dir DIR]

Boots ``--shards`` worker processes (each ``python -m repro.serve
--shard-id N``, the full single-process serving gateway, on its own
ephemeral port), waits until every one is healthy, then serves the
scatter-gather router on ``--port`` through the same HTTP face
(``serve_http(router, role="router")``) — the cluster's single public
endpoint, wire-compatible with ``python -m repro.serve``.

``--journal-dir`` makes the record journal **durable**: acknowledged
records append to per-shard CRC-framed segment files (fsync policy via
``--fsync``; periodic snapshot + truncation via ``--snapshot-every``),
and a cluster booted over an existing journal directory **recovers on
boot** — every shard's snapshot + tail is replayed into its fresh
worker before the router starts serving, so acknowledged records
survive not just worker crashes but router/process death and full
cold restarts.  Without the flag the journal is in-memory, as before.

``--selfcheck`` runs the CI smoke lane: a throwaway 2-shard cluster on
synthetic checkpoints proving (1) mixed batch envelopes answer
bit-identically to a single in-process ``Service``, (2) a killed
worker is restarted with its journal replayed and answers identically
afterwards, and (3) a warm blue/green rollout applies cluster-wide and
crash recovery restores the rolled-out weights.  With ``--journal-dir``
it additionally proves (4) a **full cold boot** — every process gone,
a torn byte tail appended to a live segment — recovers from disk alone
and still answers bit-identically (the CI durability lane).
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

from repro.serve.__main__ import parse_cache_bytes, parse_checkpoint
from repro.serve.http_gateway import serve_http, start_http_thread
from repro.serve.protocol import DEFAULT_MODEL, is_error, to_wire

from .journal import DEFAULT_SEGMENT_BYTES, RecordJournal
from .ring import DEFAULT_REPLICAS
from .router import ScatterGatherRouter
from .supervisor import Supervisor, WorkerSpec, free_port
from .wal import FSYNC_POLICIES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="Sharded multi-process serving cluster over the "
                    "typed RCKT API")
    parser.add_argument("--checkpoint", action="append",
                        type=parse_checkpoint, metavar="[NAME=]PATH",
                        help="checkpoint every worker registers "
                             "(repeatable); bare PATH registers as "
                             f"'{DEFAULT_MODEL}'")
    parser.add_argument("--shards", type=int, default=2,
                        help="worker process count (default 2)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080,
                        help="router port (0 picks an ephemeral port); "
                             "workers always use ephemeral ports")
    parser.add_argument("--replicas", type=int, default=DEFAULT_REPLICAS,
                        help="consistent-hash ring points per shard")
    parser.add_argument("--window", type=int, default=None)
    parser.add_argument("--window-hop", type=int, default=None)
    parser.add_argument("--stream-cache-bytes", type=parse_cache_bytes,
                        default=None)
    parser.add_argument("--poll-interval", type=float, default=0.5,
                        help="watchdog probe cadence in seconds")
    parser.add_argument("--journal-dir", default=None,
                        help="directory for the durable record journal "
                             "(per-shard segment files + snapshots); an "
                             "existing journal is recovered and replayed "
                             "into the fresh workers on boot.  Default: "
                             "in-memory journal (no durability)")
    parser.add_argument("--fsync", choices=FSYNC_POLICIES,
                        default="batch",
                        help="journal fsync policy: 'record' = fsync "
                             "per acknowledged record, 'batch' = fsync "
                             "once per routed sub-envelope (default), "
                             "'off' = let the OS decide")
    parser.add_argument("--snapshot-every", type=int, default=4096,
                        help="auto-snapshot + truncate a shard's journal "
                             "every N tail records (0 disables; default "
                             "4096)")
    parser.add_argument("--segment-bytes", type=int,
                        default=DEFAULT_SEGMENT_BYTES,
                        help="roll journal segment files at this size")
    parser.add_argument("--log-dir", default=None,
                        help="directory for per-worker logs (default: "
                             "worker output is discarded)")
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument("--selfcheck", action="store_true",
                        help="boot a throwaway 2-shard cluster on "
                             "synthetic checkpoints, prove router/single"
                             "-service bit-identity across a worker "
                             "crash and a warm rollout, exit 0")
    return parser


def _engine_flags(args) -> List[str]:
    flags = []
    if args.window is not None:
        flags += ["--window", str(args.window)]
    if args.window_hop is not None:
        flags += ["--window-hop", str(args.window_hop)]
    if args.stream_cache_bytes is not None:
        flags += ["--stream-cache-bytes", str(args.stream_cache_bytes)]
    if args.verbose:
        flags += ["--verbose"]
    return flags


def build_journal(args) -> RecordJournal:
    """The cluster's journal per the parsed args — durable (recovering
    any prior state from ``--journal-dir``) or in-memory, with the ring
    parameters the shard keying depends on pinned in the directory."""
    snapshot_every = getattr(args, "snapshot_every", 0) or None
    journal = RecordJournal(
        directory=getattr(args, "journal_dir", None),
        fsync=getattr(args, "fsync", "batch"),
        segment_max_bytes=getattr(args, "segment_bytes",
                                  DEFAULT_SEGMENT_BYTES),
        snapshot_every=snapshot_every)
    journal.bind_meta({"shards": args.shards,
                       "replicas": args.replicas})
    return journal


def build_cluster(args, checkpoints):
    """(journal, supervisor, router) for the given parsed args —
    workers spawned and healthy, any durable journal recovered from
    ``--journal-dir`` and replayed into them (cold boot), router
    attached, watchdog not yet started (the caller decides)."""
    specs = [
        WorkerSpec(shard_id=shard, port=free_port(args.host),
                   checkpoints=[(name, str(path))
                                for name, path in checkpoints],
                   host=args.host, extra_args=tuple(_engine_flags(args)),
                   log_path=(f"{args.log_dir}/worker{shard}.log"
                             if args.log_dir else None))
        for shard in range(args.shards)
    ]
    journal = build_journal(args)
    stray = [shard for shard in journal.shards()
             if shard >= args.shards]
    if stray:
        raise ValueError(
            f"journal directory {journal.directory} holds records for "
            f"shards {stray} but the cluster boots only "
            f"{args.shards} shards")
    supervisor = Supervisor(specs, journal=journal,
                            poll_interval=args.poll_interval)
    supervisor.start()
    if journal.total():
        replayed = supervisor.replay_all()
        print(f"cold boot: replayed {replayed} journaled records into "
              f"{args.shards} shards from {journal.directory}")
    router = ScatterGatherRouter([spec.base_url for spec in specs],
                                 journal=journal, replicas=args.replicas)
    supervisor.attach_router(router)
    return journal, supervisor, router


# ---------------------------------------------------------------------------
# Selfcheck (the CI cluster-smoke lane)
# ---------------------------------------------------------------------------
def _selfcheck_queries(students):
    from repro.serve import (CandidateQuestion, ExplainQuery, HistoryEdit,
                             RecommendQuery, RecourseQuery, ScoreQuery,
                             WhatIfQuery)
    queries = []
    for index, student in enumerate(students):
        question = 1 + (3 * index) % 20
        queries.append(ScoreQuery(student, question, (1 + index % 5,)))
        queries.append(ExplainQuery(student))
        queries.append(WhatIfQuery(student, question, (1 + index % 5,),
                                   (HistoryEdit(0, "flip"),)))
        queries.append(RecommendQuery(
            student, (CandidateQuestion(question, (1,)),
                      CandidateQuestion(1 + (question + 4) % 20, (2,))),
            top_k=2, horizon=2))
        queries.append(RecourseQuery(
            student, question, (1 + index % 5,), threshold=0.95,
            max_edits=2, beam_width=2,
            candidates=(CandidateQuestion(question, (1,)),
                        CandidateQuestion(1 + (question + 4) % 20, (2,)))))
    return queries


def _compare(label: str, cluster_replies, local_replies) -> int:
    mismatches = 0
    for position, (ours, reference) in enumerate(zip(cluster_replies,
                                                     local_replies)):
        if to_wire(ours) != to_wire(reference):
            mismatches += 1
            print(f"selfcheck: {label}[{position}] mismatch:\n"
                  f"  cluster: {to_wire(ours)}\n"
                  f"  local:   {to_wire(reference)}")
    print(f"selfcheck: {label}: {len(cluster_replies)} replies, "
          f"{mismatches} mismatches")
    return mismatches


def _selfcheck(args) -> int:
    import numpy as np
    from repro.core import RCKT, RCKTConfig
    from repro.serve import InferenceEngine, RecordEvent, Service

    rng = np.random.default_rng(5)
    with tempfile.TemporaryDirectory(prefix="rckt-cluster-") as tmp:
        blue = Path(tmp) / "blue.npz"
        green = Path(tmp) / "green.npz"
        InferenceEngine(RCKT(20, 5, RCKTConfig(
            encoder="dkt", dim=8, layers=1, seed=0))).save(blue)
        InferenceEngine(RCKT(20, 5, RCKTConfig(
            encoder="dkt", dim=8, layers=1, seed=9))).save(green)

        args.shards = 2
        args.log_dir = tmp
        _, supervisor, router = build_cluster(args, [(DEFAULT_MODEL,
                                                      blue)])
        local = Service.from_checkpoint(blue)
        failures = 0
        try:
            students = [f"student-{k}" for k in range(8)]
            records = [RecordEvent(student,
                                   int(rng.integers(1, 21)),
                                   int(rng.integers(0, 2)),
                                   (int(rng.integers(1, 6)),))
                       for _ in range(4) for student in students]
            failures += _compare("records",
                                 router.execute_batch(records),
                                 local.execute_batch(records))
            mixed = _selfcheck_queries(students)
            failures += _compare("mixed envelope",
                                 router.execute_batch(mixed),
                                 local.execute_batch(mixed))

            supported = router.health().get("capabilities",
                                            {}).get("query_types", [])
            if "recourse" not in supported:
                print(f"selfcheck: router capabilities missing "
                      f"recourse: {supported}")
                failures += 1

            # The same envelope through the router's public HTTP face.
            from repro.serve import ServiceClient
            server, _ = start_http_thread(router, host=args.host,
                                          role="router")
            try:
                client = ServiceClient(
                    f"http://{args.host}:{server.server_port}")
                failures += _compare("wire envelope",
                                     client.batch(mixed),
                                     local.execute_batch(mixed))
                # Trace propagation: the envelope ID the router minted
                # for that batch must appear in the router's own span
                # log *and* in at least one worker's (the router→worker
                # hop carries it via protocol v2's request_id field).
                router_spans = client.metrics().get("spans", [])
                batch_ids = [span["request_id"] for span in router_spans
                             if span["name"] == "router.batch"
                             and span["request_id"]]
                if not batch_ids:
                    print(f"selfcheck: router span log has no "
                          f"router.batch span: {router_spans}")
                    failures += 1
                else:
                    rid = batch_ids[-1]
                    fanned = {span["name"] for span in router_spans
                              if span["request_id"] == rid}
                    worker_hits = 0
                    for shard_client in router.clients:
                        worker_spans = shard_client.metrics() \
                            .get("spans", [])
                        worker_hits += sum(
                            1 for span in worker_spans
                            if span["request_id"] == rid
                            and span["name"] == "worker.batch")
                    if len(fanned) < 2 or worker_hits == 0:
                        print(f"selfcheck: request id {rid} did not "
                              f"propagate (router stages {fanned}, "
                              f"worker.batch hits {worker_hits})")
                        failures += 1
                    else:
                        print(f"selfcheck: request id {rid} traced "
                              f"across {len(fanned)} router stages and "
                              f"{worker_hits} worker span(s)")
                client.close()
            finally:
                server.shutdown()

            print("selfcheck: killing worker 0 ...")
            supervisor.workers[0].process.kill()
            supervisor.workers[0].process.wait()
            supervisor.check_once()   # watchdog round: restart + replay
            assert supervisor.workers[0].restarts == 1
            failures += _compare("post-restart envelope",
                                 router.execute_batch(mixed),
                                 local.execute_batch(mixed))

            print("selfcheck: warm blue/green rollout ...")
            results = router.rollout(str(green))
            if any(is_error(result) for result in results):
                print(f"selfcheck: rollout failed: {results}")
                failures += 1
            local.rollout(green)
            failures += _compare("post-rollout envelope",
                                 router.execute_batch(mixed),
                                 local.execute_batch(mixed))

            print("selfcheck: killing worker 1 (post-rollout) ...")
            supervisor.workers[1].process.kill()
            supervisor.workers[1].process.wait()
            supervisor.check_once()
            failures += _compare("post-rollout restart envelope",
                                 router.execute_batch(mixed),
                                 local.execute_batch(mixed))

            if args.journal_dir:
                # Phase 4 (durability lane): snapshot + truncate, land
                # a post-snapshot tail, tear its final bytes, then cold
                # boot a brand-new cluster from disk alone — every
                # process above is gone, only --journal-dir survives.
                print("selfcheck: snapshot + cold boot from "
                      f"{args.journal_dir} ...")
                for stats in supervisor.journal.snapshot_all():
                    print(f"selfcheck: shard {stats['shard']} snapshot "
                          f"{stats['entries']} entries, "
                          f"{stats['segments_removed']} segments "
                          f"truncated")
                extra = [RecordEvent(student, 1 + 2 * k % 20, k % 2,
                                     (1 + k % 5,))
                         for k, student in enumerate(students)]
                failures += _compare("post-snapshot records",
                                     router.execute_batch(extra),
                                     local.execute_batch(extra))
                expected = supervisor.journal.total()
                supervisor.stop()
                router.close()
                supervisor.journal.close()
                from .wal import list_segments
                tails = [segment
                         for shard_dir in
                         sorted(Path(args.journal_dir).glob("shard-*"))
                         for segment in list_segments(shard_dir)]
                if tails:
                    with open(tails[-1], "ab") as handle:
                        handle.write(b"\x40\x00\x00\x00torn")
                    print(f"selfcheck: tore the tail of {tails[-1]}")
                journal2, supervisor, router = build_cluster(
                    args, [(DEFAULT_MODEL, green)])
                if journal2.total() != expected:
                    print(f"selfcheck: cold boot recovered "
                          f"{journal2.total()} journal entries, "
                          f"expected {expected}")
                    failures += 1
                failures += _compare("cold boot envelope",
                                     router.execute_batch(mixed),
                                     local.execute_batch(mixed))
        finally:
            supervisor.stop()
            router.close()
        if failures:
            print(f"selfcheck: FAILED ({failures} mismatching replies)")
            return 1
    print("selfcheck: ok (2 shards, bit-identical through crash "
          "restart and warm rollout"
          + (", cold boot from durable journal)" if args.journal_dir
             else ")"))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.selfcheck:
        return _selfcheck(args)
    if not args.checkpoint:
        build_parser().error("--checkpoint is required (or --selfcheck)")
    if args.shards <= 0:
        build_parser().error("--shards must be positive")
    print(f"booting {args.shards} shard workers ...")
    _, supervisor, router = build_cluster(args, args.checkpoint)
    supervisor.start_watchdog()
    server = serve_http(router, host=args.host, port=args.port,
                        verbose=args.verbose, role="router")
    print(f"cluster of {args.shards} shards serving "
          f"{[name for name, _ in args.checkpoint]} on "
          f"http://{args.host}:{server.server_port} "
          f"(POST /v1/query, /v1/batch, /v1/admin/rollout; "
          f"GET /v1/health, /v1/models)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.server_close()
        supervisor.stop()
        router.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
