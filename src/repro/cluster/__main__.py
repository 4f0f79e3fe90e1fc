"""CLI: boot a sharded serving cluster (supervisor + workers + router).

Usage::

    python -m repro.cluster --checkpoint rckt.npz --shards 4
    python -m repro.cluster --checkpoint rckt.npz --shards 4 \\
        --journal-dir /var/lib/rckt/journal --fsync batch
    python -m repro.cluster --checkpoint prod=a.npz --checkpoint \\
        canary=b.npz --shards 2 --port 8080 --window 256

Boots ``--shards`` worker processes (each ``python -m repro.serve
--shard-id N``, the full single-process serving gateway, on its own
ephemeral port), waits until every one is healthy, then serves the
supervisor's scatter-gather router on ``--port`` through the same HTTP face
(``serve_http(router, role="router")``) — the cluster's single public
endpoint, wire-compatible with ``python -m repro.serve``.

``--journal-dir`` makes the record journal **durable**: acknowledged
records append to per-shard CRC-framed segment files (fsync policy via
``--fsync``; periodic snapshot + truncation via ``--snapshot-every``),
and a cluster booted over an existing journal directory **recovers on
boot** — every shard's snapshot + tail is replayed into its fresh
worker before the router starts serving, so acknowledged records
survive not just worker crashes but router/process death and full
cold restarts.  Without the flag the journal is in-memory.  Rollouts
are not journaled: a cold boot serves the ``--checkpoint`` paths on its
command line, so boot with the rolled-out checkpoint.

A boot that fails — a worker that dies, a rejected replay, a router
port already in use, or Ctrl-C — stops every worker it spawned before
the error propagates.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional

from repro.serve.__main__ import parse_cache_bytes, parse_checkpoint
from repro.serve.http_gateway import serve_http
from repro.serve.protocol import DEFAULT_MODEL

from .journal import DEFAULT_SEGMENT_BYTES, RecordJournal
from .ring import DEFAULT_REPLICAS
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
    journal = RecordJournal(directory=args.journal_dir, fsync=args.fsync,
                            segment_max_bytes=args.segment_bytes,
                            snapshot_every=args.snapshot_every or None)
    journal.bind_meta({"shards": args.shards,
                       "replicas": args.replicas})
    return journal


def build_cluster(args, checkpoints) -> Supervisor:
    """The cluster's :class:`Supervisor` (``supervisor.router`` serves)
    for the given parsed args — workers spawned and healthy, any
    durable journal recovered from ``--journal-dir`` and replayed into
    them (cold boot), watchdog not yet started (the caller decides).

    A bad ring fails before any worker spawns; if anything fails,
    every worker is stopped and the journal closed before the error
    propagates."""
    specs = [
        WorkerSpec(shard_id=shard, port=free_port(args.host),
                   checkpoints=[(name, str(path))
                                for name, path in checkpoints],
                   host=args.host, extra_args=tuple(_engine_flags(args)),
                   log_path=(f"{args.log_dir}/worker{shard}.log"
                             if args.log_dir else None))
        for shard in range(args.shards)
    ]
    with contextlib.ExitStack() as on_failure:
        journal = build_journal(args)
        on_failure.callback(journal.close)
        stray = [shard for shard in journal.shards()
                 if shard >= args.shards]
        if stray:
            raise ValueError(
                f"journal directory {journal.directory} holds records "
                f"for shards {stray} but the cluster boots only "
                f"{args.shards} shards")
        supervisor = Supervisor(specs, journal=journal,
                                replicas=args.replicas,
                                poll_interval=args.poll_interval)
        on_failure.callback(supervisor.stop)
        supervisor.start()
        if journal.total():
            replayed = sum(journal.replay_into(shard, client)
                           for shard, client
                           in enumerate(supervisor.clients))
            print(f"cold boot: replayed {replayed} journaled records "
                  f"into {args.shards} shards from {journal.directory}")
        on_failure.pop_all()
    return supervisor


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.checkpoint:
        parser.error("--checkpoint is required")
    if args.shards <= 0:
        parser.error("--shards must be positive")
    if args.replicas <= 0:
        parser.error("--replicas must be positive")
    print(f"booting {args.shards} shard workers ...")
    supervisor = build_cluster(args, args.checkpoint)
    server = None
    try:
        supervisor.start_watchdog()
        server = serve_http(supervisor.router, host=args.host,
                            port=args.port, verbose=args.verbose,
                            role="router")
        print(f"cluster of {args.shards} shards serving "
              f"{[name for name, _ in args.checkpoint]} on "
              f"http://{args.host}:{server.server_port} "
              f"(POST /v1/query, /v1/batch, /v1/admin/rollout; "
              f"GET /v1/health, /v1/models)")
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        if server is not None:
            server.server_close()
        supervisor.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
