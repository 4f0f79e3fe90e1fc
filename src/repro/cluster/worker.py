"""Shard worker entrypoint: one ``Service`` behind the wire gateway.

A worker is deliberately boring — it *is* the PR 4 serving stack
(:class:`repro.serve.ModelRegistry` + :class:`repro.serve.Service` +
the HTTP/JSON gateway) booted as its own OS process, one per shard.
All cluster behavior lives around it: the router decides which worker
owns which student, the supervisor decides when a worker lives or
dies, and the journal decides what a reborn worker must replay — a
worker itself never touches the journal's disk state; it just answers
the replayed record envelopes like any other client traffic.
Because a worker speaks the exact single-process protocol (including
``POST /v1/admin/rollout`` for the warm blue/green swap), the
router-vs-single-``Service`` bit-identity contract reduces to "the
router splits and merges correctly".

Usage (what the supervisor spawns)::

    python -m repro.cluster.worker --checkpoint rckt.npz --port 9101
    python -m repro.cluster.worker --checkpoint prod=a.npz \\
        --checkpoint canary=b.npz --port 9102 --shard-id 1 --window 256
"""

from __future__ import annotations

import sys
from typing import List, Optional

from repro import obs
from repro.serve.__main__ import build_parser as build_serve_parser
from repro.serve.__main__ import _engine_kwargs
from repro.serve.http_gateway import serve_http
from repro.serve.registry import ModelRegistry
from repro.serve.service import Service


def build_parser():
    """The serve CLI plus cluster-only cosmetics (``--shard-id``)."""
    parser = build_serve_parser()
    parser.prog = "python -m repro.cluster.worker"
    parser.description = ("One cluster shard: the HTTP/JSON serving "
                          "gateway as a supervised worker process")
    parser.add_argument("--shard-id", type=int, default=None,
                        help="shard index this worker serves (cosmetic: "
                             "placement lives in the router's ring; this "
                             "labels logs and process listings)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.selfcheck:
        parser.error("--selfcheck belongs to python -m repro.serve; "
                     "the cluster smoke test is python -m repro.cluster "
                     "--selfcheck")
    if not args.checkpoint:
        parser.error("--checkpoint is required")
    registry = ModelRegistry()
    for name, path in args.checkpoint:
        engine = registry.load(name, path, **_engine_kwargs(args))
        print(f"[worker{'' if args.shard_id is None else args.shard_id}] "
              f"loaded model '{name}' from {path} "
              f"({engine.num_questions} questions, "
              f"{engine.num_concepts} concepts)", flush=True)
    # Spans this process records are labelled as worker-side, and any
    # request ID it should ever mint (direct traffic bypassing the
    # router) is distinguishable from router/gateway-minted ones.
    shard_tag = "" if args.shard_id is None else str(args.shard_id)
    obs.set_id_prefix(f"w{shard_tag or '0'}")
    service = Service(registry=registry)
    server = serve_http(service, host=args.host, port=args.port,
                        verbose=args.verbose, role="worker")
    print(f"[worker{'' if args.shard_id is None else args.shard_id}] "
          f"serving {registry.names()} on "
          f"http://{args.host}:{server.server_port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
