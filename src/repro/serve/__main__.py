"""CLI: serve RCKT checkpoints over the HTTP/JSON gateway.

Usage::

    python -m repro.serve --checkpoint rckt.npz
    python -m repro.serve --checkpoint prod=rckt.npz --checkpoint \\
        canary=rckt_new.npz --port 8080 --window 256
    python -m repro.serve --checkpoint rckt.npz --port 9101 --shard-id 1

``--checkpoint`` takes ``PATH`` (registered as the default model) or
``NAME=PATH`` and may repeat — every name becomes addressable through
the queries' ``model`` field.  ``--shard-id N`` boots the process as
shard ``N``'s cluster worker, which is what the cluster supervisor
spawns: the same gateway in the ``worker`` role, minting ``wN``
request IDs and prefixing its log lines with ``[workerN]``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .. import obs
from .http_gateway import serve_http
from .protocol import DEFAULT_MODEL
from .registry import ModelRegistry
from .service import Service


def parse_checkpoint(spec: str):
    """``--checkpoint`` values: ``PATH`` or ``NAME=PATH`` ->
    ``(name, path)``."""
    name, sep, path = spec.partition("=")
    if not sep:
        return DEFAULT_MODEL, spec
    if not name or not path:
        raise argparse.ArgumentTypeError(
            f"--checkpoint expects PATH or NAME=PATH, got '{spec}'")
    return name, path


def parse_cache_bytes(spec: str) -> int:
    """``--stream-cache-bytes`` values: a byte count >= 0."""
    if not spec.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a byte count >= 0, got '{spec}'")
    return int(spec)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="HTTP/JSON gateway over the typed RCKT serving API")
    parser.add_argument("--checkpoint", action="append",
                        type=parse_checkpoint, metavar="[NAME=]PATH",
                        help="engine checkpoint to register (repeatable); "
                             "bare PATH registers as "
                             f"'{DEFAULT_MODEL}'")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080,
                        help="0 picks an ephemeral port")
    parser.add_argument("--window", type=int, default=None,
                        help="sliding-window context size")
    parser.add_argument("--window-hop", type=int, default=None)
    parser.add_argument("--stream-cache-bytes", type=parse_cache_bytes,
                        default=None,
                        help="LRU budget for forward-stream caches; 0 "
                             "keeps nothing (default: engine default)")
    parser.add_argument("--verbose", action="store_true",
                        help="log every request")
    parser.add_argument("--shard-id", type=int, default=None,
                        help="serve as this cluster shard's worker "
                             "(role 'worker'; placement lives in the "
                             "router's ring, this labels request IDs, "
                             "spans and logs)")
    return parser


def _engine_kwargs(args) -> dict:
    kwargs = {"window": args.window, "window_hop": args.window_hop}
    if args.stream_cache_bytes is not None:
        kwargs["stream_cache_bytes"] = args.stream_cache_bytes
    return kwargs


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.checkpoint:
        parser.error("--checkpoint is required")
    worker = args.shard_id is not None
    tag = f"[worker{args.shard_id}] " if worker else ""
    registry = ModelRegistry()
    for name, path in args.checkpoint:
        engine = registry.load(name, path, **_engine_kwargs(args))
        print(f"{tag}loaded model '{name}' from {path} "
              f"({engine.num_questions} questions, "
              f"{engine.num_concepts} concepts)", flush=True)
    if worker:
        # Request IDs this worker mints (direct traffic bypassing the
        # router) are distinguishable from router/gateway-minted ones.
        obs.set_id_prefix(f"w{args.shard_id}")
    service = Service(registry=registry)
    server = serve_http(service, host=args.host, port=args.port,
                        verbose=args.verbose,
                        role="worker" if worker else "gateway")
    print(f"{tag}serving {registry.names()} on "
          f"http://{args.host}:{server.server_port} "
          f"(POST /v1/query, /v1/batch; GET /v1/health, /v1/models)",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print(f"{tag}shutting down")
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
