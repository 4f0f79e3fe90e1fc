"""Scatter-gather router: one wire endpoint over N shard workers.

The router is the cluster's single public surface.  It speaks exactly
the protocol the single-process gateway speaks (``POST /v1/query``,
``POST /v1/batch``, ``GET /v1/health`` / ``/v1/models``, ``POST
/v1/admin/rollout``) and answers **bit-identically** to one in-process
:class:`repro.serve.Service` holding all the students — sharding is an
implementation detail the wire cannot observe.  Per query it:

1. validates/decodes the envelope exactly like the gateway
   (:func:`repro.serve.protocol.query_from_wire` — garbage becomes
   structured ``malformed_query`` values, never stack traces) and
   screens every slot with the facade's own admission check
   (:func:`repro.serve.protocol.admission_error`): field-rule
   violations, nested envelopes and non-query objects are answered by
   the router itself, with the facade's bytes, and never reach a shard;
2. splits a mixed-type :class:`~repro.serve.protocol.BatchEnvelope` by
   the consistent-hash ring (:mod:`repro.cluster.ring`) over each
   query's ``student_id``, preserving envelope order within every
   shard — records still apply before reads per student, because a
   student's records and reads always land on the same worker;
3. fans the per-shard sub-envelopes out concurrently over persistent
   keep-alive connections (:class:`repro.serve.ServiceClient`);
4. merges the replies back into envelope order, journaling every
   acknowledged record (:mod:`repro.cluster.journal` — disk-backed
   when the cluster runs with ``--journal-dir``, with one fsync per
   sub-envelope under the default ``batch`` policy) so the supervisor
   can rebuild a crashed worker, and a future cold boot can rebuild
   the whole cluster;
5. surfaces per-shard failures as
   :class:`~repro.serve.protocol.ShardUnavailable` **values** in the
   affected slots — a worker crash mid-fan-out degrades exactly the
   queries that needed that worker, and nothing ever raises across the
   scatter-gather boundary.

There is no fallback shard: every admitted query carries a valid
``student_id``, and the ring places it.
"""

from __future__ import annotations

import dataclasses
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import ThreadingHTTPServer
from typing import Dict, List, Optional

from repro import obs
from repro.obs import names as metric_names
from repro.serve.http_gateway import ServiceClient, _GatewayHandler
from repro.serve.protocol import (PROTOCOL_VERSION, BatchEnvelope,
                                  BatchReply, InternalError, NotFound,
                                  RecordEvent, ShardUnavailable,
                                  admission_error, capabilities, is_error,
                                  negotiated_version, query_from_wire,
                                  to_wire)

from .journal import RecordJournal
from .ring import DEFAULT_REPLICAS, HashRing


class ScatterGatherRouter:
    """Route typed queries across shard workers, merge typed replies.

    Parameters
    ----------
    shard_urls:
        One worker base URL per shard, index == shard id.  The list is
        positional and stable across worker restarts (the supervisor
        respawns a worker on its original port), so the ring never
        re-maps students when a worker bounces.
    timeout:
        Per-request socket timeout of the shard clients.
    journal:
        The :class:`RecordJournal` acknowledged records are logged to
        (shared with the supervisor's replay); a private one by default.
    replicas:
        Ring points per shard (placement smoothing).
    """

    def __init__(self, shard_urls: List[str], timeout: float = 30.0,
                 journal: Optional[RecordJournal] = None,
                 replicas: int = DEFAULT_REPLICAS):
        if not shard_urls:
            raise ValueError("at least one shard url is required")
        self.shard_urls = list(shard_urls)
        self.ring = HashRing(len(self.shard_urls), replicas=replicas)
        self.clients = [ServiceClient(url, timeout=timeout)
                        for url in self.shard_urls]
        # Liveness probes get their own short-timeout clients: a hung
        # worker must cost the aggregate /v1/health a few seconds, not
        # the full query timeout.
        self._probe_clients = [
            ServiceClient(url, timeout=min(timeout, 3.0))
            for url in self.shard_urls]
        self.journal = journal if journal is not None else RecordJournal()
        self._draining = set()
        self._lock = threading.Lock()
        self._obs = obs.get_registry()
        # Leaf fan-out tasks only (no nested submits), so a bounded
        # shared pool cannot deadlock — concurrent envelopes just queue.
        self._pool = ThreadPoolExecutor(
            max_workers=max(4, 2 * len(self.shard_urls)),
            thread_name_prefix="rckt-router")
        #: Hook for ``/v1/admin/rollout`` — the supervisor installs its
        #: own (which also updates restart checkpoints); standalone
        #: routers fan the rollout out directly.
        self.rollout_hook = None

    # ------------------------------------------------------------------
    # Shard state
    # ------------------------------------------------------------------
    def shard_of(self, query) -> int:
        """The shard owning an admitted query's student."""
        return self.ring.shard_for(query.student_id)

    def drain(self, shard: int) -> None:
        """Stop routing to a shard (planned restart); queries for its
        students answer ``shard_unavailable`` until :meth:`resume`."""
        with self._lock:
            self._draining.add(shard)

    def resume(self, shard: int) -> None:
        with self._lock:
            self._draining.discard(shard)

    def draining(self) -> set:
        with self._lock:
            return set(self._draining)

    def close(self) -> None:
        self._pool.shutdown(wait=True)
        for client in self.clients + self._probe_clients:
            client.close()

    def _unavailable(self, shard: int, reason: str) -> ShardUnavailable:
        self._obs.counter(metric_names.ROUTER_SHARD_UNAVAILABLE_TOTAL,
                          shard=str(shard)).inc()
        return ShardUnavailable(
            f"shard {shard} ({self.shard_urls[shard]}) is unavailable: "
            f"{reason}",
            details={"shard": shard, "url": self.shard_urls[shard]})

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, query):
        """One query (or a whole envelope) -> its typed reply."""
        if isinstance(query, BatchEnvelope):
            return BatchReply(tuple(self.execute_batch(query)))
        return self.execute_batch([query])[0]

    def execute_batch(self, queries) -> List[object]:
        """Scatter a batch by shard, gather replies in input order.

        A :class:`BatchEnvelope` carrying a ``request_id`` has that ID
        propagated on every router→worker sub-envelope, so the worker's
        span log shows the same ID the gateway minted.
        """
        request_id = None
        if isinstance(queries, BatchEnvelope):
            request_id = queries.request_id
            queries = queries.queries
        queries = list(queries)
        replies: List[object] = [None] * len(queries)
        groups: Dict[int, List[int]] = {}
        for index, query in enumerate(queries):
            # The facade's own screen: a rejection never costs a shard
            # round-trip.
            error = admission_error(query)
            if error is not None:
                replies[index] = error
            else:
                groups.setdefault(self.shard_of(query), []).append(index)
        draining = self.draining()
        futures = {}
        for shard, indices in groups.items():
            if shard in draining:
                error = self._unavailable(shard, "draining for restart")
                for index in indices:
                    replies[index] = error
                continue
            sub = [queries[index] for index in indices]
            if len(groups) == 1:
                self._gather(shard, indices, sub, replies, request_id)
            else:
                futures[self._pool.submit(
                    self._gather, shard, indices, sub, replies,
                    request_id)] = shard
        for future in futures:
            future.result()   # _gather never raises; propagate bugs only
        return replies

    def _gather(self, shard: int, indices: List[int], sub: List[object],
                replies: List[object],
                request_id: Optional[str] = None) -> None:
        """One shard's sub-envelope round-trip (fills reply slots)."""
        envelope = BatchEnvelope(tuple(sub), request_id=request_id)
        fanout = self._obs.histogram(metric_names.ROUTER_FANOUT_SECONDS,
                                     shard=str(shard))
        try:
            with obs.Span(f"router.fanout.shard{shard}", request_id,
                          histogram=fanout):
                shard_replies = self.clients[shard].batch(envelope)
        except Exception as error:  # noqa: BLE001 — fan-out boundary
            failure = self._unavailable(
                shard, f"{type(error).__name__}: {error}")
            for index in indices:
                replies[index] = failure
            return
        if is_error(shard_replies):
            # A request-level error for the whole sub-envelope (e.g. a
            # worker that rejected the body) lands in every slot.
            for index in indices:
                replies[index] = shard_replies
            return
        if len(shard_replies) != len(sub):
            failure = InternalError(
                f"shard {shard} answered {len(shard_replies)} replies "
                f"for {len(sub)} queries",
                details={"shard": shard, "url": self.shard_urls[shard]})
            for index in indices:
                replies[index] = failure
            return
        journaled = False
        for index, query, reply in zip(indices, sub, shard_replies):
            replies[index] = reply
            if isinstance(query, RecordEvent) and getattr(reply, "ok",
                                                          False):
                # Acknowledged ground truth: replayable after a crash.
                # The reply's history_length is the worker-side apply
                # order — the journal re-sorts by it so concurrent
                # envelopes cannot invert a student's replay order.
                rejected = self.journal.append(
                    shard, to_wire(query), sequence=reply.history_length)
                if rejected is not None:
                    # The worker applied a record the journal refuses to
                    # persist (it would not replay) — the durability
                    # contract is broken for this slot, so say so
                    # instead of acking silently.
                    replies[index] = InternalError(
                        f"acknowledged record could not be journaled: "
                        f"{rejected.message}",
                        details={"shard": shard})
                else:
                    journaled = True
        if journaled:
            # The batch fsync policy's durability point: one disk flush
            # per sub-envelope, not per record.
            self.journal.sync(shard)

    # ------------------------------------------------------------------
    # Cluster plane
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Aggregate worker healths (the router's ``/v1/health`` body).

        Probes fan out concurrently on short-timeout clients, so the
        aggregate answers in one slowest-probe time — a wedged worker
        cannot stall the endpoint for the full query timeout per shard.
        """
        draining = self.draining()

        def probe(shard: int) -> dict:
            entry = {"shard": shard, "url": self.shard_urls[shard],
                     "draining": shard in draining}
            try:
                worker = self._probe_clients[shard].health()
                entry["ok"] = worker.get("status") == "ok"
                entry["models"] = worker.get("models", [])
            except Exception as error:  # noqa: BLE001 — probe boundary
                entry["ok"] = False
                entry["error"] = f"{type(error).__name__}: {error}"
            return entry

        shards = list(self._pool.map(probe,
                                     range(len(self.shard_urls))))
        healthy = all(s["ok"] and not s["draining"] for s in shards)
        return {
            "status": "ok" if healthy else "degraded",
            "protocol": PROTOCOL_VERSION,
            "capabilities": capabilities(),
            "shards": shards,
            "ring": self.ring.describe(),
            "journal": self.journal.describe(),
        }

    def models(self):
        """Proxy ``/v1/models`` from the first reachable worker (every
        worker serves the same registry contents by construction)."""
        last_error = None
        for shard, client in enumerate(self.clients):
            try:
                return client.models()
            except Exception as error:  # noqa: BLE001 — probe boundary
                last_error = self._unavailable(
                    shard, f"{type(error).__name__}: {error}")
        return last_error

    def rollout(self, checkpoint, model: str = None,
                warm_top: int = None) -> List[object]:
        """Warm blue/green rollout across every shard, one at a time.

        Sequential on purpose: at any instant at most one worker is
        mid-swap, and each worker's swap is itself atomic with a warm
        standby — the cluster never has a cold-cache moment.  Returns
        one summary dict or taxonomy error value per shard.  When a
        supervisor installed :attr:`rollout_hook`, it runs instead (it
        additionally re-points restart checkpoints at the new weights).
        """
        if self.rollout_hook is not None:
            return self.rollout_hook(checkpoint, model=model,
                                     warm_top=warm_top)
        results = []
        for shard, client in enumerate(self.clients):
            try:
                results.append(client.rollout(checkpoint, model=model,
                                              warm_top=warm_top))
            except Exception as error:  # noqa: BLE001 — fan-out boundary
                results.append(self._unavailable(
                    shard, f"{type(error).__name__}: {error}"))
        return results


# ---------------------------------------------------------------------------
# The router's own HTTP face (same plumbing as the worker gateway)
# ---------------------------------------------------------------------------
class _RouterHandler(_GatewayHandler):
    """Gateway handler routing into a ScatterGatherRouter."""

    server_version = "rckt-cluster/1"

    def _route_get(self, path: str, query: str) -> None:
        router = self.server.router
        if path == "/v1/health":
            payload = router.health()
            payload["uptime_s"] = obs.clock() - self.server.started
            payload["served_requests"] = \
                self.server.obs_registry.counter_total(
                    metric_names.HTTP_REQUESTS_TOTAL)
            self._send_json(200, payload)
        elif path == "/v1/models":
            models = router.models()
            if is_error(models):
                self._send_reply(models)
            else:
                self._send_json(200, models)
        elif path == "/v1/metrics":
            self._serve_metrics(query)
        else:
            self._send_reply(NotFound(f"no such route: GET {self.path}"))

    def _route_post(self, path: str) -> None:
        router = self.server.router
        payload = self._read_body()
        if is_error(payload):
            self._send_reply(payload)
            return
        # Same per-request negotiation as the worker gateway, so an
        # unsupported-version or unknown-type rejection serializes to
        # byte-identical JSON from either surface.
        version = negotiated_version(payload)
        try:
            if path == "/v1/query":
                self._send_reply(router.execute(query_from_wire(payload)),
                                 version=version)
            elif path == "/v1/batch":
                envelope = query_from_wire(payload)
                if is_error(envelope):
                    self._send_reply(envelope, version=version)
                    return
                if not isinstance(envelope, BatchEnvelope):
                    envelope = BatchEnvelope((envelope,))
                # Same admission tracing as the worker gateway: mint
                # when absent, echo on X-Request-Id, and let
                # execute_batch propagate it on the worker hop.
                if envelope.request_id is None:
                    envelope = dataclasses.replace(
                        envelope, request_id=obs.new_request_id())
                self._request_id = envelope.request_id
                with obs.Span("router.batch", envelope.request_id):
                    replies = router.execute_batch(envelope)
                self._send_json(200, to_wire(BatchReply(tuple(replies)),
                                             version=version))
            elif path == "/v1/admin/rollout":
                self._admin_rollout(router, payload)
            else:
                self._send_reply(NotFound(
                    f"no such route: POST {self.path}"), version=version)
        except Exception as error:  # noqa: BLE001 - transport boundary
            self._send_reply(InternalError(
                f"router failure: {type(error).__name__}: {error}"),
                version=version)

    def _admin_rollout(self, router, payload) -> None:
        error = self._rollout_body_error(payload)
        if error is not None:
            self._send_reply(error)
            return
        results = router.rollout(payload["checkpoint"],
                                 model=payload.get("model"),
                                 warm_top=payload.get("warm_top"))
        entries = [to_wire(r) if is_error(r) else r for r in results]
        all_ok = all(not is_error(r) for r in results)
        self._send_json(200 if all_ok else 502, {
            "status": "ok" if all_ok else "failed",
            "shards": entries,
        })


class RouterHTTPServer(ThreadingHTTPServer):
    """Thread-per-connection HTTP server bound to one router."""

    daemon_threads = True

    def __init__(self, address, router: ScatterGatherRouter,
                 verbose: bool = False):
        super().__init__(address, _RouterHandler)
        self.router = router
        self.verbose = verbose
        self.role = "router"
        self.obs_registry = obs.get_registry()
        self.started = obs.clock()


def serve_router(router: ScatterGatherRouter, host: str = "127.0.0.1",
                 port: int = 0, verbose: bool = False) -> RouterHTTPServer:
    """Bind the router's HTTP face (``port=0`` picks an ephemeral port);
    call ``serve_forever()`` to enter the loop (the CLI does)."""
    return RouterHTTPServer((host, port), router, verbose=verbose)


def start_router_thread(router: ScatterGatherRouter,
                        host: str = "127.0.0.1", port: int = 0):
    """Router HTTP server on a daemon thread; ``(server, thread)``."""
    server = serve_router(router, host=host, port=port)
    thread = threading.Thread(target=server.serve_forever,
                              name="rckt-cluster-router", daemon=True)
    thread.start()
    return server, thread
