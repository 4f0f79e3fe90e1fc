"""Scatter-gather router: one wire endpoint over N shard backends.

The router is the cluster's single public surface.  It is a serving
*backend* like :class:`repro.serve.Service` (``execute``,
``execute_batch``, ``health``, ``models``, ``rollout``), and so is each
shard: a worker's :class:`~repro.serve.ServiceClient` or an in-process
``Service``.  Its HTTP face is the gateway's own handler —
``serve_http(router, role="router")`` — and it speaks exactly the
single-process protocol, answering **bit-identically** to one
in-process ``Service`` holding all the students: sharding is an
implementation detail the wire cannot observe.  Per query it:

1. takes the envelope its HTTP face decoded
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
3. fans the per-shard sub-envelopes out concurrently to the shard
   backends (for worker processes, persistent keep-alive connections);
4. merges the replies back into envelope order, journaling every
   acknowledged record (:mod:`repro.cluster.journal` — disk-backed
   when the cluster runs with ``--journal-dir``, with one fsync per
   sub-envelope under the default ``batch`` policy) so
   :meth:`~repro.cluster.journal.RecordJournal.replay_into` can
   rebuild a crashed shard, and a cold boot the whole cluster;
5. surfaces per-shard failures as
   :class:`~repro.serve.protocol.ShardUnavailable` **values** in the
   affected slots — a worker crash mid-fan-out degrades exactly the
   queries that needed that worker, and nothing ever raises across the
   scatter-gather boundary.

There is no fallback shard: every admitted query carries a valid
``student_id``, and the ring places it.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional

from repro import obs
from repro.obs import names as metric_names
from repro.serve.protocol import (DEFAULT_MODEL, DEFAULT_WARM_TOP,
                                  PROTOCOL_VERSION, BatchEnvelope,
                                  BatchReply, InternalError, RecordEvent,
                                  ShardUnavailable, admission_error,
                                  capabilities, is_error, to_wire)

from .journal import RecordJournal
from .ring import DEFAULT_REPLICAS, HashRing


class ScatterGatherRouter:
    """Route typed queries across shard backends, merge typed replies.

    Parameters
    ----------
    shards:
        One backend per shard, index == shard id, closed by
        :meth:`close`.  The list is positional and stable across worker
        restarts, so the ring never re-maps students.
    journal:
        The :class:`RecordJournal` acknowledged records are logged to
        (shared with whoever replays it); a private one by default.
    replicas:
        Ring points per shard (placement smoothing).
    """

    def __init__(self, shards, journal: Optional[RecordJournal] = None,
                 replicas: int = DEFAULT_REPLICAS):
        if not shards:
            raise ValueError("at least one shard backend is required")
        self.shards = list(shards)
        self.ring = HashRing(len(self.shards), replicas=replicas)
        self.journal = journal if journal is not None else RecordJournal()
        self._draining = set()
        self._lock = threading.Lock()
        # One rollout at a time per router: a second caller waits.
        self._rollout_lock = threading.Lock()
        self._obs = obs.get_registry()
        # Leaf fan-out tasks only (no nested submits), so a bounded
        # shared pool cannot deadlock — concurrent envelopes just queue.
        self._pool = ThreadPoolExecutor(
            max_workers=max(4, 2 * len(self.shards)),
            thread_name_prefix="rckt-router")

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
        for backend in self.shards:
            backend.close()

    def _url(self, shard: int) -> Optional[str]:
        """A shard's worker URL; ``None`` for an in-process shard."""
        return getattr(self.shards[shard], "base_url", None)

    def _unavailable(self, shard: int, reason: str) -> ShardUnavailable:
        return ShardUnavailable(
            f"shard {shard} ({self._url(shard) or 'in-process'}) is "
            f"unavailable: {reason}",
            details={"shard": shard, "url": self._url(shard)})

    def _fail_sub_batch(self, shard: int, indices: List[int],
                        replies: List[object], reason: str) -> None:
        """The only ``ShardUnavailable`` the metric counts."""
        self._obs.counter(metric_names.ROUTER_SHARD_UNAVAILABLE_TOTAL,
                          shard=str(shard)).inc()
        failure = self._unavailable(shard, reason)
        for index in indices:
            replies[index] = failure

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
                self._fail_sub_batch(shard, indices, replies,
                                     "draining for restart")
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
                shard_replies = self.shards[shard].execute_batch(envelope)
        except Exception as error:  # noqa: BLE001 — fan-out boundary
            self._fail_sub_batch(shard, indices, replies,
                                 f"{type(error).__name__}: {error}")
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
                details={"shard": shard, "url": self._url(shard)})
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
        """Aggregate shard healths (the router's ``/v1/health`` body).

        Probes fan out concurrently, so the aggregate answers in one
        slowest-probe time; a worker's client caps its probe at
        :data:`~repro.serve.http_gateway.HEALTH_TIMEOUT`.
        """
        draining = self.draining()

        def probe(shard: int) -> dict:
            entry = {"shard": shard, "url": self._url(shard),
                     "draining": shard in draining}
            try:
                body = self.shards[shard].health()
                entry["ok"] = body.get("status") == "ok"
                entry["models"] = body.get("models", [])
            except Exception as error:  # noqa: BLE001 — probe boundary
                entry["ok"] = False
                entry["error"] = f"{type(error).__name__}: {error}"
            return entry

        shards = list(self._pool.map(probe, range(len(self.shards))))
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
        """Proxy ``/v1/models`` from the first reachable shard (every
        shard serves the same registry contents by construction)."""
        last_error = None
        for shard, backend in enumerate(self.shards):
            try:
                return backend.models()
            except Exception as error:  # noqa: BLE001 — probe boundary
                last_error = self._unavailable(
                    shard, f"{type(error).__name__}: {error}")
        return last_error

    def rollout(self, checkpoint, model: str = DEFAULT_MODEL,
                warm_top: int = DEFAULT_WARM_TOP) -> List[object]:
        """Warm blue/green rollout across the shards, one at a time.

        The cluster's one rollout loop.  Sequential on purpose: at any
        instant at most one shard is mid-swap, and each shard's swap is
        itself atomic with a warm standby.  A second caller waits.
        Stops at the first failing shard (a draining one fails without
        a round-trip); returns one summary or error value per shard
        tried.
        """
        results: List[object] = []
        with self._rollout_lock:
            for shard, backend in enumerate(self.shards):
                if shard in self.draining():
                    result = self._unavailable(shard,
                                               "draining for restart")
                else:
                    try:
                        result = backend.rollout(
                            checkpoint, model=model, warm_top=warm_top)
                    except Exception as error:  # noqa: BLE001 — fan-out
                        result = self._unavailable(
                            shard, f"{type(error).__name__}: {error}")
                results.append(result)
                if is_error(result):
                    break
        return results
