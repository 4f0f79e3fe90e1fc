"""HTTP/JSON face: the one wire transport of every serving process.

Pure stdlib (``http.server``) — no framework dependency — with a
thread-per-connection server whose handlers all call into one shared
*backend*: a :class:`~repro.serve.Service` (the standalone gateway and
every cluster shard worker) or a
:class:`~repro.cluster.ScatterGatherRouter` (the cluster's public
face).  A backend answers ``execute``, ``execute_batch``, ``health``,
``models`` and ``rollout``; its own locks provide the concurrency
discipline, the handler only translates.  Because every process speaks
through this one handler, negotiation, envelope wrapping, request-ID
minting, spans and error mapping are byte-for-byte the same on every
face.

Routes (all JSON, protocol v2 with v1 still accepted — see
``docs/API.md`` for the wire reference).  The handler negotiates per
request: replies are stamped with the version the request declared
(:func:`~repro.serve.protocol.negotiated_version`), so a v1 caller gets
v1-stamped replies and never sees a v2-only construct it cannot parse.

==========================  =================================================
``POST /v1/query``          one typed query -> its reply, HTTP status mapped
                            from the error taxonomy (200 on success)
``POST /v1/batch``          a batch envelope -> ``batch_reply`` with one
                            reply per query, always 200 (per-query errors
                            ride inside)
``GET  /v1/health``         the backend's ``health()`` plus uptime and
                            served-request count
``GET  /v1/models``         per-model metadata (encoder, vocab, window, ...)
``GET  /v1/metrics``        this process's metrics (JSON or Prometheus)
``POST /v1/admin/rollout``  warm blue/green checkpoint rollout
                            (``backend.rollout``); admin plane, not a
                            protocol query
==========================  =================================================

:class:`ServiceClient` is the matching typed client (stdlib
``http.client`` over a pool of persistent keep-alive connections), used
by ``examples/serve_http.py``, the gateway tests, and the cluster
router's fan-out.  It is a backend too — ``execute``,
``execute_batch``, ``health``, ``models`` and ``rollout`` with the
facade's signatures — and decodes every response back into the same
typed replies/errors the in-process facade returns, so code written
against the facade ports to the wire by swapping the object.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .. import obs
from ..obs import names as metric_names
from .protocol import (DEFAULT_MODEL, DEFAULT_WARM_TOP, PROTOCOL_VERSION,
                       BatchEnvelope, BatchReply, InternalError,
                       MalformedQuery, NotFound, is_error,
                       negotiated_version, query_from_wire,
                       reply_from_wire, to_wire)

#: Cap on request bodies: a serving query is bytes, not megabytes; the
#: bound keeps a confused client from buffering unbounded JSON.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Longest wait of :meth:`ServiceClient.health` (a busy worker's
#: health waits for its engine lock, so shorter would flag busy workers).
HEALTH_TIMEOUT = 5.0

#: Idle kept-alive sockets a :class:`ServiceClient` pools.
MAX_IDLE_CONNECTIONS = 4

#: Routes that may appear as the ``endpoint`` label on HTTP metrics;
#: anything else is folded into ``other`` so scans cannot explode the
#: label cardinality.
_KNOWN_ENDPOINTS = frozenset({
    "/v1/query", "/v1/batch", "/v1/health", "/v1/models",
    "/v1/metrics", "/v1/admin/rollout",
})


class _GatewayHandler(BaseHTTPRequestHandler):
    """One request per call; the backend lives on the server object."""

    server_version = "rckt-serve/1"
    protocol_version = "HTTP/1.1"
    # Keep-alive + small JSON bodies is exactly the traffic pattern
    # where Nagle's algorithm and delayed ACKs conspire into ~40ms
    # stalls per exchange; serving queries are latency-bound, so flush
    # every segment immediately.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: dict) -> None:
        self._last_status = status
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if getattr(self, "_request_id", None) is not None:
            self.send_header("X-Request-Id", self._request_id)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, body: str) -> None:
        self._last_status = status
        raw = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; version=0.0.4")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def _send_reply(self, reply, version: int = PROTOCOL_VERSION) -> None:
        status = reply.http_status if is_error(reply) else 200
        self._send_json(status, to_wire(reply, version=version))

    def _read_body(self):
        """Parsed JSON body, or a MalformedQuery error value.

        Error paths that bail before consuming the declared body close
        the connection (``close_connection``): leftover body bytes on a
        kept-alive socket would be parsed as the next request line,
        desyncing every subsequent exchange.
        """
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            self.close_connection = True
            return MalformedQuery("missing or invalid Content-Length")
        if length <= 0:
            self.close_connection = True
            return MalformedQuery("empty request body")
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            return MalformedQuery(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except ValueError as error:
            # JSONDecodeError, UnicodeDecodeError (invalid UTF-8) and the
            # plain ValueError of an integer over Python's 4300-digit
            # conversion limit all derive from ValueError.
            return MalformedQuery(f"request body is not valid JSON "
                                  f"({error})")

    # ------------------------------------------------------------------
    # Per-endpoint metrics
    # ------------------------------------------------------------------
    def _observe_http(self, path: str, started: float) -> None:
        registry = self.server.obs_registry
        endpoint = path if path in _KNOWN_ENDPOINTS else "other"
        registry.counter(metric_names.HTTP_REQUESTS_TOTAL,
                         endpoint=endpoint).inc()
        if getattr(self, "_last_status", 200) >= 400:
            registry.counter(metric_names.HTTP_ERRORS_TOTAL,
                             endpoint=endpoint).inc()
        registry.histogram(metric_names.HTTP_REQUEST_SECONDS,
                           endpoint=endpoint).observe(
            obs.clock() - started)

    def _serve_metrics(self, query: str) -> None:
        """``GET /v1/metrics``: JSON snapshot, or Prometheus text when
        the query string asks for ``format=prometheus``."""
        registry = self.server.obs_registry
        if "format=prometheus" in query:
            self._send_text(200, registry.render_prometheus())
            return
        snapshot = registry.snapshot()
        snapshot["role"] = self.server.role
        snapshot["spans"] = obs.recent_spans()
        self._send_json(200, snapshot)

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        started = obs.clock()
        self._request_id = None
        path, _, query = self.path.partition("?")
        self._route_get(path, query)
        self._observe_http(path, started)

    def _route_get(self, path: str, query: str) -> None:
        backend = self.server.backend
        if path == "/v1/health":
            # Uptime and request count are facts about this server, not
            # about what it serves.
            payload = backend.health()
            payload["uptime_s"] = obs.clock() - self.server.started
            payload["served_requests"] = \
                self.server.obs_registry.counter_total(
                    metric_names.HTTP_REQUESTS_TOTAL)
            self._send_json(200, payload)
        elif path == "/v1/models":
            # A router with no reachable shard answers an error value.
            models = backend.models()
            if is_error(models):
                self._send_reply(models)
            else:
                self._send_json(200, models)
        elif path == "/v1/metrics":
            self._serve_metrics(query)
        else:
            self._send_reply(NotFound(f"no such route: GET {self.path}"))

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        started = obs.clock()
        self._request_id = None
        path, _, _query = self.path.partition("?")
        self._route_post(path)
        self._observe_http(path, started)

    def _route_post(self, path: str) -> None:
        backend = self.server.backend
        payload = self._read_body()
        if is_error(payload):
            self._send_reply(payload)
            return
        # Negotiate once per request: every reply on this exchange —
        # success, taxonomy error, even the InternalError catch-all —
        # is stamped with the version the caller declared.
        version = negotiated_version(payload)
        try:
            if path == "/v1/query":
                query = query_from_wire(payload)
                self._send_reply(backend.execute(query), version=version)
            elif path == "/v1/batch":
                envelope = query_from_wire(payload)
                if is_error(envelope):
                    self._send_reply(envelope, version=version)
                    return
                if not isinstance(envelope, BatchEnvelope):
                    envelope = BatchEnvelope((envelope,))
                # Trace admission: honor a caller-supplied request ID
                # (the router→worker hop), mint one otherwise.  The ID
                # rides back on ``X-Request-Id`` and shows up in this
                # process's span log (docs/OBSERVABILITY.md); a router
                # propagates it on every worker sub-envelope.
                if envelope.request_id is None:
                    envelope = dataclasses.replace(
                        envelope, request_id=obs.new_request_id())
                self._request_id = envelope.request_id
                span_name = f"{self.server.role}.batch"
                with obs.Span(span_name, envelope.request_id):
                    replies = backend.execute_batch(envelope)
                self._send_json(200, to_wire(BatchReply(tuple(replies)),
                                             version=version))
            elif path == "/v1/admin/rollout":
                self._admin_rollout(backend, payload)
            else:
                self._send_reply(NotFound(
                    f"no such route: POST {self.path}"), version=version)
        except Exception as error:  # noqa: BLE001 - transport boundary
            # The backend returns errors as values; anything that still
            # escapes is a server bug, reported in-protocol.
            self._send_reply(InternalError(
                f"{self.server.role} failure: {type(error).__name__}: "
                f"{error}"), version=version)

    @staticmethod
    def _rollout_args(payload):
        """A ``/v1/admin/rollout`` body's ``backend.rollout`` keywords,
        or the ``MalformedQuery`` it earns.

        Body: ``{"checkpoint": path, "model": name?, "warm_top": n?}``.
        Checked before the backend sees it, so a router rejects a bad
        body itself and forwards nothing to its shards.
        """
        if not isinstance(payload, dict) or \
                not isinstance(payload.get("checkpoint"), str):
            return MalformedQuery(
                "rollout needs a JSON object with a 'checkpoint' path")
        model = payload.get("model", DEFAULT_MODEL)
        if not isinstance(model, str):
            return MalformedQuery(f"model must be a string, got {model!r}")
        warm_top = payload.get("warm_top", DEFAULT_WARM_TOP)
        if not isinstance(warm_top, int) or isinstance(warm_top, bool):
            return MalformedQuery(
                f"warm_top must be an integer, got {warm_top!r}")
        return {"checkpoint": payload["checkpoint"], "model": model,
                "warm_top": warm_top}

    def _admin_rollout(self, backend, payload) -> None:
        """Warm blue/green rollout (``backend.rollout``) over the wire.

        A ``Service`` returns a summary (200) or an error value at its
        own status (``model_not_loaded``, ``malformed_query`` for a bad
        checkpoint, ``rollout_refused`` from a gated service); a router
        returns one summary or error value per shard it tried (200 if
        all succeeded, else 502).
        """
        args = self._rollout_args(payload)
        if is_error(args):
            self._send_reply(args)
            return
        result = backend.rollout(**args)
        if isinstance(result, list):
            ok = not any(is_error(shard) for shard in result)
            self._send_json(200 if ok else 502, {
                "status": "ok" if ok else "failed",
                "shards": [to_wire(shard) if is_error(shard) else shard
                           for shard in result]})
        elif is_error(result):
            self._send_reply(result)
        else:
            self._send_json(200, {"status": "ok", **result})


class ServiceHTTPServer(ThreadingHTTPServer):
    """Thread-per-connection HTTP server bound to one backend.

    ``backend`` is a :class:`~repro.serve.Service` or a
    :class:`~repro.cluster.ScatterGatherRouter`.  ``role`` names this
    process in spans, transport errors and ``/v1/metrics`` output:
    ``gateway`` for a standalone server, ``worker`` for a cluster shard,
    ``router`` for the cluster's public face.  The obs registry is
    captured at construction, so a test swapping the process registry
    gets an isolated server.  :meth:`server_close` also ends every
    accepted connection, so a stopped face answers no kept-alive
    client either.
    """

    daemon_threads = True

    def __init__(self, address, backend, verbose: bool = False,
                 role: str = "gateway"):
        self._lock = threading.Lock()
        self._connections = set()
        super().__init__(address, _GatewayHandler)
        self.backend = backend
        self.verbose = verbose
        self.role = role
        self.obs_registry = obs.get_registry()
        self.started = obs.clock()

    def process_request(self, request, client_address) -> None:
        with self._lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        """Close the listener, then shut down every open connection:
        each handler thread's next read ends, and it exits."""
        super().server_close()
        with self._lock:
            # Under the lock: a handler leaves the set before it closes
            # its socket, so no descriptor here is closed (and reused
            # by the OS) before its shutdown.
            for connection in self._connections:
                try:
                    connection.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass   # the peer already closed it


def serve_http(backend, host: str = "127.0.0.1", port: int = 0,
               verbose: bool = False,
               role: str = "gateway") -> ServiceHTTPServer:
    """Bind an HTTP face over ``backend`` (``port=0`` picks an
    ephemeral port).

    Returns the server without entering its loop — call
    ``serve_forever()`` (the CLIs do), or drive it from a thread:

    >>> server = serve_http(service)                    # doctest: +SKIP
    >>> threading.Thread(target=server.serve_forever,
    ...                  daemon=True).start()           # doctest: +SKIP
    """
    return ServiceHTTPServer((host, port), backend, verbose=verbose,
                             role=role)


def start_http_thread(backend, host: str = "127.0.0.1", port: int = 0,
                      role: str = "gateway"):
    """An HTTP face on a daemon thread; returns ``(server, thread)``.

    The in-process convenience the examples and tests use: the server
    is already accepting connections when this returns (the socket
    binds in the constructor), and ``server.shutdown()`` stops the loop.
    """
    server = serve_http(backend, host=host, port=port, role=role)
    thread = threading.Thread(target=server.serve_forever,
                              name=f"rckt-http-{role}", daemon=True)
    thread.start()
    return server, thread


class ServiceClient:
    """Typed keep-alive client for the gateway (stdlib ``http.client``).

    Every call returns the same typed replies and error values the
    in-process facade produces — errors are returned, not raised, unless
    the *transport itself* fails (unreachable host, non-JSON response),
    which raises ``OSError`` subclasses / ``ValueError``.

    Connections are **persistent**: the gateway speaks HTTP/1.1 with
    ``Content-Length`` framing, so the client keeps a small pool of
    kept-alive sockets and reuses them across requests — this removes
    the per-request TCP handshake that dominated single-query wire
    latency (the PR 4 open item), and it is what the cluster router
    fans out over.  The pool is thread-safe (each in-flight request
    owns one checked-out connection); a request that fails on a
    *reused* socket — the server may close an idle connection at any
    time, or restart — drops every idle socket and is retried once on a
    fresh one, while a failure on a fresh socket propagates (the server
    is actually unreachable).

    ``timeout`` bounds every exchange but :meth:`health`'s
    (:data:`HEALTH_TIMEOUT`).
    """

    def __init__(self, base_url: str, timeout: float = 30.0,
                 protocol_version: int = PROTOCOL_VERSION):
        import urllib.parse
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        # Stamped on every outgoing envelope; the server echoes it on
        # replies (version negotiation).  Pinning 1 makes the client
        # speak to pre-recourse servers — and makes this client reject
        # v2-only queries locally instead of on the wire.
        self.protocol_version = protocol_version
        parts = urllib.parse.urlsplit(self.base_url)
        if parts.scheme != "http":
            raise ValueError(f"ServiceClient speaks plain http, got "
                             f"'{self.base_url}'")
        self._host = parts.hostname
        self._port = parts.port or 80
        self._prefix = parts.path.rstrip("/")
        self._idle: list = []
        self._lock = threading.Lock()
        #: Sockets opened over this client's lifetime (reuse telemetry:
        #: N requests over one healthy server should leave this at 1).
        self.connections_opened = 0

    # ------------------------------------------------------------------
    # Connection pool
    # ------------------------------------------------------------------
    def _checkout(self, timeout: float):
        """An idle kept-alive connection, or a fresh one.

        Returns ``(connection, reused)`` — ``reused`` drives the
        retry-once policy.
        """
        with self._lock:
            if self._idle:
                return self._idle.pop(), True
        return self._connect(timeout), False

    def _connect(self, timeout: float):
        connection = http.client.HTTPConnection(
            self._host, self._port, timeout=timeout)
        connection.connect()
        # Without TCP_NODELAY, Nagle + delayed ACKs stall every
        # request-after-response on a reused socket by ~40ms — the
        # keep-alive pool would be slower than fresh connections.
        connection.sock.setsockopt(socket.IPPROTO_TCP,
                                   socket.TCP_NODELAY, 1)
        self.connections_opened += 1
        return connection

    def _checkin(self, connection) -> None:
        with self._lock:
            if len(self._idle) < MAX_IDLE_CONNECTIONS:
                self._idle.append(connection)
                return
        connection.close()

    def close(self) -> None:
        """Close every idle pooled connection (idempotent)."""
        with self._lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def _exchange(self, method: str, route: str, body: bytes = None,
                  decode_json: bool = True, timeout: float = None):
        headers = {"Content-Type": "application/json"} if body else {}
        timeout = self.timeout if timeout is None else timeout
        connection, reused = self._checkout(timeout)
        while True:
            try:
                # Per exchange: a pooled socket must not carry a
                # probe's short timeout into the next query.
                connection.sock.settimeout(timeout)
                connection.request(method, f"{self._prefix}{route}",
                                   body=body, headers=headers)
                response = connection.getresponse()
                raw = response.read()
            except TimeoutError:
                # A timeout proves nothing about whether the server
                # processed the request — retrying could apply a
                # non-idempotent RecordEvent twice.  Never retry it.
                connection.close()
                raise
            except (http.client.HTTPException, OSError):
                connection.close()
                if not reused:
                    # Fresh-socket failures propagate: the server is
                    # actually unreachable.
                    raise
                # Stale keep-alive: the server closed the idle socket
                # between requests (the reset/EPIPE arrives on our send
                # or on the first response byte), so the request was
                # never processed.  A server that restarted closed
                # every other idle socket too, so drop them and retry
                # once on a fresh socket.
                self.close()
                connection, reused = self._connect(timeout), False
                continue
            if response.will_close:
                connection.close()
            else:
                self._checkin(connection)
            return json.loads(raw) if decode_json else raw

    # ------------------------------------------------------------------
    # Raw wire
    # ------------------------------------------------------------------
    def _post(self, route: str, payload: dict) -> dict:
        # Taxonomy errors arrive as 4xx/5xx with a protocol body: the
        # body is decoded regardless of status, like the facade
        # returning error values.
        return self._exchange("POST", route,
                              json.dumps(payload).encode("utf-8"))

    def _get(self, route: str, timeout: float = None) -> dict:
        return self._exchange("GET", route, timeout=timeout)

    # ------------------------------------------------------------------
    # Typed surface
    # ------------------------------------------------------------------
    def execute(self, query):
        """Execute one typed query object over the wire."""
        payload = to_wire(query, version=self.protocol_version)
        return reply_from_wire(self._post("/v1/query", payload))

    def execute_batch(self, queries):
        """Execute many queries as one envelope; replies in order."""
        envelope = queries if isinstance(queries, BatchEnvelope) \
            else BatchEnvelope(tuple(queries))
        payload = to_wire(envelope, version=self.protocol_version)
        reply = reply_from_wire(self._post("/v1/batch", payload))
        return list(reply.replies) if isinstance(reply, BatchReply) \
            else reply

    def health(self) -> dict:
        return self._get("/v1/health",
                         timeout=min(self.timeout, HEALTH_TIMEOUT))

    def models(self):
        return _error_or_body(self._get("/v1/models"))

    def metrics(self) -> dict:
        """The server's JSON metrics snapshot (``GET /v1/metrics``)."""
        return self._get("/v1/metrics")

    def metrics_text(self) -> str:
        """Prometheus text exposition of the server's metrics."""
        raw = self._exchange("GET", "/v1/metrics?format=prometheus",
                             decode_json=False)
        return raw.decode("utf-8")

    def rollout(self, checkpoint, model: str = DEFAULT_MODEL,
                warm_top: int = DEFAULT_WARM_TOP):
        """Trigger a warm blue/green rollout on the server.

        Returns what the backend behind the face returns: a
        ``Service``'s summary dict or error value, or a router's list
        of one summary or error value per shard it tried.
        """
        payload = {"checkpoint": str(checkpoint), "model": model,
                   "warm_top": warm_top}
        reply = _error_or_body(self._post("/v1/admin/rollout", payload))
        if is_error(reply):
            return reply
        if "shards" in reply:
            return [_error_or_body(shard) for shard in reply["shards"]]
        # The transport's status is not part of the backend's summary.
        return {key: value for key, value in reply.items()
                if key != "status"}


def _error_or_body(body):
    """A wire error body as its typed value; any other body as is."""
    if isinstance(body, dict) and body.get("type") == "error":
        return reply_from_wire(body)
    return body
