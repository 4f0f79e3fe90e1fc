"""Load generation: open loop over the wire, closed loop in-process too.

One benchmark process, at most :data:`perfbench.oplog.CONNECTIONS`
caller threads.  Every request is stamped with when it was due, sent
and done:

* open loop — an item is due at its scheduled time; latency runs from
  due to done, so a stall also charges every request queued behind it,
  and ``send - due`` is how late the generator ran;
* closed loop — each caller sends its next item once the previous
  reply arrived, until the measured window ends; due equals send.

Request bodies are encoded before the window opens and replies are
decoded after it closes, so the generator's own JSON work never sits
inside a measured latency.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .procs import Connection
from .trace import Tracer

READ_TYPES = frozenset({"score", "explain", "what_if", "recommend",
                        "recourse"})


@dataclass
class Outcome:
    """One request's timing and raw result."""

    item: int
    request: int
    due: float
    send: float
    done: float
    #: Raw reply bytes (wire) or reply objects (in-process); ``None``
    #: when the transport failed.
    result: object = None
    error: Optional[str] = None

    @property
    def latency(self) -> float:
        return self.done - self.due


@dataclass
class Phase:
    """Everything one measured window produced."""

    start: float = 0.0
    end: float = 0.0
    outcomes: List[Outcome] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _span(tracer: Optional[Tracer], request_id: str):
    return tracer.span("request", request_id=request_id) if tracer \
        else contextlib.nullcontext()


def request_body(request: dict) -> bytes:
    if request["route"] == "query":
        payload = request["queries"][0]
    else:
        payload = {"type": "batch", "v": 2, "queries": request["queries"]}
    return json.dumps(payload).encode("utf-8")


def route_path(request: dict) -> str:
    return "/v1/query" if request["route"] == "query" else "/v1/batch"


def _wire_caller(url: str, items, start: float, seconds: float,
                 open_loop: bool, tracer: Optional[Tracer],
                 sink: List[Outcome]) -> None:
    connection = Connection(url)
    try:
        for index, item in items:
            if open_loop:
                due = start + item["due"]
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            else:
                due = time.perf_counter()
                if due - start >= seconds:
                    break
            for number, (path, body) in enumerate(item["wire"]):
                send = time.perf_counter()
                outcome = Outcome(index, number, due, send, send)
                try:
                    with _span(tracer, f"{index}.{number}"):
                        _, outcome.result = connection.exchange("POST", path,
                                                                body)
                except (OSError, http.client.HTTPException) as error:
                    outcome.error = f"{type(error).__name__}: {error}"
                    connection.close()
                    connection = Connection(url)
                outcome.done = time.perf_counter()
                sink.append(outcome)
                # The next request of an item (the answer after a
                # score) becomes due once this reply is in.
                due = outcome.done
    finally:
        connection.close()


def drive_wire(url: str, items: List[dict], seconds: float,
               open_loop: bool, connections: int,
               tracer: Optional[Tracer] = None) -> Phase:
    """Send ``items`` over ``connections`` keep-alive connections."""
    per_conn: Dict[int, list] = {c: [] for c in range(connections)}
    for index, item in enumerate(items):
        prepared = dict(item, wire=[(route_path(request),
                                     request_body(request))
                                    for request in item["requests"]])
        per_conn[item["conn"] % connections].append((index, prepared))
    sinks = [[] for _ in range(connections)]
    phase = Phase()
    phase.start = time.perf_counter()
    threads = [threading.Thread(target=_wire_caller,
                                args=(url, per_conn[c], phase.start,
                                      seconds, open_loop, tracer,
                                      sinks[c]),
                                name=f"perfbench-conn{c}")
               for c in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.outcomes = sorted((o for sink in sinks for o in sink),
                            key=lambda o: (o.item, o.request))
    phase.end = max((o.done for o in phase.outcomes), default=phase.start)
    return phase


def drive_inprocess(execute: Callable[[list], list], batches: List[list],
                    seconds: float,
                    tracer: Optional[Tracer] = None) -> Phase:
    """Closed loop from one caller: ``execute(queries)`` per envelope."""
    phase = Phase()
    phase.start = time.perf_counter()
    for index, queries in enumerate(batches):
        send = time.perf_counter()
        if send - phase.start >= seconds:
            break
        with _span(tracer, str(index)):
            replies = execute(queries)
        done = time.perf_counter()
        phase.outcomes.append(Outcome(index, 0, send, send, done,
                                      result=replies))
    phase.end = max((o.done for o in phase.outcomes), default=phase.start)
    return phase
