"""In-memory spans around the serving stack's public entry points.

Spans are recorded from the benchmark's own code: :func:`instrument`
temporarily wraps public functions of each layer module (and restores
them on exit), so nothing inside ``src/`` changes.  Each span has a
name, start, end, parent and the request id of the benchmark request it
ran under; spans stay in memory until the run writes them out.

A stage's *self time* is its span durations minus the part covered by
its direct child spans; the stage ledger lists self times with their
share of the end-to-end total, plus the ``unattributed`` remainder.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Dict, List, Optional, Tuple

#: (module path, owner attribute or None, function name, span name,
#: how many work items one call handles).  Owner ``None`` patches a
#: module-level function at that import site.
ENTRY_POINTS = (
    ("repro.serve.service", "Service", "execute_batch", "service",
     lambda args: 1),
    ("repro.serve.engine", "InferenceEngine", "record", "engine.record",
     lambda args: 1),
    # The engine calls build_stream_caches through its own module global.
    ("repro.serve.engine", None, "build_stream_caches",
     "forward_cache.build", lambda args: len(args[1])),
    ("repro.core.multi_target", "MultiTargetContext", "scores_for",
     "multi_target.score", lambda args: len(args[1])),
    ("repro.core.multi_target", "MultiTargetContext", "influences_for",
     "multi_target.influence", lambda args: len(args[1])),
    ("repro.serve.recourse", "RecourseSearch", "run", "recourse",
     lambda args: 1),
)


class Tracer:
    """Thread-aware span recorder (one parent stack per thread)."""

    def __init__(self):
        self.spans: List[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_layer(self) -> Optional[str]:
        """Layer (span-name prefix) of this thread's innermost span."""
        stack = self._stack()
        return self.spans[stack[-1]]["name"].split(".")[0] if stack \
            else None

    @contextlib.contextmanager
    def span(self, name: str, request_id: Optional[str] = None,
             items: int = 1):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request_id is None and parent is not None:
            request_id = self.spans[parent]["request_id"]
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "request_id": request_id,
                  "items": items}
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every :data:`ENTRY_POINTS` function in a span; undo on exit."""
    import importlib
    patched = []
    for module_name, owner_name, attribute, span_name, count \
            in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module,
                                                          owner_name)
        original = getattr(owner, attribute)

        def wrapper(*args, _original=original, _name=span_name,
                    _count=count, **kwargs):
            # A layer calling its own entry point (``scores_for`` is
            # ``influences_for(...).scores``) stays one span of that layer.
            if tracer.current_layer() == _name.split(".")[0]:
                return _original(*args, **kwargs)
            # args[0] is ``self`` for methods and the model for the
            # cache build, so args[1] is the batch either way.
            with tracer.span(_name, items=_count(args)):
                return _original(*args, **kwargs)

        setattr(owner, attribute, wrapper)
        patched.append((owner, attribute, original))
    try:
        yield tracer
    finally:
        for owner, attribute, original in reversed(patched):
            setattr(owner, attribute, original)


def stage_totals(spans: List[dict]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, items, total and self seconds."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    totals: Dict[str, Dict[str, float]] = {}
    for span, child_time in zip(spans, covered):
        duration = span["end"] - span["start"]
        entry = totals.setdefault(span["name"], {
            "calls": 0, "items": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["items"] += span["items"]
        entry["total_s"] += duration
        entry["self_s"] += duration - child_time
    return totals


def ledger(total_s: float, stages: List[Tuple[str, float, str]]) -> dict:
    """A stage ledger: self seconds and share per stage, plus remainder.

    ``stages`` are ``(name, self_seconds, source)``; ``source`` says
    how the number was obtained (client span, server metrics delta,
    in-process replay).  ``unattributed`` is the end-to-end total minus
    every listed stage.
    """
    rows = []
    attributed = 0.0
    for name, seconds, source in stages:
        attributed += seconds
        rows.append({"stage": name, "self_ms": seconds * 1e3,
                     "share": seconds / total_s if total_s else 0.0,
                     "source": source})
    remainder = total_s - attributed
    rows.append({"stage": "unattributed", "self_ms": remainder * 1e3,
                 "share": remainder / total_s if total_s else 0.0,
                 "source": "end-to-end total minus every stage"})
    return {"total_ms": total_s * 1e3, "stages": rows}
