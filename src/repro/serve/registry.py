"""Named model registry: many checkpoints behind one service.

Each registered name owns one :class:`~repro.serve.InferenceEngine` —
model weights *plus* that model's per-student histories and
forward-stream caches, because cached state is a function of the
weights it was computed under and must live and die with them.

An engine's model is bound once, at construction.  ``register``
rebinds a name to a brand-new engine in one assignment, which is how
:meth:`repro.serve.Service.rollout` — the one way a served model
changes — swaps in a warm standby: an in-flight query that already
resolved the old engine finishes consistently on the old model.

Thread-safe: the registry lock guards the name table only; per-engine
state is guarded by each engine's own lock.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from .engine import InferenceEngine
from .protocol import DEFAULT_MODEL


class ModelRegistry:
    """Name -> :class:`InferenceEngine` table with atomic rebinding."""

    def __init__(self):
        self._engines: Dict[str, InferenceEngine] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._engines)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._engines

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._engines)

    def register(self, name: str, engine: InferenceEngine
                 ) -> InferenceEngine:
        """Bind ``name`` to ``engine`` (replacing any previous binding).

        The engine adopts the name so its validation errors can report
        which model rejected the request.  Replies still echo the name
        each query addressed, so an engine served under several names
        answers each under its own.
        """
        if not name:
            raise ValueError("model name must be non-empty")
        engine.name = name
        with self._lock:
            self._engines[name] = engine
        return engine

    def load(self, name: str, path, **engine_kwargs) -> InferenceEngine:
        """Register a fresh engine built from a checkpoint file."""
        engine = InferenceEngine.from_checkpoint(path, **engine_kwargs)
        return self.register(name, engine)

    def get(self, name: str) -> Optional[InferenceEngine]:
        """The engine bound to ``name``, or ``None`` (caller maps the
        miss to a :class:`~repro.serve.protocol.ModelNotLoaded`)."""
        with self._lock:
            return self._engines.get(name)

    def unregister(self, name: str) -> Optional[InferenceEngine]:
        """Drop a binding; in-flight queries that resolved the engine
        finish, new queries get ``ModelNotLoaded``."""
        with self._lock:
            return self._engines.pop(name, None)

    def describe(self) -> List[dict]:
        """Per-model metadata (the gateway's ``/v1/models`` body)."""
        with self._lock:
            items = sorted(self._engines.items())
        return [
            {
                "name": name,
                "encoder": engine.model.config.encoder,
                "dim": engine.model.config.dim,
                "num_questions": engine.num_questions,
                "num_concepts": engine.num_concepts,
                "window": engine.window,
                "students": len(engine.students),
            }
            for name, engine in items
        ]


def registry_for(model_or_engine, **engine_kwargs) -> ModelRegistry:
    """One-model registry for the facade's single-model sugar.

    An existing engine keeps the name it already carries (so error
    payloads stay consistent with any external registration); a bare
    model gets :data:`DEFAULT_MODEL`.
    """
    registry = ModelRegistry()
    if isinstance(model_or_engine, InferenceEngine):
        if engine_kwargs:
            raise ValueError("engine_kwargs only apply when constructing "
                             "from a bare model")
        engine = model_or_engine
        name = engine.name or DEFAULT_MODEL
    else:
        engine = InferenceEngine(model_or_engine, **engine_kwargs)
        name = DEFAULT_MODEL
    registry.register(name, engine)
    return registry
