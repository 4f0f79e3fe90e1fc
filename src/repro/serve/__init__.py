"""Serving subsystem: a typed, transport-agnostic API over RCKT inference.

``repro.serve`` turns the repository's counterfactual scorer into an
engine shaped like a production inference service, reachable two
equivalent ways — the typed facade in process, and HTTP:

* :class:`Service` — the typed facade (protocol v2, v1 envelopes still
  accepted): every capability is a typed query (:class:`ScoreQuery`,
  :class:`ExplainQuery` for per-response influences,
  :class:`WhatIfQuery` for counterfactual history edits,
  :class:`RecommendQuery`, :class:`RecourseQuery` for the batched
  counterfactual edit search of :mod:`repro.serve.recourse`,
  :class:`RecordEvent`, batched via :class:`BatchEnvelope`) answered by
  a typed reply or a structured error **value**
  (:class:`~repro.serve.protocol.ServiceError` subclasses — never
  raised across the boundary).  One plan per read query type puts
  every read of a model into one shared forward-stream batch;
  :meth:`Service.monotonicity_report` sweeps the
  correct-response-lowers-mastery diagnostic per student.
* :class:`ModelRegistry` — named checkpoints, queries address models
  by name; :meth:`Service.rollout` swaps in a warm standby engine, the
  only way a served model changes.
* :mod:`repro.serve.http_gateway` — stdlib HTTP/JSON gateway
  (``python -m repro.serve``, ``--shard-id N`` for a cluster worker)
  plus :class:`ServiceClient`; same protocol, same errors, over the
  wire.  Its one handler also serves the cluster router.
* :class:`InferenceEngine` — the per-model state and kernels behind
  the facade: per-student cached interaction arrays
  (:class:`HistoryStore`), incremental forward-stream caches under an
  LRU byte budget (:class:`StreamCacheStore`), and sliding-window
  anchoring.  It answers no queries itself and scores on the caller's
  thread; process parallelism is :mod:`repro.cluster`.

Histories are unbounded in length: positional tables grow on demand,
and ``InferenceEngine(window=W)`` serves arbitrarily long students over
a sliding window with exact truncation semantics (windowed scores equal
a full recompute on the window slice — ``docs/SERVING.md`` documents
the anchoring; ``docs/API.md`` documents the protocol).

All scoring goes through the multi-target fast path
(:mod:`repro.core.multi_target`), which the golden-parity suite pins to
the legacy per-prefix scores, so every surface is exactly as accurate
as the paper's evaluation protocol — just batched, cached, windowed,
and typed.
"""

from .engine import InferenceEngine
from .forward_cache import (DEFAULT_STREAM_CACHE_BYTES, StreamCacheStore,
                            StudentStreamCache, build_stream_caches)
from .history import ArrayHistory, HistoryStore, StudentHistory
from .http_gateway import (ServiceClient, ServiceHTTPServer, serve_http,
                           start_http_thread)
from .protocol import (DEFAULT_MODEL, DEFAULT_WARM_TOP, PROTOCOL_VERSION,
                       SUPPORTED_PROTOCOL_VERSIONS, BatchEnvelope,
                       BatchReply, CandidateQuestion, EmptyHistory,
                       ExplainQuery, ExplainReply, HistoryEdit,
                       InfluenceItem, InternalError, InvalidConcept,
                       InvalidEdit, InvalidQuestion, MalformedQuery,
                       ModelNotLoaded, NotFound, RecommendQuery,
                       RecommendReply,
                       RecommendationItem, RecordEvent, RecordReply,
                       RecourseQuery, RecourseReply, RecourseStep,
                       RolloutRefused, ScoreQuery, ScoreReply, ServiceError,
                       ShardUnavailable, UnknownQueryType, UnknownStudent,
                       UnsupportedVersion, WhatIfQuery,
                       WhatIfReply, capabilities, is_error,
                       negotiated_version, query_from_wire,
                       query_types_for, reply_from_wire, to_wire)
from .recourse import RecourseSearch
from .registry import ModelRegistry, registry_for
from .service import Service

__all__ = [
    # engine core
    "InferenceEngine",
    "HistoryStore", "StudentHistory", "ArrayHistory",
    "StreamCacheStore", "StudentStreamCache", "build_stream_caches",
    "DEFAULT_STREAM_CACHE_BYTES",
    # facade + registry
    "Service", "ModelRegistry", "registry_for",
    # protocol
    "PROTOCOL_VERSION", "SUPPORTED_PROTOCOL_VERSIONS", "DEFAULT_MODEL",
    "DEFAULT_WARM_TOP",
    "ScoreQuery", "ExplainQuery", "WhatIfQuery", "RecommendQuery",
    "RecourseQuery", "RecordEvent", "BatchEnvelope", "HistoryEdit",
    "CandidateQuestion",
    "ScoreReply", "ExplainReply", "WhatIfReply", "RecommendReply",
    "RecourseReply", "RecourseStep", "RecourseSearch",
    "RecordReply", "BatchReply", "InfluenceItem", "RecommendationItem",
    "ServiceError", "UnknownStudent", "InvalidQuestion", "InvalidConcept",
    "EmptyHistory", "InvalidEdit", "ModelNotLoaded", "MalformedQuery",
    "UnsupportedVersion", "UnknownQueryType", "RolloutRefused",
    "ShardUnavailable", "NotFound", "InternalError", "is_error", "to_wire",
    "query_from_wire", "reply_from_wire", "capabilities",
    "negotiated_version", "query_types_for",
    # HTTP gateway
    "ServiceClient", "ServiceHTTPServer", "serve_http",
    "start_http_thread",
]
