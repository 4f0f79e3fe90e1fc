"""The metric-name catalogue: every series the serving stack emits.

One constant per metric, grouped by kind at the bottom — instrumentation
sites import these instead of spelling strings so a renamed metric is a
one-line change, and ``tools/check_docs.py`` machine-checks this module
against the table in ``docs/OBSERVABILITY.md`` (the same way the error
taxonomy is checked against ``docs/API.md``).

Naming conventions (documented in ``docs/OBSERVABILITY.md``): counters
end in ``_total``, byte gauges in ``_bytes``, latency histograms in
``_seconds``; the prefix names the owning subsystem (``service_``,
``stream_cache_``, ``engine_``, ``http_``, ``router_``, ``wal_``,
``online_``).
"""

from __future__ import annotations

# --- service scheduler (repro.serve.service) -------------------------------
SERVICE_REQUESTS_TOTAL = "service_requests_total"
SERVICE_COALESCED_READS_TOTAL = "service_coalesced_reads_total"
SERVICE_BATCH_SECONDS = "service_batch_seconds"
SERVICE_BATCH_SIZE = "service_batch_size"
SERVICE_QUERY_SECONDS = "service_query_seconds"

# --- forward-stream cache (repro.serve.forward_cache) ----------------------
STREAM_CACHE_HITS_TOTAL = "stream_cache_hits_total"
STREAM_CACHE_MISSES_TOTAL = "stream_cache_misses_total"
STREAM_CACHE_EVICTIONS_TOTAL = "stream_cache_evictions_total"
STREAM_CACHE_REBUILDS_TOTAL = "stream_cache_rebuilds_total"
STREAM_CACHE_RESIDENT_BYTES = "stream_cache_resident_bytes"
STREAM_CACHE_ENTRIES = "stream_cache_entries"

# --- inference engine (repro.serve.engine) ---------------------------------
ENGINE_FORWARD_CALLS_TOTAL = "engine_forward_calls_total"

# --- HTTP gateway (repro.serve.http_gateway) -------------------------------
HTTP_REQUESTS_TOTAL = "http_requests_total"
HTTP_ERRORS_TOTAL = "http_errors_total"
HTTP_REQUEST_SECONDS = "http_request_seconds"

# --- cluster router (repro.cluster.router) ---------------------------------
ROUTER_FANOUT_SECONDS = "router_fanout_seconds"
ROUTER_SHARD_UNAVAILABLE_TOTAL = "router_shard_unavailable_total"

# --- write-ahead log (repro.cluster.wal) -----------------------------------
WAL_APPEND_SECONDS = "wal_append_seconds"
WAL_FSYNC_SECONDS = "wal_fsync_seconds"
WAL_SEGMENT_ROLLS_TOTAL = "wal_segment_rolls_total"

# --- continual trainer (repro.online) --------------------------------------
ONLINE_ROUNDS_TOTAL = "online_rounds_total"
ONLINE_FINE_TUNE_SECONDS = "online_fine_tune_seconds"
ONLINE_GATE_DECISIONS_TOTAL = "online_gate_decisions_total"

#: Kind registries ``tools/check_docs.py`` extracts (via AST) to verify
#: the ``docs/OBSERVABILITY.md`` catalogue table: every name below must
#: have a table row with the matching kind, and the table may document
#: nothing that is not registered here.
COUNTERS = (
    SERVICE_REQUESTS_TOTAL,
    SERVICE_COALESCED_READS_TOTAL,
    STREAM_CACHE_HITS_TOTAL,
    STREAM_CACHE_MISSES_TOTAL,
    STREAM_CACHE_EVICTIONS_TOTAL,
    STREAM_CACHE_REBUILDS_TOTAL,
    ENGINE_FORWARD_CALLS_TOTAL,
    HTTP_REQUESTS_TOTAL,
    HTTP_ERRORS_TOTAL,
    ROUTER_SHARD_UNAVAILABLE_TOTAL,
    WAL_SEGMENT_ROLLS_TOTAL,
    ONLINE_ROUNDS_TOTAL,
    ONLINE_GATE_DECISIONS_TOTAL,
)

GAUGES = (
    STREAM_CACHE_RESIDENT_BYTES,
    STREAM_CACHE_ENTRIES,
)

HISTOGRAMS = (
    SERVICE_BATCH_SECONDS,
    SERVICE_BATCH_SIZE,
    SERVICE_QUERY_SECONDS,
    HTTP_REQUEST_SECONDS,
    ROUTER_FANOUT_SECONDS,
    WAL_APPEND_SECONDS,
    WAL_FSYNC_SECONDS,
    ONLINE_FINE_TUNE_SECONDS,
)
