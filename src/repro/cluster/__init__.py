"""Sharded multi-process serving: scatter-gather over shard workers.

``repro.cluster`` scales the PR 4 typed serving API horizontally.  The
counterfactual workload is shared-nothing per student (histories,
forward-stream caches, and influence computations never cross
students), so the cluster shards *students* across worker processes
and keeps one contract above everything else: **an N-shard cluster
answers bit-identically to a single in-process**
:class:`repro.serve.Service` — through worker crashes (journal replay)
and warm blue/green rollouts alike.

* :class:`HashRing` (:mod:`repro.cluster.ring`) — deterministic,
  resize-stable student -> shard placement via consistent hashing.
* Shard workers — the stock ``Service`` + ``ModelRegistry`` + HTTP
  gateway as one supervised OS process each
  (``python -m repro.serve --shard-id N``).
* :class:`ScatterGatherRouter` (:mod:`repro.cluster.router`) — the
  public endpoint's backend: screens envelopes, splits mixed-type
  batches by shard, fans out over persistent keep-alive connections,
  merges replies in envelope order, and surfaces per-shard failures as
  :class:`~repro.serve.protocol.ShardUnavailable` *values*.  Its HTTP
  face is the gateway's own (``repro.serve.serve_http(router,
  role="router")``); this package holds no HTTP server code.
* :class:`RecordJournal` (:mod:`repro.cluster.journal`) — per-shard
  log of acknowledged records, the crash-recovery ground truth.  With
  a directory it is a **durable write-ahead journal**: CRC-framed
  segment files (:mod:`repro.cluster.wal`) with configurable fsync,
  compacted by replay-ordered snapshots (:mod:`repro.cluster.snapshot`)
  that truncate covered segments, recovered — torn tails and all — on
  cold boot.
* :class:`Supervisor` (:mod:`repro.cluster.supervisor`) — spawns and
  babysits workers: health probes, drain + same-port restart + journal
  replay on crash, and rolling warm blue/green checkpoint rollouts
  (each worker pre-warms the standby's stream caches for its hottest
  students before the atomic swap).

``python -m repro.cluster`` boots the whole stack from checkpoint
files (``--journal-dir`` for durability + recovery-on-boot).  The
multi-process proofs — crash restart, rollout and a cold boot through
``build_cluster`` — are ``tests/cluster/test_process.py`` and
``tests/cluster/test_cold_boot.py``.  See ``docs/CLUSTER.md`` for
semantics and operations.
"""

from .journal import RecordJournal, replay_order
from .ring import DEFAULT_REPLICAS, HashRing, student_key
from .router import ScatterGatherRouter
from .supervisor import Supervisor, WorkerHandle, WorkerSpec, free_port
from .wal import FSYNC_POLICIES, SegmentCorruption

__all__ = [
    "HashRing", "DEFAULT_REPLICAS", "student_key",
    "RecordJournal", "replay_order",
    "FSYNC_POLICIES", "SegmentCorruption",
    "ScatterGatherRouter",
    "Supervisor", "WorkerSpec", "WorkerHandle", "free_port",
]
