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
  public endpoint's backend over one backend per shard: screens
  envelopes, splits mixed-type batches by shard, fans out, merges
  replies in envelope order, surfaces per-shard failures as
  :class:`~repro.serve.protocol.ShardUnavailable` *values*, and runs
  the one rollout loop.  Its HTTP face is the gateway's own
  (``repro.serve.serve_http(router, role="router")``).
* :class:`RecordJournal` (:mod:`repro.cluster.journal`) — per-shard
  log of acknowledged records, the crash-recovery ground truth.  With
  a directory it is a **durable write-ahead journal**:
  :mod:`repro.cluster.wal` owns every file — CRC-framed segments with
  configurable fsync, compacted by snapshots of the same frames that
  truncate covered segments, recovered (torn tails and all) on cold
  boot.  :meth:`RecordJournal.replay_into` is the one replay
  path, for a restarted worker and a cold boot alike.
* :class:`Supervisor` (:mod:`repro.cluster.supervisor`) — spawns and
  babysits workers behind ``supervisor.router``: health probes, and
  drain, same-port restart and journal replay on crash.

``python -m repro.cluster`` boots the whole stack from checkpoint
files (``--journal-dir`` for durability + recovery-on-boot).  The
proofs are ``tests/cluster/test_cluster_oracle.py`` (in-process shards
through crashes, rollouts and cold boots), ``test_process.py`` and
``test_cold_boot.py`` (real processes).  See ``docs/CLUSTER.md``.
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
