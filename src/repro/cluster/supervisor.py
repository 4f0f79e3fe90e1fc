"""Worker lifecycle: spawn, probe, drain, restart, replay, roll out.

The supervisor owns the shard workers as OS processes.  Its loop keeps
the cluster inside the bit-identity contract at all times:

* **Boot** — spawn every worker (``python -m repro.serve --shard-id
  N``) on its assigned port and block until its ``/v1/health``
  answers; the router only exists once every shard is reachable.
* **Watchdog** — poll process liveness and worker health; a dead or
  persistently unhealthy worker is restarted *on its original port*
  (the ring mapping never moves) behind a router drain, and the
  shard's :class:`~repro.cluster.journal.RecordJournal` is replayed
  into the fresh process before traffic resumes — the reborn worker
  answers exactly like one that never crashed, because acknowledged
  records are the only serving state that cannot be derived.  With a
  durable (disk-backed) journal the same replay also powers **cold
  boot**: :meth:`Supervisor.replay_all` rebuilds every worker of a
  brand-new cluster process from the journal directory, so recovery
  no longer depends on any previous router process's lifetime.
* **Warm blue/green rollout** — forward a new checkpoint to each
  worker's ``/v1/admin/rollout`` one shard at a time.  Each worker
  builds the green engine, adopts live histories, pre-warms its
  forward-stream caches for that shard's hottest students, and swaps
  atomically (:meth:`repro.serve.Service.rollout`) — no downtime, no
  post-swap cold-start spike.  On success the supervisor re-points the
  shard's restart checkpoint at the new weights, so a crash *after* a
  rollout restarts onto the rolled-out model, not the boot-time one.
  The re-pointing lives in this process only: rollouts are not
  journaled, so a cold boot serves the checkpoints it is given.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import repro
from repro import obs
from repro.serve.http_gateway import ServiceClient
from repro.serve.protocol import (DEFAULT_MODEL, DEFAULT_WARM_TOP,
                                  ShardUnavailable, is_error,
                                  query_from_wire)

from .journal import RecordJournal


def free_port(host: str = "127.0.0.1") -> int:
    """An OS-assigned free TCP port (tiny bind race: acceptable for the
    local/CI clusters this module targets)."""
    with socket.socket() as probe:
        probe.bind((host, 0))
        return probe.getsockname()[1]


@dataclass
class WorkerSpec:
    """Everything needed to (re)spawn one shard worker."""

    shard_id: int
    port: int
    checkpoints: List[Tuple[str, str]]   # (model name, path)
    host: str = "127.0.0.1"
    extra_args: Tuple[str, ...] = ()     # engine flags (--window, ...)
    log_path: Optional[str] = None

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def argv(self) -> List[str]:
        argv = [sys.executable, "-m", "repro.serve",
                "--host", self.host, "--port", str(self.port),
                "--shard-id", str(self.shard_id)]
        for name, path in self.checkpoints:
            argv += ["--checkpoint", f"{name}={path}"]
        argv += list(self.extra_args)
        return argv


@dataclass
class WorkerHandle:
    """One supervised worker's live state."""

    spec: WorkerSpec
    process: Optional[subprocess.Popen] = None
    restarts: int = 0
    health_failures: int = 0
    #: Set while a restart is owed/incomplete: the shard stays drained
    #: until a respawn *and* journal replay both succeed.
    needs_recovery: bool = False
    _log_file: object = field(default=None, repr=False)

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None


class Supervisor:
    """Spawn and babysit the shard workers of one cluster.

    Parameters
    ----------
    specs:
        One :class:`WorkerSpec` per shard, index == shard id.
    journal:
        The router-shared :class:`RecordJournal` replayed on restart.
    router:
        Optional :class:`~repro.cluster.router.ScatterGatherRouter`
        to drain/resume around restarts; also receives
        :attr:`~repro.cluster.router.ScatterGatherRouter.rollout_hook`.
    poll_interval / unhealthy_after:
        Watchdog cadence; a worker failing ``unhealthy_after``
        consecutive health probes (or whose process died) restarts.
    boot_timeout:
        Seconds to wait for a (re)spawned worker's first healthy probe.
    """

    def __init__(self, specs: Sequence[WorkerSpec],
                 journal: Optional[RecordJournal] = None,
                 router=None, poll_interval: float = 0.5,
                 unhealthy_after: int = 3, boot_timeout: float = 60.0):
        self.workers = [WorkerHandle(spec) for spec in specs]
        self.journal = journal if journal is not None else RecordJournal()
        self.router = router
        if router is not None:
            router.rollout_hook = self.rollout
        self.poll_interval = poll_interval
        self.unhealthy_after = unhealthy_after
        self.boot_timeout = boot_timeout
        self.clients = [ServiceClient(h.spec.base_url, timeout=5.0)
                        for h in self.workers]
        self._stop = threading.Event()
        self._watchdog: Optional[threading.Thread] = None
        self._lock = threading.Lock()   # serializes restart/rollout

    def attach_router(self, router) -> None:
        """Bind a router created after this supervisor (the
        constructor's ``router`` binds one created before it)."""
        with self._lock:
            # restart/rollout read self.router under the lock; binding
            # it unlocked could hand a half-attached router to a
            # concurrently restarting worker.
            self.router = router
        router.rollout_hook = self.rollout

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn every worker and wait until all are healthy."""
        for handle in self.workers:
            self._spawn(handle)
        for handle in self.workers:
            self._wait_healthy(handle)

    def start_watchdog(self) -> None:
        if self._watchdog is not None:
            return
        self._watchdog = threading.Thread(target=self._watch,
                                          name="rckt-cluster-watchdog",
                                          daemon=True)
        self._watchdog.start()

    def stop(self) -> None:
        """Stop the watchdog and terminate every worker."""
        self._stop.set()
        if self._watchdog is not None:
            self._watchdog.join(timeout=5.0)
            self._watchdog = None
        for handle in self.workers:
            self._terminate(handle)
        for client in self.clients:
            client.close()

    def _spawn(self, handle: WorkerHandle) -> None:
        spec = handle.spec
        env = dict(os.environ)
        # The worker must import this very checkout of `repro`,
        # wherever the parent found it.
        package_root = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = package_root if not existing \
            else os.pathsep.join([package_root, existing])
        if spec.log_path:
            handle._log_file = open(spec.log_path, "ab")
            stdout = stderr = handle._log_file
        else:
            stdout = stderr = subprocess.DEVNULL
        handle.process = subprocess.Popen(spec.argv(), env=env,
                                          stdout=stdout, stderr=stderr)
        handle.health_failures = 0

    def _terminate(self, handle: WorkerHandle) -> None:
        process = handle.process
        if process is not None and process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if handle._log_file is not None:
            handle._log_file.close()
            handle._log_file = None

    def _wait_healthy(self, handle: WorkerHandle) -> None:
        client = self.clients[handle.spec.shard_id]
        deadline = obs.clock() + self.boot_timeout
        while obs.clock() < deadline:
            if not handle.alive:
                raise RuntimeError(
                    f"worker {handle.spec.shard_id} exited with code "
                    f"{handle.process.returncode} during boot "
                    f"(log: {handle.spec.log_path or 'discarded'})")
            try:
                if client.health().get("status") == "ok":
                    handle.health_failures = 0
                    return
            except Exception:  # noqa: BLE001 — boot probe
                pass
            obs.sleep(0.05)
        raise RuntimeError(f"worker {handle.spec.shard_id} did not become "
                           f"healthy within {self.boot_timeout}s")

    # ------------------------------------------------------------------
    # Watchdog + crash recovery
    # ------------------------------------------------------------------
    def _watch(self) -> None:
        while not self._stop.wait(self.poll_interval):
            try:
                self.check_once()
            except Exception:  # noqa: BLE001 — the watchdog must survive
                pass

    def check_once(self) -> None:
        """One probe round: restart any dead/unhealthy/unrecovered
        worker.  A restart that fails (boot or replay) leaves
        ``needs_recovery`` set — the shard stays drained and is retried
        on the next round rather than silently serving without its
        journal."""
        for handle in self.workers:
            if self._stop.is_set():
                return
            shard = handle.spec.shard_id
            if not handle.alive or handle.needs_recovery:
                self._try_restart(shard)
                continue
            try:
                healthy = self.clients[shard].health() \
                    .get("status") == "ok"
            except Exception:  # noqa: BLE001 — probe boundary
                healthy = False
            if healthy:
                handle.health_failures = 0
            else:
                handle.health_failures += 1
                if handle.health_failures >= self.unhealthy_after:
                    self._try_restart(shard)

    def _try_restart(self, shard: int) -> None:
        """Watchdog wrapper: a failed restart must not kill the probe
        loop for the other shards (the shard stays drained and flagged
        for another attempt)."""
        try:
            self.restart(shard)
        except Exception:  # noqa: BLE001 — retried next round
            pass

    def restart(self, shard: int) -> None:
        """Drain, respawn on the same port, replay the journal, resume.

        Routing only resumes after a **successful** replay: a reborn
        worker missing acknowledged records would silently break the
        bit-identity contract, so on boot or replay failure the shard
        stays drained (queries keep answering ``shard_unavailable``)
        and ``needs_recovery`` marks it for another restart attempt.
        """
        with self._lock:
            handle = self.workers[shard]
            if self.router is not None:
                self.router.drain(shard)
            handle.needs_recovery = True
            self._terminate(handle)
            self._spawn(handle)
            handle.restarts += 1
            self._wait_healthy(handle)
            self.replay(shard)
            handle.needs_recovery = False
            handle.health_failures = 0
            if self.router is not None:
                self.router.resume(shard)

    def replay(self, shard: int) -> int:
        """Re-apply the shard's acknowledged records, in journal order.

        Returns the number of replayed records; raises ``RuntimeError``
        if any replayed record is rejected (that would mean the journal
        and the checkpoint disagree — a bug worth failing loudly on).
        """
        client = self.clients[shard]
        replayed = 0
        for envelope in self.journal.envelopes(shard):
            queries = [query_from_wire(q) for q in envelope["queries"]]
            replies = client.execute_batch(queries)
            bad = [r for r in replies if is_error(r)]
            if bad:
                raise RuntimeError(f"journal replay rejected on shard "
                                   f"{shard}: {bad[0]}")
            replayed += len(queries)
        return replayed

    def replay_all(self) -> int:
        """Replay every shard's journal into its (fresh) worker.

        The cold-boot path: after :meth:`start` brings up empty workers
        from checkpoints, this rebuilds their histories from a durable
        journal recovered off disk.  Returns the total replayed record
        count.  Raises like :meth:`replay` on any rejected record.
        """
        return sum(self.replay(handle.spec.shard_id)
                   for handle in self.workers)

    # ------------------------------------------------------------------
    # Warm blue/green rollout
    # ------------------------------------------------------------------
    def rollout(self, checkpoint, model: str = DEFAULT_MODEL,
                warm_top: int = DEFAULT_WARM_TOP) -> List[object]:
        """Roll a new checkpoint across the shards, one worker at a time.

        Stops at the first failing shard (the remaining workers keep
        the old weights — inspect the returned list and retry).  On
        each success the shard's restart checkpoint is re-pointed, so
        crash recovery restores the *rolled-out* model.
        """
        results: List[object] = []
        with self._lock:
            for handle in self.workers:
                shard = handle.spec.shard_id
                try:
                    result = self.clients[shard].rollout(
                        checkpoint, model=model, warm_top=warm_top)
                except Exception as error:  # noqa: BLE001 — fan-out
                    result = ShardUnavailable(
                        f"shard {shard} ({handle.spec.base_url}) is "
                        f"unavailable: {type(error).__name__}: {error}",
                        details={"shard": shard,
                                 "url": handle.spec.base_url})
                results.append(result)
                if is_error(result):
                    break
                handle.spec.checkpoints = [
                    (n, str(checkpoint) if n == model else p)
                    for n, p in handle.spec.checkpoints]
        return results
