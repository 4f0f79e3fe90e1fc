"""Worker lifecycle: spawn, probe, drain, restart, replay.

The supervisor owns the shard workers as OS processes, one
:class:`~repro.serve.ServiceClient` per worker (its queries, probes,
replay and rollout) and :attr:`Supervisor.router` over those clients.
Its loop keeps the cluster inside the bit-identity contract:

* **Boot** — build the clients and the router (a bad ring fails
  here), then spawn every worker (``python -m repro.serve --shard-id
  N``) on its assigned port and block until its ``/v1/health`` answers.
* **Watchdog** — poll process liveness and worker health; a dead or
  persistently unhealthy worker is restarted *on its original port*
  (the ring mapping never moves) behind a router drain, and the
  shard's journal is replayed into the fresh process
  (:meth:`~repro.cluster.journal.RecordJournal.replay_into`) before
  traffic resumes — the reborn worker answers exactly like one that
  never crashed, because acknowledged records are the only serving
  state that cannot be derived.  A cold boot replays a durable journal
  into every worker through the same call.
* **Restart checkpoints** — the router's rollout loop
  (:meth:`~repro.cluster.router.ScatterGatherRouter.rollout`) reaches
  each worker through its client, which re-points that worker's
  restart checkpoint once the worker's own rollout succeeded, so a
  crash *after* a rollout restarts onto the rolled-out model.  The
  re-pointing lives in this process only: rollouts are not journaled,
  so a cold boot serves the checkpoints it is given.
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
from repro.serve.protocol import DEFAULT_MODEL, DEFAULT_WARM_TOP, is_error

from .journal import RecordJournal
from .ring import DEFAULT_REPLICAS
from .router import ScatterGatherRouter

#: Consecutive failed health probes before a live worker restarts.
UNHEALTHY_AFTER = 3

#: Seconds a (re)spawned worker has to answer its first healthy probe.
BOOT_TIMEOUT = 60.0


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


class _WorkerClient(ServiceClient):
    """A worker's one client; a successful :meth:`rollout` re-points
    the worker's restart checkpoint, under the restart lock."""

    def __init__(self, handle: WorkerHandle, restart_lock):
        super().__init__(handle.spec.base_url)
        self._handle = handle
        self._restart_lock = restart_lock

    def rollout(self, checkpoint, model: str = DEFAULT_MODEL,
                warm_top: int = DEFAULT_WARM_TOP):
        with self._restart_lock:
            result = super().rollout(checkpoint, model=model,
                                     warm_top=warm_top)
            if not is_error(result):
                spec = self._handle.spec
                spec.checkpoints = [
                    (name, str(checkpoint) if name == model else path)
                    for name, path in spec.checkpoints]
        return result


class Supervisor:
    """Spawn and babysit the shard workers of one cluster.

    Parameters
    ----------
    specs:
        One :class:`WorkerSpec` per shard, index == shard id.
    journal:
        The :class:`RecordJournal` the router logs acknowledged records
        to and a restart replays; a private in-memory one by default.
    replicas:
        Ring points per shard of :attr:`router`.
    poll_interval:
        Watchdog cadence in seconds; a worker failing
        :data:`UNHEALTHY_AFTER` consecutive health probes (or whose
        process died) restarts.
    """

    def __init__(self, specs: Sequence[WorkerSpec],
                 journal: Optional[RecordJournal] = None,
                 replicas: int = DEFAULT_REPLICAS,
                 poll_interval: float = 0.5):
        self.workers = [WorkerHandle(spec) for spec in specs]
        self.journal = journal if journal is not None else RecordJournal()
        self.poll_interval = poll_interval
        self._lock = threading.Lock()   # serializes restart/rollout
        self.clients = [_WorkerClient(handle, self._lock)
                        for handle in self.workers]
        self.router = ScatterGatherRouter(self.clients,
                                          journal=self.journal,
                                          replicas=replicas)
        self._stop = threading.Event()
        self._watchdog: Optional[threading.Thread] = None

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
        """Stop the watchdog, terminate every worker and close the
        router (and with it every worker's client)."""
        self._stop.set()
        if self._watchdog is not None:
            self._watchdog.join(timeout=5.0)
            self._watchdog = None
        for handle in self.workers:
            self._terminate(handle)
        self.router.close()

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
        deadline = obs.clock() + BOOT_TIMEOUT
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
                           f"healthy within {BOOT_TIMEOUT}s")

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
            if handle.alive and not handle.needs_recovery:
                try:
                    healthy = self.clients[shard].health() \
                        .get("status") == "ok"
                except Exception:  # noqa: BLE001 — probe boundary
                    healthy = False
                handle.health_failures = 0 if healthy \
                    else handle.health_failures + 1
                if handle.health_failures < UNHEALTHY_AFTER:
                    continue
            try:
                self.restart(shard)
            except Exception:  # noqa: BLE001 — retried next round
                pass   # the shard stays drained and flagged

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
            self.router.drain(shard)
            handle.needs_recovery = True
            self._terminate(handle)
            self._spawn(handle)
            handle.restarts += 1
            self._wait_healthy(handle)
            self.journal.replay_into(shard, self.clients[shard])
            handle.needs_recovery = False
            handle.health_failures = 0
            self.router.resume(shard)
