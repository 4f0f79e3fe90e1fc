"""Serving processes and the wire connections that drive them.

The gateway (``python -m repro.serve``) and the cluster
(``python -m repro.cluster``) run as child processes in their own
session, so stopping one always reaches every worker it spawned.
Memory is read from ``/proc/<pid>/status`` (``VmHWM``, the peak
resident set).
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

_URL = re.compile(r" on (http://[0-9.]+:[0-9]+) ")


class ServerProcess:
    """One serving CLI in its own session, logging to a file.

    ``python -m repro.serve`` / ``repro.cluster`` print their URL once
    they accept connections (``--port 0`` picks an ephemeral port), so
    readiness is that line appearing in the log.
    """

    def __init__(self, module: str, args: List[str], log_path: Path,
                 src: Path, interrupt: bool = False):
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else []))
        self.log_path = log_path
        self._log = open(log_path, "wb")
        # The cluster CLI shuts its workers down on KeyboardInterrupt;
        # the single gateway has nothing to flush and takes SIGTERM.
        self._signal = signal.SIGINT if interrupt else signal.SIGTERM
        self.process = subprocess.Popen(
            [sys.executable, "-m", module, "--port", "0", *args],
            stdout=self._log, stderr=subprocess.STDOUT, env=env,
            start_new_session=True)
        self.url: Optional[str] = None

    @property
    def pid(self) -> int:
        return self.process.pid

    def wait_ready(self, timeout: float = 120.0) -> str:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            match = _URL.search(self.log_path.read_text(errors="replace"))
            if match:
                self.url = match.group(1)
                return self.url
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"{self.process.args[2]} did not become ready; "
                           f"log:\n{self.log_path.read_text()[-2000:]}")

    def stop(self, timeout: float = 20.0) -> None:
        """Graceful signal, then SIGKILL to the whole session."""
        if self.process.poll() is None:
            try:
                self.process.send_signal(self._signal)
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        self._log.close()


def children(pid: int) -> List[int]:
    """Direct child pids of ``pid`` (Linux ``/proc``)."""
    found = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            found += [int(p) for p in
                      (task / "children").read_text().split()]
        except OSError:
            continue
    return found


def peak_rss_mb(pids: List[int]) -> float:
    """Sum of the peak resident sets (``VmHWM``) of ``pids`` in MiB."""
    total_kb = 0
    for pid in pids:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


class Connection:
    """One keep-alive HTTP/1.1 connection (the gateway's framing).

    Deliberately thin: the benchmark times the exchange itself, and the
    client-side JSON work around it is timed separately by the caller.
    """

    def __init__(self, url: str, timeout: float = 60.0):
        host, port = url.split("//", 1)[1].split(":")
        self._connection = http.client.HTTPConnection(host, int(port),
                                                      timeout=timeout)
        self._connection.connect()
        # Without TCP_NODELAY, Nagle and delayed ACKs stall a
        # request-after-response on a kept-alive socket by ~40 ms.
        self._connection.sock.setsockopt(socket.IPPROTO_TCP,
                                         socket.TCP_NODELAY, 1)

    def exchange(self, method: str, route: str,
                 body: Optional[bytes] = None):
        headers = {"Content-Type": "application/json"} if body else {}
        self._connection.request(method, route, body=body, headers=headers)
        response = self._connection.getresponse()
        return response.status, response.read()

    def get_json(self, route: str) -> dict:
        status, raw = self.exchange("GET", route)
        if status != 200:
            raise RuntimeError(f"GET {route} answered {status}")
        return json.loads(raw)

    def close(self) -> None:
        self._connection.close()


def metrics(url: str) -> Dict[str, object]:
    """``GET /v1/metrics`` of one server (fresh connection)."""
    connection = Connection(url)
    try:
        return connection.get_json("/v1/metrics")
    finally:
        connection.close()
