"""Local launcher: serving subprocesses on this machine.

:func:`start_local_workers` spawns ``python -m repro worker --listen
127.0.0.1:0 ...`` processes serving one seeded dataset (``stgq cluster``,
the remote leg of ``benchmarks/bench_service.py``);
:func:`start_service_workers` spawns the children of a
:class:`~repro.service.ProcessBackend`; the HTTP gateway launcher reuses the
helpers.  Every child prints ``<READY marker> host port`` once it listens:
:func:`_await_ready` reads it off the child's stdout, and
:func:`_stop_processes` tears children down — SIGTERM first (their signal
handlers drain in-flight requests), then SIGKILL for stragglers.

This is the local, laptop-scale deployment; the same worker command behind
a k8s Service is the multi-node shape the ROADMAP points at.
"""

from __future__ import annotations

import os
import queue
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ...exceptions import ProtocolError, WorkerUnavailableError
from .protocol import client_handshake, recv_frame, send_frame
from .remote import parse_addresses
from .worker import READY_MARKER

__all__ = ["LocalWorkerCluster", "start_local_workers", "start_service_workers"]


@dataclass
class LocalWorkerCluster:
    """Handle on a set of locally spawned worker subprocesses."""

    processes: List[subprocess.Popen] = field(default_factory=list)
    addresses: List[str] = field(default_factory=list)

    def connect_spec(self) -> str:
        """The ``--connect`` string a gateway needs (``host:p1,host:p2``)."""
        return ",".join(self.addresses)

    def close(self, timeout: float = 10.0) -> None:
        """Terminate every worker (graceful SIGTERM, then SIGKILL)."""
        _stop_processes(self.processes, timeout)
        self.processes = []
        self.addresses = []

    def __enter__(self) -> "LocalWorkerCluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _repro_env() -> dict:
    """Subprocess environment with the live ``repro`` package importable."""
    import repro

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = os.environ.copy()
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = package_root if not existing else package_root + os.pathsep + existing
    return env


def _await_ready(
    process: subprocess.Popen, marker: str, startup_timeout: float, role: str = "worker"
) -> Tuple[str, str]:
    """Read a child's stdout until its ``marker host port`` line; returns ``(host, port)``.

    A daemon reader thread performs the blocking ``readline`` calls and the
    launcher waits on a queue with the deadline — the same trick as
    jsonl's ``_RequestReader``, and for the same reasons: ``select`` on the
    text wrapper misses lines already pulled into its buffer and cannot
    poll pipes at all on some platforms, while a bare ``readline`` would
    ignore ``startup_timeout`` entirely for a child that hangs silently.
    A timed-out reader thread stays parked on ``readline`` until the
    caller's cleanup terminates the process (EOF releases it).
    """
    outcome: "queue.Queue[Optional[Tuple[str, str]]]" = queue.Queue()

    def _pump() -> None:
        assert process.stdout is not None
        try:
            for line in iter(process.stdout.readline, ""):
                parts = line.split()
                if len(parts) == 3 and parts[0] == marker:
                    outcome.put((parts[1], parts[2]))
                    return
        except (OSError, ValueError):  # pipe closed under us during cleanup
            pass
        outcome.put(None)  # EOF without a READY line

    threading.Thread(target=_pump, name=f"stgq-{role}-ready", daemon=True).start()
    try:
        address = outcome.get(timeout=startup_timeout)
    except queue.Empty:
        raise WorkerUnavailableError(
            f"{role} did not announce readiness within {startup_timeout}s"
        ) from None
    if address is None:
        raise WorkerUnavailableError(
            f"{role} process exited (code {process.poll()}) before announcing readiness"
        )
    return address


def _stop_processes(processes: Sequence[subprocess.Popen], timeout: float) -> None:
    """SIGTERM every live process, SIGKILL those still running after ``timeout``."""
    for process in processes:
        if process.poll() is None:
            process.terminate()
    deadline = time.monotonic() + timeout
    for process in processes:
        remaining = max(0.1, deadline - time.monotonic())
        try:
            process.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        for pipe in (process.stdin, process.stdout):
            if pipe is not None:
                try:
                    pipe.close()
                except OSError:  # unflushed state for a child that died first
                    pass


def _ping(address: str, timeout: float = 5.0) -> None:
    """Handshake + ping one worker; raises ``WorkerUnavailableError``."""
    try:
        with socket.create_connection(parse_addresses(address)[0], timeout=timeout) as sock:
            sock.settimeout(timeout)
            client_handshake(sock)
            send_frame(sock, {"type": "ping", "id": 0})
            pong = recv_frame(sock)
            if pong.get("type") != "pong":
                raise WorkerUnavailableError(f"worker {address} did not answer a ping: {pong}")
    except ProtocolError as exc:
        raise WorkerUnavailableError(f"worker {address} failed the handshake: {exc}") from exc
    except OSError as exc:
        raise WorkerUnavailableError(f"cannot reach spawned worker {address}: {exc}") from exc


def _launch(
    command: List[str], count: int, startup_timeout: float, state: Optional[bytes] = None
) -> LocalWorkerCluster:
    """Spawn ``count`` workers running ``command`` and wait until each is pinged.

    ``state``, when given, is written to every worker's stdin, which then
    stays open: the worker exits when it closes.  On any startup failure the
    already-spawned workers are torn down.
    """
    if count < 1:
        raise WorkerUnavailableError(f"worker count must be >= 1, got {count}")
    cluster = LocalWorkerCluster()
    env = _repro_env()
    try:
        for _ in range(count):
            cluster.processes.append(
                subprocess.Popen(
                    command,
                    stdin=subprocess.PIPE if state is not None else None,
                    stdout=subprocess.PIPE,
                    env=env,
                    text=True,
                    bufsize=1,  # line buffered: the READY line arrives promptly
                )
            )
        if state is not None:
            for process in cluster.processes:
                assert process.stdin is not None
                process.stdin.buffer.write(state)
                process.stdin.buffer.flush()
        for process in cluster.processes:
            host, port = _await_ready(process, READY_MARKER, startup_timeout)
            address = f"{host}:{port}"
            _ping(address)
            cluster.addresses.append(address)
    except BaseException:
        cluster.close()
        raise
    return cluster


def start_local_workers(
    count: int,
    people: int = 194,
    days: int = 1,
    seed: int = 42,
    backend: str = "serial",
    workers: Optional[int] = None,
    cache_size: int = 128,
    kernel: str = "compiled",
    startup_timeout: float = 120.0,
    placement: Optional[str] = None,
) -> LocalWorkerCluster:
    """Spawn ``count`` worker subprocesses serving the same seeded dataset.

    Each worker binds an ephemeral 127.0.0.1 port (``--listen 127.0.0.1:0``)
    and is pinged before this returns, so the cluster is ready for a
    gateway's :class:`~repro.service.net.RemoteBackend` immediately.  On any
    startup failure the already-spawned workers are torn down.  ``placement``
    names a ``placement.json`` file every worker pre-loads (``--placement``),
    so the fleet boots already holding the load-aware map instead of waiting
    for a ``placement_update`` push.
    """
    command = [
        sys.executable,
        "-m",
        "repro",
        "worker",
        "--listen",
        "127.0.0.1:0",
        "--people",
        str(people),
        "--days",
        str(days),
        "--seed",
        str(seed),
        "--backend",
        backend,
        "--cache-size",
        str(cache_size),
        "--kernel",
        kernel,
    ]
    if workers is not None:
        command += ["--workers", str(workers)]
    if placement is not None:
        command += ["--placement", str(placement)]
    return _launch(command, count, startup_timeout)


def start_service_workers(
    count: int, state: bytes, startup_timeout: float = 120.0
) -> LocalWorkerCluster:
    """Spawn ``count`` workers that each serve the pickled service ``state``.

    ``state`` is what :func:`~repro.service.net.worker.run_spawned_worker`
    unpickles: ``(graph, calendars, parameters, cache_size, live_version)``.
    Each worker is a serial service on an ephemeral 127.0.0.1 port; it
    exits, drained, on SIGTERM or when the launcher's end of its stdin
    closes, so a worker never outlives the process that spawned it.
    """
    command = [
        sys.executable,
        "-c",
        "from repro.service.net.worker import run_spawned_worker; "
        "raise SystemExit(run_spawned_worker())",
    ]
    return _launch(command, count, startup_timeout, state)
