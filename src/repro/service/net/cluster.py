"""Local launcher: serving subprocesses on this machine.

Every locally spawned server starts through :func:`_launch`:
:func:`start_service_workers` spawns the children of a
:class:`~repro.service.ProcessBackend` (the workers behind ``stgq serve
--backend process --workers N``, the one-command local fleet);
:func:`start_local_workers` spawns ``python -m repro worker --listen
127.0.0.1:0 ...`` processes serving one seeded dataset, for topologies that
put several gateways in front of one fleet (``examples/http_smoke.py``, the
benchmarks); :func:`repro.service.http.start_local_gateways` spawns ``stgq
http`` gateways.  Every child prints ``<READY marker> host port`` once it
listens: :func:`_await_ready` reads it off the child's stdout, a liveness
probe checks the child answers, and :func:`_stop_processes` tears children
down — SIGTERM first (their signal handlers drain in-flight requests), then
SIGKILL for stragglers.

This is the local, laptop-scale deployment; the same worker command behind
a k8s Service is the multi-node shape the ROADMAP points at.
"""

from __future__ import annotations

import os
import queue
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ...exceptions import ProtocolError, WorkerUnavailableError
from .protocol import exchange
from .worker import READY_MARKER

__all__ = ["LocalWorkerCluster", "start_local_workers", "start_service_workers"]

#: Seconds a spawned child may take to print its READY line.
STARTUP_TIMEOUT = 120.0


@dataclass
class LocalWorkerCluster:
    """Handle on a set of locally spawned serving subprocesses.

    ``addresses`` holds what each child's liveness probe returned:
    ``host:port`` for a worker, ``http://host:port`` for an HTTP gateway.
    """

    processes: List[subprocess.Popen] = field(default_factory=list)
    addresses: List[str] = field(default_factory=list)

    def connect_spec(self) -> str:
        """The ``--connect`` string a gateway needs (``host:p1,host:p2``)."""
        return ",".join(self.addresses)

    def close(self, timeout: float = 30.0) -> None:
        """Terminate every child (graceful SIGTERM, then SIGKILL)."""
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


def _await_ready(process: subprocess.Popen, marker: str) -> Tuple[str, str]:
    """Read a child's stdout until its ``marker host port`` line; returns ``(host, port)``.

    A daemon reader thread performs the blocking ``readline`` calls and the
    launcher waits on a queue with the deadline — the same trick as
    jsonl's ``_RequestReader``, and for the same reasons: ``select`` on the
    text wrapper misses lines already pulled into its buffer and cannot
    poll pipes at all on some platforms, while a bare ``readline`` would
    ignore :data:`STARTUP_TIMEOUT` entirely for a child that hangs silently.
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

    threading.Thread(target=_pump, name="stgq-launch-ready", daemon=True).start()
    try:
        address = outcome.get(timeout=STARTUP_TIMEOUT)
    except queue.Empty:
        raise WorkerUnavailableError(
            f"child did not print {marker} within {STARTUP_TIMEOUT}s"
        ) from None
    if address is None:
        raise WorkerUnavailableError(
            f"child exited (code {process.poll()}) before printing {marker}"
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


def _ping(host: str, port: str) -> str:
    """Handshake + ping one spawned worker; returns its ``host:port``."""
    address = f"{host}:{port}"
    try:
        _, pong = exchange((host, int(port)), {"type": "ping", "id": 0})
    except (OSError, ProtocolError) as exc:
        raise WorkerUnavailableError(f"spawned worker {address} failed its ping: {exc}") from exc
    if pong.get("type") != "pong":
        raise WorkerUnavailableError(f"worker {address} did not answer a ping: {pong}")
    return address


def _launch(
    command: List[str],
    count: int,
    marker: str,
    probe: Callable[[str, str], str],
    state: Optional[bytes] = None,
) -> LocalWorkerCluster:
    """Spawn ``count`` children running ``command``; return once each is probed.

    Each child prints ``<marker> host port`` once it listens;
    ``probe(host, port)`` then checks that it answers (raising
    ``WorkerUnavailableError`` if not) and returns the address to record.
    ``state``, when given, is written to every child's stdin, which then
    stays open: the child exits when it closes.  On any startup failure the
    already-spawned children are torn down.
    """
    if count < 1:
        raise WorkerUnavailableError(f"process count must be >= 1, got {count}")
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
            cluster.addresses.append(probe(*_await_ready(process, marker)))
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
) -> LocalWorkerCluster:
    """Spawn ``count`` ``stgq worker`` subprocesses serving the same seeded dataset.

    Each worker binds an ephemeral 127.0.0.1 port (``--listen 127.0.0.1:0``)
    and is pinged before this returns, so the fleet is ready for any number
    of gateways' :class:`~repro.service.net.RemoteBackend` immediately.  On
    any startup failure the already-spawned workers are torn down.
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
    ]
    if workers is not None:
        command += ["--workers", str(workers)]
    return _launch(command, count, READY_MARKER, _ping)


def start_service_workers(count: int, state: bytes) -> LocalWorkerCluster:
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
    return _launch(command, count, READY_MARKER, _ping, state)
