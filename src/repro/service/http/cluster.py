"""Local multi-gateway launcher: N ``stgq http`` subprocesses, one fleet.

The HTTP tier is stateless, so scaling it is "run more of them": this
module spawns ``count`` gateway subprocesses (``python -m repro http
--listen 127.0.0.1:0 ...``), reads each one's ``STGQ-HTTP-READY host
port`` announcement to learn the ephemeral ports, and confirms liveness
with a ``GET /health`` probe — the HTTP twin of
:func:`repro.service.net.cluster.start_local_workers`, and the launcher the
CI ``http-smoke`` job and ``benchmarks/bench_service.py --http-spawn`` use
to stand up the 2-gateways-over-2-workers topology.
"""

from __future__ import annotations

import json
import subprocess
import sys
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ...exceptions import WorkerUnavailableError
from ..net.cluster import _await_ready, _repro_env, _stop_processes
from .app import READY_MARKER

__all__ = ["LocalGatewayCluster", "start_local_gateways"]


@dataclass
class LocalGatewayCluster:
    """Handle on a set of locally spawned HTTP gateway subprocesses."""

    processes: List[subprocess.Popen] = field(default_factory=list)
    urls: List[str] = field(default_factory=list)

    def close(self, timeout: float = 30.0) -> None:
        """SIGTERM every gateway (they drain in-flight requests), then reap."""
        _stop_processes(self.processes, timeout)
        self.processes = []
        self.urls = []

    def __enter__(self) -> "LocalGatewayCluster":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()


def _probe_health(url: str, timeout: float = 10.0) -> None:
    """GET /health; any well-formed JSON answer means the gateway is alive.

    A 503 at boot (e.g. a degraded fleet) is still a *live gateway* — the
    caller asked whether the process serves HTTP, not whether the fleet
    behind it is whole.
    """
    try:
        with urllib.request.urlopen(f"{url}/health", timeout=timeout) as reply:
            json.loads(reply.read())
    except urllib.error.HTTPError as exc:
        try:
            json.loads(exc.read())
        except ValueError:
            raise WorkerUnavailableError(
                f"gateway {url} answered /health with non-JSON (status {exc.code})"
            ) from exc
    except (urllib.error.URLError, OSError, ValueError) as exc:
        raise WorkerUnavailableError(f"cannot reach spawned gateway {url}: {exc}") from exc


def start_local_gateways(
    count: int,
    connect: Optional[str] = None,
    people: int = 194,
    days: int = 1,
    seed: int = 42,
    backend: str = "serial",
    max_concurrency: int = 8,
    max_queue: int = 16,
    cache_size: int = 128,
    kernel: str = "compiled",
    startup_timeout: float = 120.0,
    extra_args: Optional[Sequence[str]] = None,
) -> LocalGatewayCluster:
    """Spawn ``count`` HTTP gateway subprocesses over one shared topology.

    With ``connect`` the gateways run ``--backend remote`` against that
    worker fleet (the multi-gateway production shape); without it each
    gateway answers from its own local ``backend``.  Every gateway is
    health-probed before this returns; any startup failure tears down the
    ones already spawned.
    """
    if count < 1:
        raise WorkerUnavailableError(f"gateway count must be >= 1, got {count}")
    command = [
        sys.executable,
        "-m",
        "repro",
        "http",
        "--listen",
        "127.0.0.1:0",
        "--people",
        str(people),
        "--days",
        str(days),
        "--seed",
        str(seed),
        "--backend",
        "remote" if connect else backend,
        "--cache-size",
        str(cache_size),
        "--kernel",
        kernel,
        "--max-concurrency",
        str(max_concurrency),
        "--max-queue",
        str(max_queue),
    ]
    if connect:
        command += ["--connect", connect]
    if extra_args:
        command += list(extra_args)
    cluster = LocalGatewayCluster()
    env = _repro_env()
    try:
        for _ in range(count):
            cluster.processes.append(
                subprocess.Popen(
                    command,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL,  # the JSONL access log
                    env=env,
                    text=True,
                    bufsize=1,  # line buffered: the READY line arrives promptly
                )
            )
        for process in cluster.processes:
            host, port = _await_ready(process, READY_MARKER, startup_timeout, "gateway")
            url = f"http://{host}:{port}"
            _probe_health(url)
            cluster.urls.append(url)
    except BaseException:
        cluster.close()
        raise
    return cluster
