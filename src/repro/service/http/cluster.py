"""Local multi-gateway launcher: N ``stgq http`` subprocesses, one fleet.

The HTTP tier is stateless, so scaling it is "run more of them": this
module spawns ``count`` gateway subprocesses (``python -m repro http
--listen 127.0.0.1:0 --backend remote --connect ...``) through the same
spawn path as the workers (:func:`repro.service.net.cluster._launch`),
with the ``STGQ-HTTP-READY host port`` announcement as the readiness
marker and a ``GET /health`` probe as the liveness check.  It is the
launcher the CI ``http-smoke`` job and ``benchmarks/bench_service.py
--http-spawn`` use to stand up the 2-gateways-over-2-workers topology.
"""

from __future__ import annotations

import json
import os
import sys
import urllib.error
import urllib.request
from typing import Optional, Sequence

from ...exceptions import WorkerUnavailableError
from ..net.cluster import LocalWorkerCluster, _launch
from .app import READY_MARKER

__all__ = ["start_local_gateways"]


def _probe_health(host: str, port: str) -> str:
    """GET /health on a spawned gateway; returns its base URL.

    Any well-formed JSON answer means the gateway is alive.  A 503 at boot
    (e.g. a degraded fleet) is still a *live gateway* — the caller asked
    whether the process serves HTTP, not whether the fleet behind it is
    whole.
    """
    url = f"http://{host}:{port}"
    try:
        with urllib.request.urlopen(f"{url}/health", timeout=10.0) as reply:
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
    return url


def start_local_gateways(
    count: int,
    connect: str,
    people: int = 194,
    days: int = 1,
    seed: int = 42,
    max_concurrency: int = 8,
    max_queue: int = 16,
    extra_args: Optional[Sequence[str]] = None,
) -> LocalWorkerCluster:
    """Spawn ``count`` HTTP gateway subprocesses in front of the fleet at ``connect``.

    Every gateway runs ``--backend remote`` against those workers (the
    multi-gateway production shape) and writes its access log to the null
    device.  The returned handle's ``addresses`` are the gateways' base
    URLs; each was health-probed before this returns, and any startup
    failure tears down the ones already spawned.
    """
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
        "remote",
        "--connect",
        connect,
        "--max-concurrency",
        str(max_concurrency),
        "--max-queue",
        str(max_queue),
        "--access-log",
        os.devnull,
    ]
    if extra_args:
        command += list(extra_args)
    return _launch(command, count, READY_MARKER, _probe_health)
