"""Serving processes under test: launch, readiness, resource sampling, teardown.

The benchmark starts the shipped ``stgq`` commands as subprocesses with
their default settings and reads their resource use from ``/proc``.  With
``trace_dir`` set, the same commands start with ``perfbench/hook`` first on
``PYTHONPATH`` (see ``tracing.py``).
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
STARTUP_TIMEOUT = 60.0


def child_env(src: str, trace_dir: Optional[str]) -> Dict[str, str]:
    env = dict(os.environ)
    paths = [src]
    if trace_dir is not None:
        paths.insert(0, os.path.join(HERE, "hook"))
        env["PERFBENCH_TRACE_DIR"] = trace_dir
    else:
        env.pop("PERFBENCH_TRACE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _ready_line(process: subprocess.Popen, marker: str, timeout: float) -> List[str]:
    """Block until the process prints ``marker host port``; returns the tokens."""
    found: "queue.Queue[Optional[List[str]]]" = queue.Queue()

    def pump() -> None:
        for line in iter(process.stdout.readline, ""):
            parts = line.split()
            if len(parts) == 3 and parts[0] == marker:
                found.put(parts)
                return
        found.put(None)

    threading.Thread(target=pump, daemon=True).start()
    try:
        parts = found.get(timeout=timeout)
    except queue.Empty:
        parts = None
    if parts is None:
        raise RuntimeError(f"{marker} not announced (exit code {process.poll()})")
    return parts


class Fleet:
    """The serving processes of one deployment, torn down together."""

    def __init__(self, src: str, trace_dir: Optional[str] = None) -> None:
        self.env = child_env(src, trace_dir)
        self.processes: List[subprocess.Popen] = []
        self.roles: List[str] = []
        self.client = None
        self.url: Optional[str] = None
        self.worker_addresses: List[str] = []
        self.jsonl: Optional[subprocess.Popen] = None

    def _spawn(self, role: str, argv: Sequence[str], **kwargs) -> subprocess.Popen:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv], env=self.env, text=True, **kwargs
        )
        self.processes.append(process)
        self.roles.append(role)
        return process

    def start_workers(self, count: int) -> str:
        spawned = [
            self._spawn(
                "worker",
                ["worker", "--listen", "127.0.0.1:0"],
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                bufsize=1,
            )
            for _ in range(count)
        ]
        for process in spawned:
            _, host, port = _ready_line(process, "STGQ-WORKER-READY", STARTUP_TIMEOUT)
            self.worker_addresses.append(f"{host}:{port}")
        return ",".join(self.worker_addresses)

    def start_gateway(self, connect: str, access_log: Optional[str] = None) -> str:
        argv = ["http", "--listen", "127.0.0.1:0", "--backend", "remote", "--connect", connect]
        if access_log is not None:
            argv += ["--access-log", access_log]
        process = self._spawn(
            "gateway", argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, bufsize=1
        )
        _, host, port = _ready_line(process, "STGQ-HTTP-READY", STARTUP_TIMEOUT)
        self.url = f"{host}:{port}"
        return self.url

    def start_jsonl(self, argv: Sequence[str]) -> subprocess.Popen:
        self.jsonl = self._spawn(
            "serve",
            ["serve", "--jsonl", *argv],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            bufsize=1,
        )
        return self.jsonl

    def pids(self) -> List[int]:
        """Every live serving process, process-pool children included."""
        return sorted(descendants([p.pid for p in self.processes if p.poll() is None]))

    def close(self, timeout: float = 30.0) -> None:
        """Stop every process (drained SIGTERM / stdin EOF) and wait for all."""
        tree = descendants([p.pid for p in self.processes if p.poll() is None])
        for process in self.processes:
            if process is self.jsonl and process.stdin is not None:
                try:
                    process.stdin.close()
                except OSError:
                    pass
            elif process.poll() is None:
                process.terminate()
        deadline = time.monotonic() + timeout
        for process in self.processes:
            try:
                process.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            if process.stdout is not None:
                process.stdout.close()
        # Grandchildren (process pools, the forkserver) leave with their
        # parent; wait for them too, and kill any that linger.
        own = {p.pid for p in self.processes}
        for pid in tree - own:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            if _alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        self.processes = []
        self.roles = []


# ----------------------------------------------------------------------
# /proc sampling
# ----------------------------------------------------------------------
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            text = handle.read()
    except OSError:
        return None
    # The command name may contain spaces; fields resume after its ')'.
    return text[text.rindex(")") + 2 :].split()


def _alive(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def descendants(roots: Sequence[int]) -> set:
    """``roots`` plus every live process below them."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None and fields[0] != "Z":
                parents[int(entry)] = int(fields[1])
    found = {pid for pid in roots if pid in parents}
    grew = True
    while grew:
        grew = False
        for pid, parent in parents.items():
            if parent in found and pid not in found:
                found.add(pid)
                grew = True
    return found


def cpu_seconds(pids: Sequence[int]) -> float:
    """User plus system CPU seconds consumed so far by ``pids``."""
    ticks = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            ticks += int(fields[11]) + int(fields[12])
    return ticks / CLOCK_TICKS


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Largest ``VmHWM`` (peak resident set) among ``pids``, in MiB."""
    peak = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
        except OSError:
            continue
    return peak / 1024.0


# ----------------------------------------------------------------------
# HTTP helpers
# ----------------------------------------------------------------------
def http_json(address: str, method: str, path: str, payload=None, timeout: float = 120.0):
    """One HTTP request on a fresh connection; returns (status, decoded body)."""
    host, port = address.rsplit(":", 1)
    connection = http.client.HTTPConnection(host, int(port), timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        reply = connection.getresponse()
        return reply.status, json.loads(reply.read())
    finally:
        connection.close()
