"""Seeded load generator: one process, at most ``CLIENTS`` connections.

Two phases drive every workload:

* **open loop** — requests are due at Poisson arrival times drawn from the
  seed, whatever the system does; each latency is timed from the request's
  *intended* send time, so a stall also charges the requests it delays.
  ``lag`` records how late the generator itself sent a request once it had a
  free connection (the run's validity signal).
* **closed loop** — ``CLIENTS`` clients each send their next request when
  the previous answer arrives, until a fixed list of requests is answered;
  answers per second is the capacity.

Requests are single queries, the way a client sends them.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

#: Client connections (HTTP) or requests in flight (closed-loop JSONL): the
#: two CPUs of the reference machine.
CLIENTS = 2
REQUEST_TIMEOUT = 60.0


@dataclass
class Sample:
    """One request: its payload, its times and what came back."""

    payload: Dict[str, Any]
    intended: float = 0.0
    sent: float = 0.0
    received: float = 0.0
    lag: float = 0.0
    status: int = 0
    body: Any = None
    error: Optional[str] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def answered(self) -> bool:
        return self.error is None and self.status == 200 and "error" not in self.body

    @property
    def latency(self) -> float:
        return self.received - self.intended


def poisson_schedule(rate: float, duration: float, seed: Any) -> List[float]:
    """Arrival offsets (seconds) of a Poisson process of ``rate`` per second.

    The process is conditioned on its expected count, ``round(rate *
    duration)`` arrivals: given their number, Poisson arrivals are
    independent uniform times over the window.  Every seed then sends the
    same number of requests, so a run's fixed request list fits its
    schedule exactly.
    """
    rng = random.Random(f"schedule-{seed}")
    return sorted(rng.uniform(0.0, duration) for _ in range(round(rate * duration)))


# ----------------------------------------------------------------------
# HTTP front door
# ----------------------------------------------------------------------
class _HttpClient:
    def __init__(self, address: str) -> None:
        host, port = address.rsplit(":", 1)
        self._target = (host, int(port))
        self._conn: Optional[http.client.HTTPConnection] = None

    def send(self, sample: Sample) -> None:
        body = json.dumps(sample.payload).encode()
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(*self._target, timeout=REQUEST_TIMEOUT)
            self._conn.request(
                "POST", "/v1/queries", body=body, headers={"Content-Type": "application/json"}
            )
            reply = self._conn.getresponse()
            data = reply.read()
            sample.received = time.perf_counter()
            sample.status = reply.status
            sample.body = json.loads(data)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            sample.received = time.perf_counter()
            sample.error = f"{type(exc).__name__}: {exc}"
            self.close()

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def _run_threads(target: Callable[[], None], count: int) -> None:
    threads = [threading.Thread(target=target, daemon=True) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def http_open_loop(address: str, samples: Sequence[Sample], schedule: Sequence[float]) -> None:
    """Send ``samples[i]`` at ``start + schedule[i]`` over ``CLIENTS`` connections."""
    order = itertools.count()
    lock = threading.Lock()
    start = time.perf_counter() + 0.05
    for sample, offset in zip(samples, schedule):
        sample.intended = start + offset

    def client() -> None:
        connection = _HttpClient(address)
        free_at = start
        while True:
            with lock:
                index = next(order)
            if index >= len(samples):
                break
            sample = samples[index]
            wait = sample.intended - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sample.sent = time.perf_counter()
            sample.lag = sample.sent - max(sample.intended, free_at)
            connection.send(sample)
            free_at = sample.received
        connection.close()

    _run_threads(client, CLIENTS)


def http_closed_loop(address: str, samples: Sequence[Sample], limit: float) -> List[Sample]:
    """``CLIENTS`` back-to-back clients through ``samples``, for at most ``limit``
    seconds; returns the samples sent."""
    order = itertools.count()
    lock = threading.Lock()
    deadline = time.perf_counter() + limit

    def client() -> None:
        connection = _HttpClient(address)
        while time.perf_counter() < deadline:
            with lock:
                index = next(order)
            if index >= len(samples):
                break
            sample = samples[index]
            sample.intended = sample.sent = time.perf_counter()
            connection.send(sample)
        connection.close()

    _run_threads(client, CLIENTS)
    return [s for s in samples if s.sent]


# ----------------------------------------------------------------------
# JSONL front door (one pipe; responses come back in request order)
# ----------------------------------------------------------------------
class JsonlClient:
    """Writes request lines to a ``stgq serve --jsonl`` process, reads replies."""

    def __init__(self, process) -> None:
        self._process = process
        self._pending: Dict[Any, Sample] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._on_reply: Optional[Callable[[Sample], None]] = None
        self._outstanding = 0
        self._idle = threading.Condition(self._lock)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in iter(self._process.stdout.readline, ""):
            received = time.perf_counter()
            try:
                body = json.loads(line)
            except ValueError:
                continue
            with self._lock:
                sample = self._pending.pop(body.get("id"), None)
            if sample is None:
                continue
            sample.received = received
            sample.status = 200
            sample.body = body
            callback = self._on_reply
            if callback is not None:
                callback(sample)
            with self._lock:
                self._outstanding -= 1
                self._idle.notify_all()

    def send(self, sample: Sample) -> None:
        request_id = next(self._ids)
        sample.payload = dict(sample.payload, id=request_id)
        with self._lock:
            self._pending[request_id] = sample
            self._outstanding += 1
        sample.sent = time.perf_counter()
        self._process.stdin.write(json.dumps(sample.payload) + "\n")
        self._process.stdin.flush()

    def wait_idle(self, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        with self._lock:
            while self._outstanding:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._idle.wait(remaining)
            stalled = list(self._pending.values())
            if stalled:
                for sample in stalled:
                    sample.error = "no reply before the timeout"
                    sample.received = time.perf_counter()
                self._pending.clear()
                self._outstanding = 0
            return not stalled

    def open_loop(self, samples: Sequence[Sample], schedule: Sequence[float]) -> None:
        start = time.perf_counter() + 0.05
        for sample, offset in zip(samples, schedule):
            sample.intended = start + offset
            wait = sample.intended - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            self.send(sample)
            sample.lag = sample.sent - sample.intended
        self.wait_idle(REQUEST_TIMEOUT)

    def closed_loop(self, samples: Sequence[Sample], limit: float) -> List[Sample]:
        done: List[Sample] = []
        slots = threading.Semaphore(CLIENTS)
        self._on_reply = lambda _sample: slots.release()
        deadline = time.perf_counter() + limit
        try:
            for sample in samples:
                slots.acquire()
                if time.perf_counter() >= deadline:
                    break
                sample.intended = time.perf_counter()
                done.append(sample)
                self.send(sample)
            self.wait_idle(REQUEST_TIMEOUT)
        finally:
            self._on_reply = None
        return done
