"""Drained-shutdown regression tests: the PR 8 SIGTERM contract.

One contract, three servers: **stop accepting, answer what you accepted,
exit 0.**  This module covers the shared primitives
(:class:`ShutdownSignal`, :func:`wait_for_drain`), the JSONL loop (lines
already pulled off stdin get answers before exit) and the asyncio worker
(an in-flight batch frame's reply is written before connections close).
The HTTP gateway's drain is covered in ``test_http.py``.
"""

import asyncio
import io
import json
import os
import signal
import threading
import time

import pytest

from repro.core import SGQuery
from repro.service import QueryService, ShutdownSignal, serve_jsonl, wait_for_drain
from repro.service.codec import request_for
from repro.service.jsonl import _RequestReader
from repro.service.net.protocol import recv_frame, send_frame

from ..conftest import make_random_calendars, make_random_graph
from .test_net import WorkerHarness, _client_socket


@pytest.fixture(scope="module")
def dataset():
    graph = make_random_graph(7, n=14, edge_prob=0.4)
    calendars = make_random_calendars(11, list(graph), horizon=12, availability=0.6)

    class _Dataset:
        pass

    bundle = _Dataset()
    bundle.graph = graph
    bundle.calendars = calendars
    return bundle


# ----------------------------------------------------------------------
# primitives
# ----------------------------------------------------------------------
class TestShutdownSignal:
    def test_real_signal_sets_triggered_without_raising(self):
        stop = ShutdownSignal()
        previous = signal.getsignal(signal.SIGTERM)
        with stop:
            assert not stop.triggered
            signal.raise_signal(signal.SIGTERM)
            assert stop.triggered
            assert stop.signum == signal.SIGTERM
        # uninstall restored whatever was there before
        assert signal.getsignal(signal.SIGTERM) is previous

    def test_trigger_and_wait(self):
        stop = ShutdownSignal()
        assert not stop.wait(timeout=0.01)
        stop.trigger()
        assert stop.wait(timeout=0.01)
        assert stop.triggered

    def test_exit_code_is_zero_for_drained_shutdown(self):
        stop = ShutdownSignal()
        assert stop.exit_code() == 0
        stop.trigger()
        assert stop.exit_code() == 0

    def test_uninstall_idempotent(self):
        stop = ShutdownSignal().install()
        stop.uninstall()
        stop.uninstall()


class TestWaitForDrain:
    def test_already_drained(self):
        assert wait_for_drain(lambda: 0, timeout=0.1)

    def test_drains_while_waiting(self):
        count = [3]

        def probe():
            count[0] -= 1
            return count[0]

        assert wait_for_drain(probe, timeout=5.0, poll=0.001)

    def test_timeout_reports_failure(self):
        start = time.monotonic()
        assert not wait_for_drain(lambda: 1, timeout=0.1, poll=0.01)
        assert time.monotonic() - start < 2.0


# ----------------------------------------------------------------------
# JSONL loop
# ----------------------------------------------------------------------
def _request_line(i, initiator=0):
    return (
        json.dumps({"id": i, "initiator": initiator, "group_size": 3, "radius": 2, "k": 1})
        + "\n"
    )


class TestJsonlDrain:
    def test_reader_drain_returns_accepted_lines(self):
        read_fd, write_fd = os.pipe()
        writer = os.fdopen(write_fd, "w")
        stream = os.fdopen(read_fd, "r")
        try:
            reader = _RequestReader(stream)
            writer.write(_request_line(1) + _request_line(2) + _request_line(3))
            writer.flush()
            deadline = time.monotonic() + 5
            while reader._queue.qsize() < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            drained = reader.drain()
            assert [entry.request_id for entry in drained] == [1, 2, 3]
            assert reader.drain() == []  # nothing accepted twice
        finally:
            # Close the write end first: EOF releases the reader thread's
            # blocking readline (closing the read end under it would
            # deadlock on the stream's buffer lock).
            writer.close()
            reader._thread.join(5)
            stream.close()

    def test_sigterm_ends_loop_with_all_accepted_lines_answered(self, dataset):
        """The pipe never reaches EOF; only the stop signal ends the loop."""
        read_fd, write_fd = os.pipe()
        writer = os.fdopen(write_fd, "w")
        stream = os.fdopen(read_fd, "r")
        output = io.StringIO()
        stop = ShutdownSignal()  # not installed: the test triggers it
        served = []
        with QueryService(dataset.graph, dataset.calendars) as service:
            thread = threading.Thread(
                target=lambda: served.append(
                    serve_jsonl(service, stream, output, batch_size=4, stop=stop)
                )
            )
            thread.start()
            try:
                for i in range(5):
                    writer.write(_request_line(i))
                writer.flush()
                deadline = time.monotonic() + 10
                while output.getvalue().count("\n") < 5 and time.monotonic() < deadline:
                    time.sleep(0.01)
                stop.trigger()
                thread.join(10)
                assert not thread.is_alive(), "stop signal did not end the loop"
            finally:
                stop.trigger()
                writer.close()
                thread.join(10)
                stream.close()
        assert served == [5]
        responses = [json.loads(line) for line in output.getvalue().splitlines()]
        assert [r["id"] for r in responses] == [0, 1, 2, 3, 4]
        assert all("error" not in r for r in responses)


# ----------------------------------------------------------------------
# asyncio worker
# ----------------------------------------------------------------------
class _SlowAsyncService:
    """Wraps a QueryService; answer_async blocks until released."""

    def __init__(self, service):
        self._service = service
        self.entered = threading.Event()
        self.release = asyncio.Event()  # bound to the worker's loop via harness

    def __getattr__(self, name):
        return getattr(self._service, name)

    async def answer_async(self, payloads, context=None):
        self.entered.set()
        await self.release.wait()
        return await self._service.answer_async(payloads, context)


class TestWorkerDrain:
    def test_aclose_waits_for_in_flight_batch_and_answers_it(self, dataset):
        harness = WorkerHarness(dataset)
        slow = _SlowAsyncService(harness.service)
        harness.server.service = slow
        harness._thread.start()
        assert harness._started.wait(10)
        sock = _client_socket(harness.address, timeout=15.0)
        try:
            query = SGQuery(initiator=0, group_size=3, radius=2, acquaintance=1)
            send_frame(
                sock, {"type": "batch", "id": 1, "requests": [request_for(query)]}
            )
            assert slow.entered.wait(10), "batch never reached the service"
            closing = asyncio.run_coroutine_threadsafe(
                harness.server.aclose(), harness.loop
            )
            time.sleep(0.2)
            assert not closing.done(), "aclose returned with a frame in flight"
            harness.loop.call_soon_threadsafe(slow.release.set)
            closing.result(10)
            # The accepted frame was answered before the connection closed.
            reply = recv_frame(sock)
            assert reply["type"] == "batch_result"
            assert reply["id"] == 1
            assert "error" not in reply["results"][0]
        finally:
            sock.close()
            harness.loop.call_soon_threadsafe(harness.loop.stop)
            harness._thread.join(10)
            harness.service.close()

    def test_aclose_idempotent_when_idle(self, dataset):
        harness = WorkerHarness(dataset).start()
        try:
            asyncio.run_coroutine_threadsafe(harness.server.aclose(), harness.loop).result(10)
            asyncio.run_coroutine_threadsafe(harness.server.aclose(), harness.loop).result(10)
        finally:
            harness.loop.call_soon_threadsafe(harness.loop.stop)
            harness._thread.join(10)
            harness.service.close()
