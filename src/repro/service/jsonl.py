"""JSONL request loop: the stdin/stdout wire protocol of ``stgq serve --jsonl``.

One request per line, one response per line, responses in request order.
The request/response payloads are shared with the socket path and documented
in :mod:`repro.service.codec` (``query_from_request`` / ``response_for`` are
re-exported here for backward compatibility).

Malformed lines, oversized lines (> ``codec.MAX_REQUEST_BYTES``), requests
that :meth:`~repro.service.QueryService.parse_request` rejects (bad fields,
an initiator not in the graph, ...) and a failed solve produce
``{"id": ..., "error": "..."}`` in place of a result, per line; the loop
keeps serving.  ``total_distance`` is ``null`` for infeasible results
(JSON has no ``Infinity``).  A request carrying ``"stats": true`` receives
its solve's kernel statistics in a ``stats`` response field (per-request
opt-in; see :mod:`repro.service.codec`).

The loop is pipelined: requests are read in batches and each batch is
answered through :meth:`~repro.service.QueryService.answer_async` while the
next batch is being read and the previous batch's responses are being written.
Batches fill only while input is immediately available, and pending
responses are flushed before the loop blocks for more input — so both
firehose pipelining clients and strict request/response clients are served
without deadlock.
"""

from __future__ import annotations

import asyncio
import json
import queue
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, TextIO, Union

from ..exceptions import QueryError
from .codec import MAX_REQUEST_BYTES, ErrorResult, query_from_request, response_for, wants_stats
from .drain import ShutdownSignal
from .query_service import QueryService, Result

__all__ = ["serve_jsonl", "query_from_request", "response_for"]


@dataclass
class _Entry:
    """One request line: either a decoded JSON payload or a framing error."""

    request_id: Any
    payload: Any = None
    error: Optional[str] = None


def _parse_line(line: str) -> Optional[_Entry]:
    text = line.strip()
    if not text:
        return None
    if len(text) > MAX_REQUEST_BYTES or len(text.encode("utf-8")) > MAX_REQUEST_BYTES:
        # Refuse to json-parse a runaway line (a well-formed request is a
        # couple hundred bytes); answer with an error instead of ballooning.
        return _Entry(
            request_id=None,
            error=f"request line exceeds {MAX_REQUEST_BYTES} bytes",
        )
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return _Entry(request_id=None, error=f"invalid JSON: {exc}")
    request_id = payload.get("id") if isinstance(payload, dict) else None
    return _Entry(request_id=request_id, payload=payload)


class _RequestReader:
    """Pull request lines off ``stream`` on a daemon thread, into a queue.

    The serve loop must know whether more input is *immediately* available:
    it batches aggressively while a pipelining client keeps sending, but has
    to flush pending responses before blocking when a request/response
    client stops to wait for answers.  Polling the file descriptor is wrong
    twice over (``select`` cannot see lines already pulled into the text
    wrapper's buffer, and cannot poll pipes at all on some platforms), so
    instead a reader thread performs the blocking ``readline`` calls and the
    loop keys off the queue state, which works for any stream.
    """

    _EOF = object()

    def __init__(self, stream: TextIO) -> None:
        self._queue: "queue.Queue[Any]" = queue.Queue()
        self._exhausted = False
        self._thread = threading.Thread(
            target=self._pump, args=(stream,), name="stgq-jsonl-reader", daemon=True
        )
        self._thread.start()

    def _pump(self, stream: TextIO) -> None:
        while True:
            # Bound every read: an unbounded readline would buffer a whole
            # runaway line (gigabytes, no newline) into memory before the
            # size guard could ever reject it.
            line = stream.readline(MAX_REQUEST_BYTES + 1)
            if line == "":
                break
            if len(line) > MAX_REQUEST_BYTES and not line.endswith("\n"):
                self._queue.put(
                    _Entry(
                        request_id=None,
                        error=f"request line exceeds {MAX_REQUEST_BYTES} bytes",
                    )
                )
                while True:  # discard the rest of the line, bounded reads
                    chunk = stream.readline(MAX_REQUEST_BYTES)
                    if chunk == "" or chunk.endswith("\n"):
                        break
                continue
            entry = _parse_line(line)
            if entry is not None:
                self._queue.put(entry)
        self._queue.put(self._EOF)

    @property
    def ready(self) -> bool:
        """True when the next batch can start without blocking."""
        return not self._queue.empty()

    def next_batch(
        self, batch_size: int, timeout: Optional[float] = None
    ) -> Optional[List[_Entry]]:
        """Block for the next batch, or return ``None`` at EOF.

        Fills up to ``batch_size`` entries but only from what is already
        queued — a client that pauses to read answers gets a short batch
        instead of a stall.  With ``timeout`` the blocking wait is bounded
        and an empty list means "nothing yet" — the tick the serve loop
        uses to notice a shutdown signal between requests.
        """
        if self._exhausted:
            return None
        try:
            first = self._queue.get(timeout=timeout)
        except queue.Empty:
            return []
        if first is self._EOF:
            self._exhausted = True
            return None
        batch = [first]
        while len(batch) < batch_size:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is self._EOF:
                self._exhausted = True
                break
            batch.append(item)
        return batch

    def drain(self) -> List[_Entry]:
        """Everything already read off the stream, without blocking.

        The shutdown path: these lines were *accepted* (pulled off stdin by
        the reader thread, so the client cannot resend them), which obliges
        the loop to answer them before exiting.
        """
        drained: List[_Entry] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return drained
            if item is self._EOF:
                self._exhausted = True
                return drained
            drained.append(item)


def _answer(service: QueryService, entries: List[_Entry]) -> "asyncio.Future[List[Any]]":
    """Start answering one batch's decoded payloads (framing errors skipped)."""
    payloads = [entry.payload for entry in entries if entry.error is None]
    return asyncio.ensure_future(service.answer_async(payloads))


def _write_responses(
    entries: Sequence[_Entry],
    outcomes: Sequence[Union[Result, ErrorResult]],
    output_stream: TextIO,
) -> None:
    cursor = iter(outcomes)
    for entry in entries:
        if entry.error is not None:
            payload: Dict[str, Any] = {"id": entry.request_id, "error": entry.error}
        else:
            include_stats = wants_stats(entry.payload)
            payload = response_for(entry.request_id, next(cursor), include_stats=include_stats)
        output_stream.write(json.dumps(payload, separators=(",", ":")) + "\n")
    output_stream.flush()


async def _serve(
    service: QueryService,
    input_stream: TextIO,
    output_stream: TextIO,
    batch_size: int,
    stop: Optional[ShutdownSignal] = None,
) -> int:
    served = 0
    pending: Optional[tuple] = None
    reader = _RequestReader(input_stream)
    # With a stop signal the blocking read is bounded so the loop notices
    # SIGTERM between requests; without one it blocks forever (EOF-driven).
    poll = 0.1 if stop is not None else None

    async def flush(item: tuple) -> None:
        nonlocal served
        entries, task = item
        _write_responses(entries, await task, output_stream)
        served += len(entries)

    try:
        while True:
            if pending is not None and not reader.ready:
                # The client is waiting on answers, not sending: flush before
                # blocking for more input or neither side makes progress.
                item, pending = pending, None
                await flush(item)
            if stop is not None and stop.triggered:
                # Drained shutdown: the in-flight batch flushes below
                # (finally), but lines the reader thread already pulled off
                # stdin would vanish unanswered — solve and answer them too,
                # then exit 0.  Nothing accepted is dropped.
                leftovers = reader.drain()
                if leftovers:
                    task = _answer(service, leftovers)
                    if pending is not None:
                        item, pending = pending, None
                        await flush(item)
                    pending = (leftovers, task)
                break
            entries = reader.next_batch(batch_size, timeout=poll)
            if entries is None:
                break
            if not entries:
                continue  # timed-out tick: re-check the stop signal
            task = _answer(service, entries)
            # Give the task one loop tick so its batch is already running on
            # the executor while we write the previous responses and read
            # more input.
            await asyncio.sleep(0)
            if pending is not None:
                item, pending = pending, None
                await flush(item)
            pending = (entries, task)
        if pending is not None:
            item, pending = pending, None
            await flush(item)
    finally:
        if pending is not None:
            # Never orphan an in-flight batch (e.g. when a write failed):
            # its requests still get responses or at least a retrieved error.
            try:
                await flush(pending)
            except Exception:  # pragma: no cover - already failing
                pending[1].cancel()
    return served


def serve_jsonl(
    service: QueryService,
    input_stream: TextIO,
    output_stream: TextIO,
    batch_size: int = 64,
    stop: Optional[ShutdownSignal] = None,
) -> int:
    """Serve JSONL requests from ``input_stream`` until EOF.

    Returns the number of requests answered (including error responses).
    Responses preserve request order; solving one batch overlaps with
    reading the next, so a pipelining client keeps every backend worker
    busy without waiting for round trips.

    ``stop`` (a :class:`~repro.service.drain.ShutdownSignal`, installed by
    ``stgq serve --jsonl``) makes SIGTERM a *drained* shutdown: the loop
    stops reading, answers the in-flight batch **and** every line already
    read off the stream, then returns normally — instead of the old
    mid-batch ``SystemExit`` that dropped accepted requests.
    """
    if batch_size < 1:
        raise QueryError(f"batch_size must be >= 1, got {batch_size}")
    return asyncio.run(_serve(service, input_stream, output_stream, batch_size, stop=stop))
