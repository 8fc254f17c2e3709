"""Span tracer installed into the serving processes of a traced run.

The traced run starts the very same ``python -m repro ...`` commands as the
untraced run, but with ``perfbench/hook`` first on ``PYTHONPATH``: its
``sitecustomize`` calls :func:`install`, which wraps the public functions
named in :data:`TARGETS` before the CLI runs.  Every Python process of the
fleet (gateway, workers, the JSONL server and its process-pool children)
therefore records spans from the outside, without any change to the program.

Spans are closed on a per-thread stack.  When a span closes, its duration is
charged to its parent, so each span's *self time* is its duration minus the
part covered by the child spans it caused.  Spans are folded into per-name
totals as they close (hot layers such as ``CalendarStore.get`` close millions
of spans, too many to keep one record each) and the totals are written once,
as JSON, when the process exits.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

#: Environment variable naming the directory trace files are written to.
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


class Tracer:
    """Per-name span totals (count, duration, self time) plus counters."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: List[Dict[str, List[int]]] = []
        self._counters: Dict[str, float] = {}

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            table: Dict[str, List[int]] = {}
            with self._lock:
                self._tables.append(table)
            state = self._local.state = ([], table)
        return state

    def begin(self, name: str) -> list:
        frame = [name, self._clock(), 0]
        self._state()[0].append(frame)
        return frame

    def end(self, frame: list) -> None:
        now = self._clock()
        stack, table = self._state()
        while stack and stack[-1] is not frame:  # a child that raised past its end
            stack.pop()
        if stack:
            stack.pop()
        duration = now - frame[1]
        if stack:
            stack[-1][2] += duration
        totals = table.get(frame[0])
        if totals is None:
            totals = table[frame[0]] = [0, 0, 0]
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - frame[2]

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + amount

    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        """Return ``fn`` recording one ``name`` span per call."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(frame)
            if on_result is not None:
                on_result(self, result)
            return result

        traced.__perfbench_original__ = fn  # type: ignore[attr-defined]
        return traced

    def snapshot(self) -> Dict[str, Any]:
        """Totals in milliseconds: ``{"spans": {name: {...}}, "counters": {...}}``."""
        spans: Dict[str, List[int]] = {}
        with self._lock:
            tables = list(self._tables)
            counters = dict(self._counters)
        for table in tables:
            for name, (count, total, self_ns) in list(table.items()):
                merged = spans.setdefault(name, [0, 0, 0])
                merged[0] += count
                merged[1] += total
                merged[2] += self_ns
        return {
            "spans": {
                name: {"count": c, "total_ms": t / 1e6, "self_ms": s / 1e6}
                for name, (c, t, s) in spans.items()
            },
            "counters": counters,
        }

    def reset(self) -> None:
        with self._lock:
            self._tables = []
            self._counters = {}
        self._local = threading.local()


def _extraction_counters(tracer: Tracer, result: Any) -> None:
    tracer.count("extraction.vertices", len(result[0]))


def _frame_bytes(tracer: Tracer, result: Any) -> None:
    tracer.count("net.frame_bytes", len(result))


#: (module, attribute path, span name, result hook).  Names group the
#: functions into the layers the benchmark reports.
TARGETS = [
    ("repro.graph.extraction", "extract_query_forms", "extraction", _extraction_counters),
    ("repro.core.sgselect", "SGSelect.solve", "search", None),
    ("repro.core.stgselect", "STGSelect.solve", "search", None),
    ("repro.temporal.calendars", "CalendarStore.get", "temporal.get", None),
    ("repro.temporal.calendars", "LazyCalendarStore.get", "temporal.get", None),
    ("repro.datasets.scale", "_person_schedule", "temporal.materialise", None),
    ("repro.service.placement", "PlacementMap.partition", "placement.partition", None),
    ("repro.service.sharding", "ShardMap.partition", "placement.partition", None),
    ("repro.service.codec", "query_from_request", "codec.decode", None),
    ("repro.service.codec", "decode_result", "codec.decode", None),
    ("repro.service.codec", "response_for", "codec.encode", None),
    ("repro.service.codec", "encode_result", "codec.encode", None),
    ("repro.service.codec", "request_for", "codec.encode", None),
    ("repro.service.net.protocol", "encode_frame", "codec.encode", _frame_bytes),
    ("repro.service.net.protocol", "_decode_body", "codec.decode", None),
    ("repro.service.net.remote", "_WorkerLink.request", "net.rtt", None),
    ("repro.service.net.remote", "RemoteBackend.solve_batch", "backends.remote", None),
    ("repro.service.backends", "ProcessBackend.solve_batch", "backends.process", None),
    ("repro.service.query_service", "QueryService.solve_many", "service.solve_many", None),
    ("repro.service.query_service", "QueryService._lookup", "cache.lookup", None),
    ("repro.service.query_service", "QueryService.apply_mutations", "mutations.apply", None),
]

#: The one tracer of this process (created by :func:`install`).
TRACER: Optional[Tracer] = None


def _patch(tracer: Tracer, module_name: str, path: str, name: str, hook) -> None:
    module = importlib.import_module(module_name)
    owner: Any = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    original = owner.__dict__[parts[-1]] if isinstance(owner, type) else getattr(owner, parts[-1])
    traced = tracer.wrap(name, original, hook)
    setattr(owner, parts[-1], traced)
    if owner is module:
        # Functions imported by name elsewhere (``from .codec import ...``)
        # are rebound in every loaded repro module that holds them.
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("repro") and other is not module:
                if getattr(other, parts[-1], None) is original:
                    setattr(other, parts[-1], traced)


def dump(directory: str) -> Optional[str]:
    """Write this process's totals to ``directory/trace-<pid>.json``."""
    if TRACER is None:
        return None
    path = os.path.join(directory, f"trace-{os.getpid()}.json")
    payload = {"pid": os.getpid(), "ppid": os.getppid(), **TRACER.snapshot()}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return path


def _arm_exit_dump(directory: str) -> None:
    """Dump at interpreter exit and at multiprocessing-child exit."""
    import multiprocessing.util as mp_util

    done = {"pid": None}

    def _once() -> None:
        if done["pid"] != os.getpid():
            done["pid"] = os.getpid()
            dump(directory)

    atexit.register(_once)
    # Pool children leave through os._exit, which skips atexit but runs the
    # multiprocessing finalizers of the process that registered them.
    mp_util.Finalize(None, _once, exitpriority=100)

    def _after_fork(_: object) -> None:
        TRACER.reset()  # type: ignore[union-attr]
        mp_util.Finalize(None, _once, exitpriority=100)

    mp_util.register_after_fork(_arm_exit_dump, _after_fork)


def install(directory: Optional[str] = None) -> Tracer:
    """Wrap every target and arrange for the totals to be dumped at exit."""
    global TRACER
    if TRACER is not None:
        return TRACER
    directory = directory or os.environ[TRACE_DIR_ENV]
    importlib.import_module("repro.cli")
    importlib.import_module("repro.service.http")
    tracer = TRACER = Tracer()
    for module_name, path, name, hook in TARGETS:
        _patch(tracer, module_name, path, name, hook)
    _arm_exit_dump(directory)
    return tracer
