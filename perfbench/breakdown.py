"""Per-layer metrics of a traced run, from spans and the program's own outputs.

Sources: the span totals every traced process wrote at exit (``tracing.py``),
the gateway's ``--access-log`` (``latency_ms`` of ``GatewayApp.handle``),
the per-request ``"stats": true`` search statistics carried by each
response, the writer's own timings, and the load generator's samples.

The layer breakdown charges each span's self time to its layer.  A gateway's
``net.rtt`` span and the process backend's dispatch span cover the whole
time a worker spends on the batch, so the workers' own span time is
subtracted from them: what is left is the wire (resp. the dispatch) alone.
Client time not covered by any layer is reported as unattributed.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from typing import Any, Dict, Iterable, List, Tuple

from stats import mean, percentile

#: name -> (unit, better); printed in this order.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "loadgen.lag_p95_ms": ("ms", "lower"),
    "http.transport_ms": ("ms", "lower"),
    "http.handle_ms": ("ms", "lower"),
    "codec.decode_ms": ("ms", "lower"),
    "codec.encode_ms": ("ms", "lower"),
    "placement.partition_ms": ("ms", "lower"),
    "placement.imbalance": ("ratio", "lower"),
    "net.rtt_ms": ("ms", "lower"),
    "net.wire_ms": ("ms", "lower"),
    "net.frame_bytes": ("bytes", "lower"),
    "backends.dispatch_ms": ("ms", "lower"),
    "cache.hit_rate": ("ratio", "higher"),
    "cache.build_ms": ("ms", "lower"),
    "cache.evictions": ("count", "lower"),
    "extraction.ms": ("ms", "lower"),
    "extraction.calls": ("count", "lower"),
    "extraction.vertices": ("count", "lower"),
    "temporal.get_ms": ("ms", "lower"),
    "temporal.materialised": ("count", "lower"),
    "temporal.pivots": ("count", "lower"),
    "search.solve_ms": ("ms", "lower"),
    "search.nodes": ("count", "lower"),
    "search.prune_ratio": ("ratio", "higher"),
    "mutations.apply_ms": ("ms", "lower"),
    "mutations.fanout_ms": ("ms", "lower"),
    "mutations.evictions_per_mutation": ("ratio", "lower"),
    "mutations.catchup": ("count", "lower"),
    "mutations.write_p50_ms": ("ms", "lower"),
    "mutations.write_p95_ms": ("ms", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
    "trace.unattributed_ms": ("ms", "lower"),
}

#: Feasible-graph cache entries per serving cache (``--cache-size`` default
#: 128, split evenly across a process backend's pool).
CACHE_ENTRIES = {"worker": 128, "child": 64}


class Spans:
    """Span totals merged per process role."""

    def __init__(self) -> None:
        self.spans: Dict[str, Dict[str, List[float]]] = {}
        self.processes: Dict[str, List[Dict[str, List[float]]]] = {}

    def add(self, role: str, spans: Dict[str, Dict[str, float]]) -> None:
        merged = self.spans.setdefault(role, {})
        own: Dict[str, List[float]] = {}
        for name, entry in spans.items():
            row = [entry["count"], entry["total_ms"], entry["self_ms"]]
            own[name] = row
            into = merged.setdefault(name, [0, 0.0, 0.0])
            for i, value in enumerate(row):
                into[i] += value
        self.processes.setdefault(role, []).append(own)

    def get(self, roles: Iterable[str], name: str, field: int) -> float:
        return sum(self.spans.get(role, {}).get(name, [0, 0.0, 0.0])[field] for role in roles)

    def count(self, roles, name):
        return self.get(roles, name, 0)

    def total(self, roles, name):
        return self.get(roles, name, 1)

    def self_ms(self, roles, name):
        return self.get(roles, name, 2)

    def self_by_name(self, roles: Iterable[str]) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for role in roles:
            for name, row in self.spans.get(role, {}).items():
                out[name] = out.get(name, 0.0) + row[2]
        return out


def load_spans(trace_dir: str, roles: Dict[int, str]) -> Spans:
    """Merge every ``trace-<pid>.json``; unknown pids are pool children."""
    spans = Spans()
    for path in sorted(glob.glob(os.path.join(trace_dir, "trace-*.json"))):
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        spans.add(roles.get(data["pid"], "child"), data["spans"])
    return spans


def _handle_latencies(access_log: str) -> List[float]:
    if not os.path.exists(access_log):
        return []
    latencies = []
    with open(access_log, encoding="utf-8") as handle:
        for line in handle:
            entry = json.loads(line)
            if entry.get("path") == "/v1/queries" and entry.get("status") == 200:
                latencies.append(float(entry["latency_ms"]))
    return latencies


def layer_breakdown(spans: Spans, front: str, back: str) -> Dict[str, float]:
    """Self time (ms, all processes) per layer on the read path.

    ``front`` is the process that owns the client request (gateway or JSONL
    server); ``back`` the processes that solve (workers or pool children).
    """
    by_name = spans.self_by_name([front, back])
    by_name.pop("mutations.apply", None)
    back_time = sum(
        row[2] for name, row in spans.spans.get(back, {}).items() if name != "mutations.apply"
    )
    outer = "net.rtt" if front == "gateway" else "backends.process"
    if outer in by_name:
        by_name[outer] -= back_time
    if "backends.remote" in by_name:
        # RemoteBackend sends each sub-batch from its own thread pool, so the
        # round trips are not child spans of solve_batch: subtract them here.
        by_name["backends.remote"] -= spans.total([front], "net.rtt")
    layers: Dict[str, float] = {}
    for name, value in by_name.items():
        layer = {
            "net.rtt": "net.wire",
            "backends.process": "backends.dispatch",
            "backends.remote": "backends.dispatch",
            "service.solve_many": "service",
            "cache.lookup": "cache",
            "temporal.materialise": "temporal",
            "temporal.get": "temporal",
        }.get(name, name.split(".")[0] if name.startswith("codec") else name)
        layers[layer] = layers.get(layer, 0.0) + value
    return layers


def per_layer(
    inputs,
    run: Dict[str, Any],
    reference: Dict[str, Any],
    trace_dir: str,
    roles: Dict[int, str],
    access_log: str,
) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric of the traced run (0 where a layer is idle)."""
    from repro.service.codec import query_from_request
    from repro.service.sharding import ShardMap

    spans = load_spans(trace_dir, roles)
    fleet = inputs.workload.topology == "fleet"
    front, back = ("gateway", "worker") if fleet else ("serve", "child")
    samples = [s for s in run["open"] + run["closed"] if s.answered]
    n = max(1, len(samples))
    service_ms = mean([(s.received - s.sent) * 1000.0 for s in samples])
    values: Dict[str, float] = {name: 0.0 for name in PER_LAYER}

    lags = [s.lag * 1000.0 for s in run["open"]]
    values["loadgen.lag_p95_ms"] = percentile(lags, 95) if lags else 0.0
    handle = _handle_latencies(access_log)
    if fleet and handle:
        values["http.handle_ms"] = mean(handle)
        values["http.transport_ms"] = service_ms - values["http.handle_ms"]
    both = [front, back]
    values["codec.decode_ms"] = spans.self_ms(both, "codec.decode") / n
    values["codec.encode_ms"] = spans.self_ms(both, "codec.encode") / n
    partitions = spans.count([front], "placement.partition")
    if partitions:
        values["placement.partition_ms"] = spans.total([front], "placement.partition") / partitions
    workers = 2
    queries = [query_from_request(s.payload) for s in samples]
    values["placement.imbalance"] = ShardMap(workers).imbalance(queries) if queries else 0.0
    frames = spans.count(["gateway"], "net.rtt")
    layers = layer_breakdown(spans, front, back)
    if frames:
        values["net.rtt_ms"] = spans.total(["gateway"], "net.rtt") / frames
        values["net.wire_ms"] = layers.get("net.wire", 0.0) / frames
    values["net.frame_bytes"] = sum(
        spans_counter for spans_counter in _counters(trace_dir, "net.frame_bytes")
    ) / n
    outer = "backends.remote" if fleet else "backends.process"
    batches = spans.count([front], outer)
    if batches:
        values["backends.dispatch_ms"] = layers.get("backends.dispatch", 0.0) / batches

    lookups = spans.count([back], "cache.lookup")
    misses = spans.count([back], "extraction")
    if lookups:
        values["cache.hit_rate"] = 1.0 - misses / lookups
    if misses:
        values["cache.build_ms"] = spans.total([back], "cache.lookup") / misses
    writer = run["writer"]
    invalidated = writer.worker_invalidations if writer is not None else 0
    overflow = sum(
        max(0.0, process.get("extraction", [0, 0.0, 0.0])[0] - CACHE_ENTRIES.get(back, 128))
        for process in spans.processes.get(back, [])
    )
    values["cache.evictions"] = max(0.0, overflow - invalidated)
    if misses:
        values["extraction.ms"] = spans.total([back], "extraction") / misses
        values["extraction.calls"] = misses
        values["extraction.vertices"] = (
            sum(_counters(trace_dir, "extraction.vertices")) / misses
        )
    values["temporal.get_ms"] = spans.total([back], "temporal.get") / n
    values["temporal.materialised"] = spans.count([front, back], "temporal.materialise")
    stats = [s.body.get("stats", {}) for s in samples]
    values["temporal.pivots"] = mean([st.get("pivots_processed", 0) for st in stats])
    values["search.solve_ms"] = spans.self_ms([back], "search") / n
    values["search.nodes"] = mean([st.get("nodes_expanded", 0) for st in stats])
    candidates = sum(st.get("candidates_considered", 0) for st in stats)
    prunes = sum(
        st.get("distance_prunes", 0) + st.get("acquaintance_prunes", 0)
        + st.get("availability_prunes", 0)
        for st in stats
    )
    values["search.prune_ratio"] = prunes / candidates if candidates else 0.0

    if writer is not None and writer.log:
        applies = spans.count([back], "mutations.apply")
        if applies:
            values["mutations.apply_ms"] = spans.total([back], "mutations.apply") / applies
        values["mutations.fanout_ms"] = mean(writer.fanout) * 1000.0
        values["mutations.evictions_per_mutation"] = (
            writer.worker_invalidations / writer.mutations if writer.mutations else 0.0
        )
        values["mutations.catchup"] = writer.catchups
        writes = [(acked - started) * 1000.0 for started, acked, _, _ in writer.log]
        values["mutations.write_p50_ms"] = statistics.median(writes)
        values["mutations.write_p95_ms"] = percentile(writes, 95)

    traced = [s.latency * 1000.0 for s in run["open"]]
    untraced = [s.latency * 1000.0 for s in reference["open"]]
    if traced and untraced:
        values["trace.overhead_ms"] = statistics.median(traced) - statistics.median(untraced)
    attributed = sum(layers.values())
    transport = values["http.transport_ms"] * n
    values["trace.unattributed_ms"] = service_ms - (attributed + transport) / n
    print_breakdown(inputs.workload.name, layers, transport, service_ms, n)
    return {
        name: {"value": values[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()
    }


def _counters(trace_dir: str, name: str) -> List[float]:
    out = []
    for path in glob.glob(os.path.join(trace_dir, "trace-*.json")):
        with open(path, encoding="utf-8") as handle:
            out.append(json.load(handle)["counters"].get(name, 0.0))
    return out


def print_breakdown(
    name: str, layers: Dict[str, float], transport: float, service_ms: float, n: int
) -> None:
    """Per-query self time by layer, largest first, with the unattributed rest."""
    rows = dict(layers)
    if transport:
        rows["http.transport"] = transport
    rows = {layer: total / n for layer, total in rows.items() if total}
    rows["unattributed"] = service_ms - sum(rows.values())
    print(f"perfbench {name}: per-query time by layer ({n} answered queries, "
          f"client-observed service time {service_ms:.3f} ms)", file=sys.stderr)
    for layer, value in sorted(rows.items(), key=lambda item: -item[1]):
        share = value / service_ms if service_ms else 0.0
        print(f"  {layer:<22} {value:10.3f} ms  {share:7.1%}", file=sys.stderr)
