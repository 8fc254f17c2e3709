#!/usr/bin/env python3
"""Open-loop gateway -> fleet -> kernel benchmark of the stgq serving stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hot-sgq --seed 1 --seconds 20 --trace 0

Deploys the shipped serving stack for one workload (``perfbench/README.md``)
with its default settings, drives it from one seeded load-generator process
(an open-loop Poisson phase, then a closed-loop phase), checks every answer
against an in-process serial reference, and prints one JSON object as the
last line of standard output.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` re-runs the workload on a traced fleet and reports the
per-layer breakdown instead.  Exits 1 on any wrong answer and 2 when the
program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Deployments per run; ``setup_s`` is their median and the last one is measured.
SETUP_REPEATS = 3
#: Share of ``--seconds`` spent in the open-loop phase (the rest is closed-loop).
OPEN_SHARE = 0.75
#: The closed loop stops after this many times its nominal length even if
#: its request list is not done (a much slower program still ends in time).
CLOSED_LIMIT = 3.0

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "throughput_qps": "1/s",
    "cpu_ms_per_query": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Writer(threading.Thread):
    """Applies the seeded mutation trace at a fixed rate, as ``stgq mutate --connect`` does."""

    def __init__(self, connect: str, inputs, rate: float, batch: int) -> None:
        super().__init__(daemon=True)
        from repro.datasets.realistic import generate_real_dataset
        from repro.service import QueryService, RemoteBackend

        dataset = generate_real_dataset()
        self.service = QueryService(
            dataset.graph, dataset.calendars, backend=RemoteBackend(connect)
        )
        self.trace = inputs.trace
        self.interval = 1.0 / rate
        self.batch = batch
        self.stop = threading.Event()
        self.log: List[Tuple[float, float, int, int]] = []
        self.fanout: List[float] = []
        self.catchups = 0
        self.mutations = 0
        self.worker_invalidations = 0
        self.error: Optional[str] = None
        backend = self.service.backend
        fan_out, catch_up = backend.apply_mutations, backend._catch_up

        def timed_fan_out(service, batch_):
            started = time.perf_counter()
            try:
                return fan_out(service, batch_)
            finally:
                self.fanout.append(time.perf_counter() - started)

        def counted_catch_up(*args):
            self.catchups += 1
            return catch_up(*args)

        backend.apply_mutations = timed_fan_out
        backend._catch_up = counted_catch_up

    def run(self) -> None:
        due = time.perf_counter()
        try:
            for start in range(0, len(self.trace), self.batch):
                due += self.interval
                if self.stop.wait(max(0.0, due - time.perf_counter())):
                    break
                started = time.perf_counter()
                report = self.service.apply_mutations(self.trace[start : start + self.batch])
                self.log.append(
                    (started, time.perf_counter(), report.from_version, report.to_version)
                )
                self.mutations += report.mutations
                self.worker_invalidations += report.worker_invalidations
        except Exception as exc:  # noqa: BLE001 - reported as a failed run
            self.error = f"{type(exc).__name__}: {exc}"

    def finish(self) -> None:
        self.stop.set()
        self.join()
        self.service.close()


def deploy(inputs, trace_dir: Optional[str] = None, access_log: Optional[str] = None):
    """Launch the workload's serving processes and warm them; returns (fleet, seconds)."""
    from fleet import Fleet, http_json
    from loadgen import JsonlClient, Sample

    started = time.perf_counter()
    fleet = Fleet(SRC, trace_dir)
    try:
        if inputs.workload.topology == "fleet":
            from workloads import FLEET_WORKERS

            fleet.start_gateway(fleet.start_workers(FLEET_WORKERS), access_log)
            status, body = http_json(fleet.url, "POST", "/v1/queries", {"queries": inputs.warmup})
            if status != 200 or any("error" in r for r in body["results"]):
                raise RuntimeError(f"warm-up failed with status {status}")
        else:
            inputs.build_scale_graph()
            process = fleet.start_jsonl(
                ["--graph", inputs.graph_path, "--backend", "process", "--workers", "2"]
            )
            fleet.client = JsonlClient(process)
            warm = [Sample(dict(p)) for p in inputs.warmup]
            for sample in warm:
                fleet.client.send(sample)
            if not fleet.client.wait_idle(120.0) or not all(s.answered for s in warm):
                raise RuntimeError("warm-up failed")
    except BaseException:
        fleet.close()
        raise
    return fleet, time.perf_counter() - started


def drive(inputs, fleet, schedule, closed_limit: float, stats: bool) -> Dict[str, Any]:
    """Run the open-loop then the closed-loop phase; returns samples and resource use.

    ``closed_limit`` 0 skips the closed loop.
    """
    from fleet import cpu_seconds, peak_rss_mb
    from loadgen import Sample, http_closed_loop, http_open_loop

    def samples(payloads) -> List[Sample]:
        return [Sample(dict(p, stats=True) if stats else dict(p)) for p in payloads]

    open_samples = samples(inputs.open_requests)
    closed_samples = samples(inputs.closed_requests) if closed_limit else []
    writer = None
    if inputs.workload.write_rate:
        writer = Writer(
            ",".join(fleet.worker_addresses),
            inputs,
            inputs.workload.write_rate,
            inputs.workload.write_batch,
        )
    pids = fleet.pids()
    cpu_before = cpu_seconds(pids)
    if writer is not None:
        writer.start()
    try:
        if inputs.workload.topology == "fleet":
            http_open_loop(fleet.url, open_samples, schedule)
            closed_start = time.perf_counter()
            closed = http_closed_loop(fleet.url, closed_samples, closed_limit)
        else:
            fleet.client.open_loop(open_samples, schedule)
            closed_start = time.perf_counter()
            closed = fleet.client.closed_loop(closed_samples, closed_limit)
    finally:
        if writer is not None:
            writer.finish()
    closed_end = max([s.received for s in closed], default=closed_start)
    pids = sorted(set(pids) | set(fleet.pids()))
    return {
        "open": open_samples,
        "closed": closed,
        "closed_seconds": closed_end - closed_start,
        "cpu_seconds": cpu_seconds(pids) - cpu_before,
        "peak_rss_mb": peak_rss_mb(pids),
        "writer": writer,
    }


def check(inputs, run: Dict[str, Any]) -> Tuple[int, int, int]:
    """Compare every answer with the reference; returns (attempted, failed, wrong)."""
    from oracle import Oracle, canonical, check_versioned, version_bracket

    samples = run["open"] + run["closed"]
    answered = [s for s in samples if s.answered]
    graph, calendars = inputs.reference_data()
    oracle = Oracle(graph, calendars)
    try:
        writer = run["writer"]
        if writer is not None:
            reads = [
                (s.payload, canonical(s.body), *version_bracket(s.sent, s.received, writer.log))
                for s in answered
            ]
            verdicts = check_versioned(oracle, inputs.trace, reads)
        else:
            verdicts = [oracle.expected(s.payload) == canonical(s.body) for s in answered]
    finally:
        oracle.close()
    wrong = verdicts.count(False)
    for sample, ok in zip(answered, verdicts):
        if not ok:
            print(f"perfbench: wrong answer to {sample.payload}: {sample.body}", file=sys.stderr)
    failed = len(samples) - len(answered) + wrong
    if run["writer"] is not None and run["writer"].error:
        print(f"perfbench: writer failed: {run['writer'].error}", file=sys.stderr)
        failed += 1
    return len(samples), failed, wrong


def end_to_end(run: Dict[str, Any], setups: List[float]) -> Dict[str, float]:
    from stats import percentile

    latencies = [s.latency * 1000.0 for s in run["open"]]
    answered = [s for s in run["open"] + run["closed"] if s.answered]
    closed_answered = sum(1 for s in run["closed"] if s.answered)
    return {
        "latency_p50_ms": statistics.median(latencies),
        "latency_p95_ms": percentile(latencies, 95),
        "throughput_qps": closed_answered / run["closed_seconds"],
        "cpu_ms_per_query": run["cpu_seconds"] * 1000.0 / max(1, len(answered)),
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }


def report_to_stderr(name: str, run: Dict[str, Any], attempted: int, failed: int) -> None:
    from stats import highest_supported_percentile, percentile, samples_beyond

    count = len(run["open"])
    lags = [s.lag * 1000.0 for s in run["open"]]
    latencies = [s.latency * 1000.0 for s in run["open"]]
    spread = " ".join(f"p{q}={percentile(latencies, q):.2f}" for q in (50, 75, 90, 95, 99))
    print(
        f"perfbench {name}: {count} open-loop samples ({samples_beyond(count, 95)} beyond p95; "
        f"highest supported percentile p{highest_supported_percentile(count)}; {spread} ms), "
        f"{len(run['closed'])} closed-loop; error rate {failed}/{attempted}; "
        f"generator lag p95 {percentile(lags, 95) if lags else 0.0:.3f} ms",
        file=sys.stderr,
    )


def run_workload(args: argparse.Namespace, workdir: str) -> Dict[str, Any]:
    from loadgen import poisson_schedule
    from workloads import WORKLOADS, Inputs

    workload = WORKLOADS[args.workload]
    open_seconds = args.seconds * OPEN_SHARE
    closed_seconds = args.seconds - open_seconds
    schedule = poisson_schedule(workload.rate, open_seconds, args.seed)
    inputs = Inputs(
        workload, args.seed, workdir, len(schedule), round(workload.capacity * closed_seconds)
    )
    closed_limit = CLOSED_LIMIT * closed_seconds

    if args.trace:
        from breakdown import per_layer

        fleet, _ = deploy(inputs)
        try:
            reference = drive(inputs, fleet, schedule, 0.0, stats=False)
        finally:
            fleet.close()
        trace_dir = os.path.join(workdir, "trace")
        os.makedirs(trace_dir)
        access_log = os.path.join(workdir, "access.jsonl")
        fleet, _ = deploy(inputs, trace_dir=trace_dir, access_log=access_log)
        roles = {p.pid: role for p, role in zip(fleet.processes, fleet.roles)}
        try:
            run = drive(inputs, fleet, schedule, closed_limit, stats=True)
        finally:
            fleet.close()
        attempted, failed, wrong = check(inputs, run)
        report_to_stderr(args.workload, run, attempted, failed)
        metrics = per_layer(inputs, run, reference, trace_dir, roles, access_log)
    else:
        setups: List[float] = []
        fleet = None
        try:
            for _ in range(SETUP_REPEATS):
                if fleet is not None:
                    fleet.close()
                fleet, seconds = deploy(inputs)
                setups.append(seconds)
            run = drive(inputs, fleet, schedule, closed_limit, stats=False)
        finally:
            if fleet is not None:
                fleet.close()
        attempted, failed, wrong = check(inputs, run)
        report_to_stderr(args.workload, run, attempted, failed)
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in end_to_end(run, setups).items()
        }
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: the program's sources are missing ({SRC}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
