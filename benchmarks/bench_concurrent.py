"""Multi-gateway worker throughput benchmark: 1 vs 2 gateways, one worker.

This measures the tentpole claim of the per-batch
:class:`~repro.service.ExecutionContext` refactor.  Before it, a TCP worker
held a lock across batch execution, so batch frames from a second gateway
queued behind the first — one gateway per worker fleet was the intended
shape.  With per-batch contexts the worker interleaves batch frames from
any number of connections, so a second gateway turns otherwise-idle worker
capacity into throughput.

Setup: **one** ``stgq worker`` subprocess whose local service uses the
``process`` backend with ``--worker-width`` shards (default 2).  The
measured traffic is solver-bound STGQ batches (radius 2, the popcount-heavy
regime), each batch pinned to a single heavy initiator chosen so the
streams land on *different* worker-side process shards.  A lone gateway
sends its batches one round trip at a time, so each batch keeps only one of
the worker's shards busy; two gateways keep both busy — exactly the
utilization argument for per-request accounting in the energy-efficient
cluster-design literature.

Legs:

1. ``1 gateway`` — one connection sends every batch sequentially.
2. ``2 gateways`` — two connections (threads), each sending its stream's
   half of the same batches concurrently.

The ratio (leg 2 / leg 1 queries-per-second) is the headline number; CI
fails the run when it drops below ``--floor`` (default 1.3x).  The floor is
only enforced on machines with at least two cores — on a single-core
runner concurrent CPU-bound batches cannot beat sequential ones, so the
script prints the measurement and skips the assertion.

Run directly::

    PYTHONPATH=src python benchmarks/bench_concurrent.py --quick \
        --json BENCH_service_concurrent.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from typing import Dict, List

from repro.core import STGQuery
from repro.experiments.workloads import ego_size, workload
from repro.service import QueryService, RemoteBackend
from repro.service.net import start_local_workers
from repro.service.sharding import stable_shard

DATASET_PEOPLE = 194
DATASET_DAYS = 1


def pick_stream_initiators(dataset, width: int) -> List:
    """One heavy radius-2 initiator per worker-side shard.

    Batches pinned to these initiators occupy disjoint shards of the
    worker's process backend, so the concurrency win is visible: a second
    in-flight batch uses a child process the first leaves idle.
    """
    by_weight = sorted(dataset.people, key=lambda v: -ego_size(dataset, v, 2))
    chosen: Dict[int, object] = {}
    for person in by_weight:
        shard = stable_shard(person, width)
        if shard not in chosen:
            chosen[shard] = person
        if len(chosen) == width:
            break
    if len(chosen) < width:  # pragma: no cover - 194 people always cover 2 shards
        raise SystemExit(f"could not find initiators for all {width} shards")
    return [chosen[shard] for shard in sorted(chosen)]


def build_stream_batches(
    initiators: List, n_batches: int, batch_size: int
) -> List[List[STGQuery]]:
    """``n_batches`` solver-bound STGQ batches, round-robin over streams."""
    batches = []
    for index in range(n_batches):
        initiator = initiators[index % len(initiators)]
        batches.append(
            [
                STGQuery(
                    initiator=initiator,
                    group_size=5,
                    radius=2,
                    acquaintance=2,
                    activity_length=4,
                )
                for _ in range(batch_size)
            ]
        )
    return batches


def run_leg(
    dataset, connect: str, batches: List[List[STGQuery]], n_gateways: int
) -> Dict[str, float]:
    """Send every batch through ``n_gateways`` concurrent gateways.

    Batches are dealt round-robin, so with two gateways each one carries a
    single stream (= a single worker-side shard).  Returns wall clock,
    throughput, and the error count (which must be zero on a healthy run).
    """
    assignments: List[List[List[STGQuery]]] = [[] for _ in range(n_gateways)]
    for index, batch in enumerate(batches):
        assignments[index % n_gateways].append(batch)
    services = [
        QueryService(
            dataset.graph,
            dataset.calendars,
            backend=RemoteBackend(connect, timeout=120.0),
        )
        for _ in range(n_gateways)
    ]
    outcomes: List[Dict[str, float]] = [{} for _ in range(n_gateways)]
    start_line = threading.Barrier(n_gateways + 1)

    def gateway(slot: int) -> None:
        service = services[slot]
        answered = errors = 0
        failure = None
        try:
            start_line.wait(timeout=60)
            for batch in assignments[slot]:
                results = service.solve_many(batch)
                answered += len(results)
                errors += sum(1 for r in results if getattr(r, "error", None))
        except Exception as exc:  # a crashed gateway must fail the leg loudly
            failure = f"{type(exc).__name__}: {exc}"
        outcomes[slot] = {"answered": answered, "errors": errors, "failure": failure}

    threads = [threading.Thread(target=gateway, args=(slot,)) for slot in range(n_gateways)]
    try:
        for thread in threads:
            thread.start()
        start_line.wait(timeout=60)
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
    finally:
        for service in services:
            service.close()
    total = sum(int(outcome.get("answered", 0)) for outcome in outcomes)
    errors = sum(int(outcome.get("errors", 0)) for outcome in outcomes)
    failures = [outcome["failure"] for outcome in outcomes if outcome.get("failure")]
    for failure in failures:
        print(f"FAIL: gateway thread crashed: {failure}", file=sys.stderr)
    return {
        "gateways": n_gateways,
        "queries": total,
        # A crashed gateway under-reports `queries`; count it as an error so
        # every caller's errors-must-be-zero gate rejects the partial run.
        "errors": errors + len(failures),
        "wall_s": round(wall, 4),
        "qps": round(total / wall, 2) if wall else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke mode: smaller batches")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--worker-width",
        type=int,
        default=2,
        help="process-backend shards inside the single worker (default 2)",
    )
    parser.add_argument(
        "--floor",
        type=float,
        default=1.3,
        help="minimum 2-gateway/1-gateway throughput ratio (default 1.3; "
        "0 disables; only enforced on multi-core machines)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None, help="write results as JSON to PATH"
    )
    args = parser.parse_args(argv)

    dataset = workload(network_size=DATASET_PEOPLE, schedule_days=DATASET_DAYS, seed=args.seed)
    initiators = pick_stream_initiators(dataset, args.worker_width)
    n_batches = 4 * args.worker_width if args.quick else 8 * args.worker_width
    batch_size = 6 if args.quick else 12
    batches = build_stream_batches(initiators, n_batches, batch_size)
    print(
        f"one worker (process backend, {args.worker_width} shards), "
        f"{n_batches} batches x {batch_size} radius-2 STGQ queries, "
        f"stream initiators {initiators}"
    )

    report = {
        "quick": args.quick,
        "seed": args.seed,
        "cpu_count": os.cpu_count(),
        "worker_width": args.worker_width,
        "batches": n_batches,
        "batch_size": batch_size,
        "legs": {},
    }
    with start_local_workers(
        1,
        people=DATASET_PEOPLE,
        days=DATASET_DAYS,
        seed=args.seed,
        backend="process",
        workers=args.worker_width,
    ) as cluster:
        print(f"worker ready at {cluster.connect_spec()}")
        # Warm-up: run each distinct stream batch once so the worker's
        # process-backend children are started and its ego-network caches are hot
        # before either measured leg.
        warmup = run_leg(dataset, cluster.connect_spec(), batches[: args.worker_width], 1)
        if warmup["errors"]:
            print(f"FAIL: {warmup['errors']} errors during warm-up", file=sys.stderr)
            return 1
        for n_gateways in (1, 2):
            leg = run_leg(dataset, cluster.connect_spec(), batches, n_gateways)
            report["legs"][str(n_gateways)] = leg
            print(
                f"{n_gateways} gateway(s): {leg['queries']} queries in "
                f"{leg['wall_s']:.2f}s = {leg['qps']:.1f} q/s "
                f"({leg['errors']} errors)"
            )
            if leg["errors"]:
                print(f"FAIL: {leg['errors']} degraded requests", file=sys.stderr)
                return 1

    ratio = report["legs"]["2"]["qps"] / report["legs"]["1"]["qps"]
    report["ratio_2_vs_1"] = round(ratio, 3)
    print(f"\n2-gateway vs 1-gateway worker throughput: {ratio:.2f}x")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")

    cpu_count = os.cpu_count() or 1
    if args.floor and cpu_count < 2:
        print(
            f"single-core machine (cpu_count={cpu_count}): concurrent CPU-bound "
            f"batches cannot beat sequential ones here; floor {args.floor:.1f}x "
            "reported but not enforced"
        )
    elif args.floor and ratio < args.floor:
        print(
            f"FAIL: 2-gateway speedup {ratio:.2f}x below the {args.floor:.1f}x floor "
            "— is the worker serializing batch frames again?",
            file=sys.stderr,
        )
        return 1
    print("\nOK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
