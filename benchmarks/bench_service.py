"""Kernel speedup and per-backend service throughput benchmark.

Three measurements back the compiled-kernel + QueryService work:

1. **Kernel speedup** — the Figure 1(a) SGQ sweep (k = 2, s = 1, the
   194-person real dataset) run once per kernel, with the aggregate
   reference/compiled time ratio reported for the hot tail of the sweep
   (p >= 6).  A second, heavier sweep at s = 2 (larger ego networks) shows
   the kernel on the regime the paper's scalability figures target.
   Disable with ``--no-kernel-sweep`` (e.g. in per-backend CI legs).
2. **Cache-hot SGQ batch** — a mixed-initiator radius-1 batch: sub-millisecond
   per query once the ego-network cache is warm, so it measures executor
   overhead (process pays a loopback round trip per batch).
3. **Solver-bound STGQ batch** — a radius-2 social-temporal batch at tens of
   milliseconds of popcount-heavy kernel work per query.  This is the
   GIL-bound regime: the serial backend runs on one core while the
   initiator-sharded process backend scales with ``--workers``.

``--backend process`` measures the serial backend too and prints a
comparison table, so one run demonstrates the scaling claim.
``--backend remote`` spawns a local TCP worker cluster (``--workers``
processes via ``stgq worker``) and measures the network gateway next to the
serial baseline — the cluster column of the comparison.  ``--skew ALPHA``
swaps the uniform batches for the Zipfian mixed-radius workload generator
(``repro.experiments.workloads.generate_query_workload``) and reports
per-shard load balance, stressing LRU eviction and shard skew instead of
the cache-flattering uniform draws.  ``--replay FILE`` measures a saved
JSONL query trace (``save_workload``/``load_workload``) instead of the
synthetic batches — the first step toward feeding measured production
traces.  ``--json PATH`` writes the numbers for CI artifacts
(``BENCH_service.json``).

``--http URL[,URL]`` replays the same workload through running HTTP
gateways (``stgq http``) instead of an in-process backend: batches are
chunked into ``POST /v1/queries`` requests fired concurrently round-robin
across the given gateways, and the report gains served/shed counts and
HTTP throughput.  ``--http-spawn G`` spawns G local gateways over a
spawned TCP worker fleet first (the CI ``http-smoke`` topology).  The run
fails when shed (429) requests exceed ``--http-shed-limit`` percent
(default 5) — the admission-control acceptance gate behind the
``BENCH_service_http.json`` artifact.

Run::

    PYTHONPATH=src python benchmarks/bench_service.py               # full
    PYTHONPATH=src python benchmarks/bench_service.py --quick       # CI smoke
    PYTHONPATH=src python benchmarks/bench_service.py \
        --backend process --workers 4 --no-kernel-sweep --quick

The script exits non-zero when the p >= 6 aggregate speedup of the
compiled kernel over the reference kernel falls below the 3x acceptance
floor (kernel sweep enabled), so CI catches kernel regressions loudly.
``--kernels-json PATH`` writes the compiled kernel's single-thread solve
throughput on the solver-bound STGQ batch and the cache-hot radius-1 SGQ
batch (the ``BENCH_kernels.json`` artifact, radius-1 leg nested under
``"radius1"``); ``check_baseline.py`` gates it against the committed
baseline.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import random
import sys
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Tuple

from repro.core import SearchParameters, SGQuery, SGSelect, STGQuery
from repro.exceptions import QueryError
from repro.experiments.workloads import (
    ego_size,
    generate_query_workload,
    load_workload,
    pick_initiator,
    workload,
)
from repro.service import QueryService, RemoteBackend, ShardMap
from repro.service.codec import request_for
from repro.service.net import start_local_workers

SPEEDUP_FLOOR = 3.0
FIG1A = dict(radius=1, acquaintance=2, group_sizes=(3, 4, 5, 6, 7))
HEAVY = dict(radius=2, acquaintance=2, group_sizes=(5, 6, 7))
#: Dataset shape shared by the gateway AND any spawned remote workers —
#: both sides must load the identical seeded graph or results diverge.
DATASET_PEOPLE = 194
DATASET_DAYS = 1


def _time_solve(solver: SGSelect, query: SGQuery, repeats: int) -> Tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = solver.solve(query)
        best = min(best, time.perf_counter() - start)
    return best, result


def kernel_sweep(
    name: str,
    dataset,
    initiator,
    radius: int,
    acquaintance: int,
    group_sizes,
    repeats: int,
) -> Tuple[float, float]:
    """Run one SGQ sweep on both kernels; return aggregate tail times (ref, compiled)."""
    kernels = ("reference", "compiled")
    solvers = {
        kernel: SGSelect(dataset.graph, SearchParameters(kernel=kernel)) for kernel in kernels
    }
    print(
        f"\n== {name}: s={radius}, k={acquaintance}, "
        f"ego={ego_size(dataset, initiator, radius)} candidates =="
    )
    header = f"{'p':>3}" + "".join(f" {kernel:>12}" for kernel in kernels)
    header += f" {'comp-speedup':>13}"
    print(header)
    totals = {kernel: 0.0 for kernel in kernels}
    tails = {kernel: 0.0 for kernel in kernels}
    for p in group_sizes:
        query = SGQuery(
            initiator=initiator, group_size=p, radius=radius, acquaintance=acquaintance
        )
        times = {}
        results = {}
        for kernel in kernels:
            times[kernel], results[kernel] = _time_solve(solvers[kernel], query, repeats)
            totals[kernel] += times[kernel]
            if p >= 6:
                tails[kernel] += times[kernel]
        reference = results["reference"]
        for kernel in kernels[1:]:
            assert results[kernel].members == reference.members, f"kernel mismatch at p={p}"
            assert results[kernel].total_distance == reference.total_distance
        row = f"{p:>3}" + "".join(f" {times[kernel] * 1000:>10.2f}ms" for kernel in kernels)
        row += f" {times['reference'] / times['compiled']:>12.1f}x"
        print(row)
    print(
        "sweep aggregate: "
        + " -> ".join(f"{totals[kernel] * 1000:.1f}ms ({kernel})" for kernel in kernels)
    )
    return tails["reference"], tails["compiled"]


def _kernel_batch_throughput(dataset, batch, passes: int) -> Dict[str, object]:
    """Warm-cache, serial-backend throughput of one batch on the compiled kernel."""
    with QueryService(
        dataset.graph,
        dataset.calendars,
        parameters=SearchParameters(kernel="compiled"),
        backend="serial",
    ) as service:
        service.solve_many(batch)  # warm the ego-network cache
        best = float("inf")
        for _ in range(passes):
            start = time.perf_counter()
            service.solve_many(batch)
            best = min(best, time.perf_counter() - start)
    qps = len(batch) / best
    print(f" compiled: {best:.3f}s  {qps:.1f} q/s")
    return {
        "queries": len(batch),
        "passes": passes,
        "compiled": {"wall_s": round(best, 4), "qps": round(qps, 1)},
    }


def kernel_throughput(dataset, stgq_batch, quick: bool, sgq_batch=None) -> Dict[str, object]:
    """Single-thread solve throughput of the compiled kernel.

    Runs the solver-bound radius-2 STGQ batch through a serial-backend
    service (warm ego-network cache, best of several passes), i.e. pure
    kernel work with no executor in the way — the measurement behind the
    ``BENCH_kernels.json`` artifact, gated against the committed baseline
    by ``check_baseline.py``.

    When ``sgq_batch`` is given, a second leg times the cache-hot radius-1
    SGQ batch (nested in the report as ``"radius1"``).
    """
    passes = 3 if quick else 4
    print("\n== kernel throughput: solver-bound radius-2 STGQ batch (serial backend) ==")
    measured = _kernel_batch_throughput(dataset, stgq_batch, passes)
    if sgq_batch is not None:
        print("\n== kernel throughput: cache-hot radius-1 SGQ batch (serial backend) ==")
        measured["radius1"] = _kernel_batch_throughput(dataset, sgq_batch, passes)
    return measured


def build_batches(dataset, quick: bool, seed: int, skew: Optional[float] = None) -> Dict[str, List]:
    """The two batch workloads: cache-hot SGQ and solver-bound STGQ.

    With ``skew`` set (``--skew``), both batches come from the Zipfian
    mixed-radius generator instead of the uniform few-initiator draws: the
    SGQ batch spreads over the whole population (more distinct initiators
    than the default 128-entry cache, so the LRU eviction path is on the
    measured path) and the STGQ batch skews across the 20 largest radius-2
    ego networks, loading shards unevenly the way heavy users do.
    """
    rng = random.Random(seed)
    n_sgq = 100 if quick else 400
    n_stgq = 64 if quick else 200
    # STGQ at radius 2 from the people with the largest ego networks: tens of
    # milliseconds of kernel work per query, the regime where the GIL binds.
    # Twenty initiators keep the CRC32 shard assignment reasonably balanced
    # at the 4-worker width the CI smoke runs with.
    heavy_initiators = sorted(dataset.people, key=lambda v: -ego_size(dataset, v, 2))[:20]
    if skew is not None:
        sgq = generate_query_workload(
            dataset,
            n_sgq,
            skew=skew,
            radii=(1,),
            group_sizes=(4, 5),
            stg_fraction=0.0,
            seed=seed,
        )
        stgq = generate_query_workload(
            dataset,
            n_stgq,
            skew=skew,
            initiators=heavy_initiators,
            radii=(2,),
            group_sizes=(5,),
            stg_fraction=1.0,
            activity_lengths=(4,),
            seed=seed + 1,
        )
        return {"sgq": sgq, "stgq": stgq}
    sgq_initiators = rng.sample(list(dataset.people), 16)
    sgq = [
        SGQuery(initiator=rng.choice(sgq_initiators), group_size=5, radius=1, acquaintance=2)
        for _ in range(n_sgq)
    ]
    stgq = [
        STGQuery(
            initiator=rng.choice(heavy_initiators),
            group_size=5,
            radius=2,
            acquaintance=2,
            activity_length=4,
        )
        for _ in range(n_stgq)
    ]
    return {"sgq": sgq, "stgq": stgq}


def measure_backend(
    dataset, batches: Dict[str, List], backend, workers: Optional[int]
) -> Dict[str, Dict[str, float]]:
    """Warm-cache throughput of one backend (name or instance) on both workloads."""
    measured: Dict[str, Dict[str, float]] = {}
    with QueryService(
        dataset.graph, dataset.calendars, max_workers=workers, backend=backend
    ) as service:
        for kind, queries in batches.items():
            service.solve_many(queries)  # warm ego-network caches (and pools)
            before = service.stats()
            start = time.perf_counter()
            results = service.solve_many(queries)
            wall = time.perf_counter() - start
            after = service.stats()
            # Hit rate for this measured pass only, not service-lifetime.
            hits = after.cache_hits - before.cache_hits
            misses = after.cache_misses - before.cache_misses
            lookups = hits + misses
            measured[kind] = {
                "queries": len(queries),
                "wall_s": round(wall, 4),
                "qps": round(len(queries) / wall, 1),
                "cache_hit_rate": round(hits / lookups, 4) if lookups else 0.0,
                "feasible": sum(1 for r in results if r.feasible),
                # Degraded requests (remote backend, dead worker) are NOT
                # just infeasible: report them so CI can assert zero.
                "errors": sum(1 for r in results if getattr(r, "error", None)),
            }
        measured["workers"] = service.max_workers
    return measured


def _post_chunk(url: str, queries: List, timeout: float) -> Tuple[int, int, int]:
    """POST one chunk as a batch request; ``(status, answered, errors)``.

    A 429 (shed or rate-limited) is a *counted outcome*, not a failure —
    the gate at the end judges the shed fraction.  Transport errors count
    as errors so a dead gateway fails the run loudly.
    """
    payload = {
        "queries": [request_for(query, request_id=i) for i, query in enumerate(queries)],
        "page_size": 1024,
    }
    request = urllib.request.Request(
        f"{url}/v1/queries",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            body = json.loads(reply.read())
            results = body.get("results", [])
            return 200, len(results), sum(1 for r in results if "error" in r)
    except urllib.error.HTTPError as exc:
        exc.read()
        return exc.code, 0, 0 if exc.code == 429 else len(queries)
    except (urllib.error.URLError, OSError, ValueError):
        return 0, 0, len(queries)


def measure_http(
    urls: List[str],
    batches: Dict[str, List],
    chunk_size: int = 16,
    concurrency: int = 8,
    timeout: float = 120.0,
) -> Dict[str, object]:
    """Replay the workload through HTTP gateways; report served/shed counts.

    Chunks of ``chunk_size`` queries go out as concurrent batch POSTs,
    round-robin across ``urls`` — the stateless-tier deployment shape: any
    gateway must serve any chunk.  One warm pass per workload first, so the
    measured pass sees the same warm ego-network caches the in-process
    backends are measured with.
    """
    measured: Dict[str, object] = {"urls": list(urls), "chunk_size": chunk_size}
    total_requests = 0
    total_shed = 0
    for kind, queries in batches.items():
        chunks = [queries[i : i + chunk_size] for i in range(0, len(queries), chunk_size)]
        targets = [urls[i % len(urls)] for i in range(len(chunks))]
        with concurrent.futures.ThreadPoolExecutor(max_workers=concurrency) as pool:
            list(pool.map(lambda cu: _post_chunk(cu[1], cu[0], timeout), zip(chunks, targets)))
            start = time.perf_counter()
            outcomes = list(
                pool.map(lambda cu: _post_chunk(cu[1], cu[0], timeout), zip(chunks, targets))
            )
            wall = time.perf_counter() - start
        answered = sum(count for _, count, _ in outcomes)
        errors = sum(err for _, _, err in outcomes)
        shed = sum(1 for status, _, _ in outcomes if status == 429)
        failed = sum(1 for status, _, _ in outcomes if status not in (200, 429))
        total_requests += len(chunks)
        total_shed += shed
        measured[kind] = {
            "queries": len(queries),
            "requests": len(chunks),
            "answered": answered,
            "shed_requests": shed,
            "failed_requests": failed,
            "errors": errors,
            "wall_s": round(wall, 4),
            "qps": round(answered / wall, 1) if wall > 0 else 0.0,
        }
    measured["total_requests"] = total_requests
    measured["total_shed"] = total_shed
    measured["shed_pct"] = round(100.0 * total_shed / total_requests, 2) if total_requests else 0.0
    return measured


def serial_cold(dataset, batches: Dict[str, List]) -> Dict[str, Dict[str, float]]:
    """Cold single-pass baseline: fresh serial service, empty cache."""
    measured: Dict[str, Dict[str, float]] = {}
    for kind, queries in batches.items():
        with QueryService(dataset.graph, dataset.calendars, backend="serial") as service:
            start = time.perf_counter()
            service.solve_many(queries)
            wall = time.perf_counter() - start
        measured[kind] = {
            "queries": len(queries),
            "wall_s": round(wall, 4),
            "qps": round(len(queries) / wall, 1),
        }
    return measured


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke mode: fewer repeats, smaller batches"
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--backend",
        choices=["serial", "process", "remote"],
        default="serial",
        help="backend to benchmark; 'serial' is always measured as the "
        "comparison baseline. 'remote' spawns a local worker cluster "
        "(--workers processes) and measures the network gateway (default serial)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for --backend process; for --backend remote "
        "this is the number of spawned TCP workers (default: auto / 2)",
    )
    parser.add_argument(
        "--skew",
        type=float,
        default=None,
        metavar="ALPHA",
        help="use the Zipfian mixed-radius workload generator with this "
        "exponent (e.g. 1.0) instead of uniform few-initiator batches; "
        "also reports per-shard load balance",
    )
    parser.add_argument(
        "--replay",
        metavar="FILE",
        default=None,
        help="replay a saved JSONL query trace (see "
        "repro.experiments.workloads.save_workload) as the single measured "
        "batch instead of the synthetic SGQ/STGQ pair — the path for feeding "
        "measured production traces into the harness",
    )
    parser.add_argument(
        "--http",
        metavar="URL[,URL]",
        default=None,
        help="replay the workload through these running HTTP gateways "
        "(comma-separated base URLs), round-robin, and report HTTP "
        "throughput plus served/shed request counts",
    )
    parser.add_argument(
        "--http-spawn",
        type=int,
        default=None,
        metavar="G",
        help="spawn G local HTTP gateways over a spawned TCP worker fleet "
        "(--workers workers, default 2) and replay the workload through "
        "them — the CI http-smoke topology",
    )
    parser.add_argument(
        "--http-shed-limit",
        type=float,
        default=5.0,
        metavar="PCT",
        help="fail the run when shed (429) requests exceed this percentage "
        "of HTTP requests (default 5)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None, help="write results as JSON to PATH"
    )
    parser.add_argument(
        "--kernels-json",
        metavar="PATH",
        default=None,
        help="write the compiled kernel's solve throughput on the "
        "solver-bound STGQ and cache-hot SGQ batches as JSON to PATH "
        "(BENCH_kernels.json)",
    )
    parser.add_argument(
        "--kernel-sweep",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="run the reference-vs-compiled kernel sweep and enforce the "
        f"{SPEEDUP_FLOOR:.0f}x floor (default on)",
    )
    args = parser.parse_args(argv)

    repeats = 2 if args.quick else 3
    dataset = workload(network_size=DATASET_PEOPLE, schedule_days=DATASET_DAYS, seed=args.seed)
    report = {
        "quick": args.quick,
        "seed": args.seed,
        "skew": args.skew,
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "kernel": None,
        "serial_cold": None,
        "backends": {},
    }

    speedup = None
    if args.kernel_sweep:
        fig1a_initiator = pick_initiator(
            dataset, radius=1, min_candidates=10, max_candidates=26
        )
        tail_ref, tail_comp = kernel_sweep(
            "Figure 1(a) sweep",
            dataset,
            fig1a_initiator,
            FIG1A["radius"],
            FIG1A["acquaintance"],
            FIG1A["group_sizes"],
            repeats,
        )
        speedup = tail_ref / tail_comp
        print(f"\np >= 6 aggregate speedup: {speedup:.1f}x (floor {SPEEDUP_FLOOR:.0f}x)")

        heavy_initiator = pick_initiator(
            dataset, radius=2, min_candidates=30, max_candidates=80
        )
        kernel_sweep(
            "heavy sweep",
            dataset,
            heavy_initiator,
            HEAVY["radius"],
            HEAVY["acquaintance"],
            HEAVY["group_sizes"],
            repeats,
        )
        report["kernel"] = {"tail_speedup": round(speedup, 2), "floor": SPEEDUP_FLOOR}

    if args.replay is not None:
        try:
            trace = load_workload(args.replay)
        except (OSError, QueryError) as exc:
            print(f"FAIL: cannot load replay trace: {exc}", file=sys.stderr)
            return 1
        if not trace:
            print(f"FAIL: replay trace {args.replay} is empty", file=sys.stderr)
            return 1
        # Traces reference initiators by id, so a trace captured against a
        # different graph (other dataset, other --seed) must fail with a
        # diagnosis, not a mid-benchmark VertexNotFoundError traceback.
        unknown = {q.initiator for q in trace} - set(dataset.people)
        if unknown:
            print(
                f"FAIL: replay trace {args.replay} does not match this dataset "
                f"({DATASET_PEOPLE} people, seed {args.seed}): "
                f"{len(unknown)} unknown initiator(s), e.g. {sorted(unknown)[:3]}",
                file=sys.stderr,
            )
            return 1
        print(f"\nreplaying {len(trace)} queries from {args.replay}")
        batches = {"replay": trace}
        report["replay"] = {"path": args.replay, "queries": len(trace)}
    else:
        batches = build_batches(dataset, args.quick, args.seed, skew=args.skew)

    if args.kernels_json:
        # The kernel artifact feeds a regression gate: asking for it in a
        # configuration that cannot produce both legs must fail loudly, not
        # silently write a partial baseline.
        if not args.kernel_sweep or "stgq" not in batches or "sgq" not in batches:
            print(
                "FAIL: --kernels-json needs the kernel sweep and the synthetic "
                "sgq + stgq batches (do not combine with --no-kernel-sweep or "
                "--replay)",
                file=sys.stderr,
            )
            return 1

    kernels_report = None
    if args.kernel_sweep and "stgq" in batches:
        kernels_report = kernel_throughput(
            dataset, batches["stgq"], args.quick, sgq_batch=batches.get("sgq")
        )
        report["kernels"] = kernels_report
        if args.kernels_json:
            payload = {
                "seed": args.seed,
                "quick": args.quick,
                "cpu_count": os.cpu_count(),
                "python": sys.version.split()[0],
                "dataset_people": DATASET_PEOPLE,
                **kernels_report,
            }
            with open(args.kernels_json, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote {args.kernels_json}")

    report["serial_cold"] = serial_cold(dataset, batches)

    cluster = None
    http_fleet = None
    gateway_cluster = None
    try:
        if args.backend == "remote":
            n_remote_workers = args.workers or 2
            print(f"\nspawning {n_remote_workers} local TCP workers for the remote backend ...")
            cluster = start_local_workers(
                n_remote_workers,
                people=DATASET_PEOPLE,
                days=DATASET_DAYS,
                seed=args.seed,
                backend="serial",
            )
            print(f"workers ready at {cluster.connect_spec()}")

        backends_to_measure = ["serial"]
        if args.backend != "serial":
            backends_to_measure.append(args.backend)
        for backend in backends_to_measure:
            if backend == "remote":
                instance = RemoteBackend(cluster.connect_spec())
                report["backends"][backend] = measure_backend(dataset, batches, instance, None)
            else:
                workers = args.workers if backend == args.backend else None
                report["backends"][backend] = measure_backend(dataset, batches, backend, workers)

        http_urls = None
        if args.http:
            http_urls = [url.strip().rstrip("/") for url in args.http.split(",") if url.strip()]
        elif args.http_spawn:
            from repro.service.http import start_local_gateways

            if cluster is not None:
                connect = cluster.connect_spec()  # reuse the remote-leg fleet
            else:
                n_http_workers = args.workers or 2
                print(f"\nspawning {n_http_workers} local TCP workers for the HTTP tier ...")
                http_fleet = start_local_workers(
                    n_http_workers,
                    people=DATASET_PEOPLE,
                    days=DATASET_DAYS,
                    seed=args.seed,
                    backend="serial",
                )
                connect = http_fleet.connect_spec()
            print(f"spawning {args.http_spawn} HTTP gateways over {connect} ...")
            gateway_cluster = start_local_gateways(
                args.http_spawn,
                connect=connect,
                people=DATASET_PEOPLE,
                days=DATASET_DAYS,
                seed=args.seed,
            )
            http_urls = gateway_cluster.addresses
        if http_urls:
            print(f"\n== HTTP tier: replay via {len(http_urls)} gateway(s) ==")
            http_report = measure_http(http_urls, batches)
            report["http"] = http_report
            for kind in batches:
                h = http_report[kind]
                print(
                    f"{kind:>7}: {h['qps']:>8.1f} q/s over HTTP  "
                    f"({h['requests']} requests, {h['shed_requests']} shed, "
                    f"{h['failed_requests']} failed, {h['errors']} errors)"
                )
            print(
                f"shed: {http_report['total_shed']}/{http_report['total_requests']} "
                f"requests ({http_report['shed_pct']}%, limit {args.http_shed_limit}%)"
            )
    finally:
        if gateway_cluster is not None:
            gateway_cluster.close()
        if http_fleet is not None:
            http_fleet.close()
        if cluster is not None:
            cluster.close()

    if args.replay is not None:
        # Per-shard routed counts for the replayed trace: how the measured
        # (or, for serial, an equally wide hypothetical) sharded
        # deployment splits this exact workload.  Recorded into the replay
        # summary so a saved trace's JSON artifact answers "which worker
        # would soak this?" without re-running the benchmark.
        if args.backend in ("process", "remote"):
            n_shards = report["backends"][args.backend]["workers"]
            routed_label = f"{args.backend} backend"
        else:
            n_shards = args.workers or 4
            routed_label = "hypothetical sharded deployment"
        replay_shards = ShardMap(n_shards)
        replay_trace = batches["replay"]
        routed_counts = replay_shards.load_report(replay_trace)
        report["replay"]["n_shards"] = n_shards
        report["replay"]["routed"] = routed_counts
        report["replay"]["imbalance"] = round(replay_shards.imbalance(replay_trace), 3)
        print(
            f"\nreplay routing over {n_shards} shards ({routed_label}): "
            f"{routed_counts} (max/mean {report['replay']['imbalance']:.2f}x)"
        )

    if args.skew is not None:
        # Report balance for the shard layout that was actually measured.
        # Only the sharded backends route by initiator; for serial the
        # report is the hypothetical split a sharded deployment of the
        # same width would see, and is labelled as such.
        if args.backend in ("process", "remote"):
            n_shards = report["backends"][args.backend]["workers"]
            label = f"{args.backend} backend"
        else:
            n_shards = args.workers or 4
            label = "hypothetical sharded deployment"
        shards = ShardMap(n_shards)
        print()
        for kind, queries in batches.items():
            counts = shards.load_report(queries)
            report[f"shard_balance_{kind}"] = counts
            print(
                f"{kind} shard balance over {n_shards} shards "
                f"({label}, skew={args.skew}): {counts} "
                f"(max/mean {shards.imbalance(queries):.2f}x)"
            )

    kinds = list(batches)
    print(
        "\n== warm batch throughput: "
        + " / ".join(f"{len(batches[kind])} {kind}" for kind in kinds)
        + " queries =="
    )
    cold = report["serial_cold"]
    heavy = "stgq" if "stgq" in kinds else kinds[-1]
    header = f"{'backend':>10} {'workers':>8}"
    for kind in kinds:
        header += f" {kind + ' q/s':>12}"
    header += f" {heavy + ' wall':>12}"
    print(header)
    row = f"{'cold':>10} {'1':>8}"
    for kind in kinds:
        row += f" {cold[kind]['qps']:>12.1f}"
    print(row + f" {cold[heavy]['wall_s']:>11.2f}s")
    for backend, measured in report["backends"].items():
        row = f"{backend:>10} {measured['workers']:>8}"
        for kind in kinds:
            row += f" {measured[kind]['qps']:>12.1f}"
        print(row + f" {measured[heavy]['wall_s']:>11.2f}s")
    if args.backend != "serial":
        serial_qps = report["backends"]["serial"][heavy]["qps"]
        chosen_qps = report["backends"][args.backend][heavy]["qps"]
        print(
            f"\n{heavy} {args.backend} vs serial: {chosen_qps / serial_qps:.2f}x "
            f"({chosen_qps:.1f} vs {serial_qps:.1f} q/s)"
        )

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")

    if speedup is not None and speedup < SPEEDUP_FLOOR:
        print(
            f"FAIL: p >= 6 speedup {speedup:.1f}x below {SPEEDUP_FLOOR:.0f}x floor",
            file=sys.stderr,
        )
        return 1
    if "http" in report:
        http_report = report["http"]
        broken = sum(
            http_report[kind]["failed_requests"] + http_report[kind]["errors"]
            for kind in batches
        )
        if broken:
            print(
                f"FAIL: {broken} HTTP request(s)/result(s) failed outright "
                "(only 200 and 429 are acceptable outcomes)",
                file=sys.stderr,
            )
            return 1
        if http_report["shed_pct"] > args.http_shed_limit:
            print(
                f"FAIL: {http_report['shed_pct']}% of HTTP requests shed, "
                f"above the {args.http_shed_limit}% limit",
                file=sys.stderr,
            )
            return 1
    print("\nOK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
