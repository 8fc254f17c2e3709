"""Live-graph mutation benchmark: apply rate, targeted invalidation, recovery.

Three numbers characterise the live-graph subsystem (``docs/live_graph.md``):

1. **Mutation apply rate** — mutations/second through
   :meth:`QueryService.apply_mutations` on a warm service, including the
   reverse-index invalidation and mutation-log bookkeeping.
2. **Invalidation precision** — evicted cache entries per mutation with a
   warm radius-1 ego cache, the number the targeted-invalidation design
   keeps far below the cache size (a clear-everything design pins it at
   the warm entry count).
3. **Recovery cost** — queries/second re-solving the same round after the
   mutation stream, i.e. the price of refilling the evicted egos, next to
   the warm-cache rate before mutations.

Run::

    PYTHONPATH=src python benchmarks/bench_mutations.py
    PYTHONPATH=src python benchmarks/bench_mutations.py --quick --json out.json

The script exits non-zero when invalidations per mutation reach 10% of the
cache size — the same targeted-invalidation gate ``examples/mutation_smoke.py``
enforces against a live cluster, kept here for the bench-only CI legs.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from repro.core import SGQuery
from repro.datasets import generate_real_dataset
from repro.graph import generate_mutation_trace
from repro.service import QueryService


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--people", type=int, default=194, help="population size (default 194)")
    parser.add_argument("--seed", type=int, default=42, help="dataset seed (default 42)")
    parser.add_argument(
        "--mutations", type=int, default=400, help="mutation trace length (default 400)"
    )
    parser.add_argument(
        "--trace-seed", type=int, default=7, help="mutation trace seed (default 7)"
    )
    parser.add_argument(
        "--initiators", type=int, default=48, help="warm radius-1 egos (default 48)"
    )
    parser.add_argument(
        "--cache-size", type=int, default=64, help="ego cache entries (default 64)"
    )
    parser.add_argument("--quick", action="store_true", help="CI smoke: 100 mutations")
    parser.add_argument(
        "--json", metavar="PATH", default=None, help="write results as JSON to PATH"
    )
    args = parser.parse_args(argv)
    n_mutations = 100 if args.quick else args.mutations

    dataset = generate_real_dataset(
        n_people=args.people, schedule_days=1, seed=args.seed
    )
    trace = generate_mutation_trace(
        dataset.graph, n_mutations, seed=args.trace_seed, horizon=dataset.calendars.horizon
    )
    initiators = random.Random(args.seed).sample(
        list(dataset.people), min(args.initiators, len(dataset.people))
    )
    queries = [
        SGQuery(initiator=person, group_size=4, radius=1, acquaintance=2)
        for person in initiators
    ]
    print(f"dataset: {dataset.graph.vertex_count} people (seed {args.seed}); "
          f"{len(trace)} mutations, {len(queries)} warm radius-1 egos, "
          f"cache size {args.cache_size}")

    with QueryService(
        dataset.graph, dataset.calendars, backend="serial", cache_size=args.cache_size
    ) as service:
        # Warm pass: fill the ego cache, then measure the cache-hot rate.
        service.solve_many(queries)
        start = time.perf_counter()
        service.solve_many(queries)
        warm_seconds = time.perf_counter() - start
        warm_qps = len(queries) / warm_seconds if warm_seconds else 0.0

        # The mutation stream, one apply_mutations call per mutation — the
        # per-mutation worst case for versioning/log/index overhead.
        start = time.perf_counter()
        for mutation in trace:
            service.apply_mutations([mutation])
        mutate_seconds = time.perf_counter() - start
        stats = service.stats()
        mutations_per_sec = stats.mutations / mutate_seconds if mutate_seconds else 0.0
        per_mutation = stats.invalidations_per_mutation

        # Recovery: re-solve the same round, paying the evicted rebuilds.
        start = time.perf_counter()
        service.solve_many(queries)
        recovery_seconds = time.perf_counter() - start
        recovery_qps = len(queries) / recovery_seconds if recovery_seconds else 0.0
        final_version = service.live_version

    print(f"warm-cache solve rate:   {warm_qps:8.1f} q/s")
    print(f"mutation apply rate:     {mutations_per_sec:8.1f} mutations/s "
          f"(live version {final_version})")
    print(f"targeted invalidation:   {stats.invalidations} evictions / "
          f"{stats.mutations} mutations = {per_mutation:.2f} per mutation")
    print(f"post-mutation recovery:  {recovery_qps:8.1f} q/s "
          f"(refilling evicted egos)")

    report = {
        "people": args.people,
        "seed": args.seed,
        "trace_seed": args.trace_seed,
        "cache_size": args.cache_size,
        "quick": args.quick,
        "mutations": stats.mutations,
        "warm": {"qps": round(warm_qps, 1)},
        "mutate": {"per_sec": round(mutations_per_sec, 1)},
        "recovery": {"qps": round(recovery_qps, 1)},
        "invalidations": stats.invalidations,
        "invalidations_per_mutation": round(per_mutation, 3),
        "live_version": final_version,
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")

    gate = 0.1 * args.cache_size
    if per_mutation >= gate:
        print(f"FAIL: {per_mutation:.2f} invalidations per mutation >= 10% of the "
              f"{args.cache_size}-entry cache — invalidation is not targeted")
        return 1
    print(f"ok: invalidations per mutation {per_mutation:.2f} < {gate:.1f} gate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
