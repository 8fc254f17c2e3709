"""Batch serving demo: many users querying one shared social graph.

The single-query examples construct a solver per call; a deployed
activity-planning backend instead keeps one :class:`repro.service.QueryService`
alive next to the social graph and lets it amortise work across queries:
extracted ego networks (and their compiled bitset form) are LRU-cached per
``(initiator, radius)``, and batches run on an executor backend.

Scaling the service
-------------------
``QueryService(..., backend=...)`` picks the execution strategy:

* ``backend="serial"`` (default) — the in-process loop over one shared
  ego-network cache.  Cheap to start and fastest for cache-hot traffic, but
  the compiled kernel's popcount loops hold the GIL, so it uses one core.
* ``backend="process"`` — the workload is *sharded by initiator* across
  worker processes the service spawns on 127.0.0.1.  Each worker holds its
  own copy of the graph plus a private ego-network LRU cache, and every
  query routes to the worker owning its initiator, so each worker's cache
  stays hot for its shard of users.  This is the backend that scales
  solver-bound batches across cores (`stgq serve --backend process
  --workers 4`), at the cost of process startup and a JSON round trip over
  loopback per batch.  It is ``RemoteBackend`` over local children: a
  dead child fails its shard's queries (``ErrorResult``), not the batch,
  the remote deadlines apply, and vertex ids must survive JSON.
* ``backend=RemoteBackend(...)`` — the multi-node shape: the same sharding
  across ``stgq worker`` TCP processes on any machine.  See
  ``examples/cluster_quickstart.py`` and ``docs/service.md``.

Whichever backend runs, ``stats()`` / ``cache_info()`` aggregate identically
(worker counters merge into the parent), and ``answer_async`` lets an
asyncio front-end pipeline batches of decoded requests — ``stgq serve
--jsonl`` exposes that as a stdin/stdout JSONL protocol.

Run with::

    PYTHONPATH=src python examples/batch_service.py
"""

import random
import time

from repro.core import SGQuery, STGQuery
from repro.datasets import generate_real_dataset
from repro.service import QueryService


def main() -> None:
    # 1. One shared dataset — the seeded 194-person community network.
    dataset = generate_real_dataset(seed=42)
    print(f"dataset: {dataset.graph.vertex_count} people, "
          f"{dataset.graph.edge_count} friendships, {dataset.calendars.horizon} slots")

    # 2. One long-lived service bound to it.  The default SearchParameters
    #    select the compiled bitset kernel; pass
    #    SearchParameters(kernel="reference") to compare with the pure-Python
    #    reference implementation.
    service = QueryService(dataset.graph, dataset.calendars, cache_size=64)

    # 3. Simulate traffic: 200 social queries from 12 active users.  Real
    #    products see exactly this shape — a small hot set of initiators
    #    issuing repeated queries with varying group sizes.
    rng = random.Random(7)
    hot_users = rng.sample(list(dataset.people), 12)
    social_batch = [
        SGQuery(initiator=rng.choice(hot_users), group_size=rng.randint(3, 6),
                radius=1, acquaintance=2)
        for _ in range(200)
    ]

    start = time.perf_counter()
    results = service.solve_many(social_batch)
    elapsed = time.perf_counter() - start
    feasible = sum(1 for r in results if r.feasible)
    print(f"\nSGQ batch: {len(results)} queries in {elapsed:.3f}s "
          f"({len(results) / elapsed:.0f} queries/s), {feasible} feasible")

    # 4. The same service answers social-temporal queries; the ego-network
    #    cache is shared across both query kinds.
    temporal_batch = [
        STGQuery(initiator=rng.choice(hot_users), group_size=4, radius=1,
                 acquaintance=2, activity_length=4)
        for _ in range(50)
    ]
    start = time.perf_counter()
    stg_results = service.solve_many(temporal_batch)
    elapsed = time.perf_counter() - start
    planned = [r for r in stg_results if r.feasible]
    print(f"STGQ batch: {len(stg_results)} queries in {elapsed:.3f}s "
          f"({len(stg_results) / elapsed:.0f} queries/s), {len(planned)} planned")
    if planned:
        sample = planned[0]
        print(f"  e.g. group {sample.sorted_members()} meeting in slots "
              f"{sample.period.as_tuple()}")

    # 5. Observability: the numbers a capacity planner needs.
    stats = service.stats()
    info = service.cache_info()
    print(f"\nservice stats: {stats.queries} queries "
          f"({stats.sg_queries} SGQ / {stats.stg_queries} STGQ), "
          f"{stats.solve_seconds:.3f}s solver time, "
          f"{stats.nodes_expanded} search nodes")
    print(f"ego-network cache: {info.hits} hits / {info.misses} misses "
          f"(hit rate {info.hit_rate:.0%}, {info.size}/{info.max_size} entries)")

    # 6. Scaling the service: the same traffic through the initiator-sharded
    #    process backend.  Each child worker process owns a shard of the
    #    users — its own graph copy plus a private ego-network cache — so the
    #    GIL-bound kernel work runs on every core at once.  Results and
    #    aggregate stats are identical to the serial backend by contract
    #    (see tests/service/test_backends.py); only the wall clock changes.
    with QueryService(
        dataset.graph, dataset.calendars, cache_size=64, backend="process", max_workers=2
    ) as sharded:
        sharded.solve_many(social_batch)  # warm the worker caches
        start = time.perf_counter()
        sharded_results = sharded.solve_many(social_batch)
        elapsed = time.perf_counter() - start
        sharded_info = sharded.cache_info()
        print(f"\nprocess backend ({sharded.max_workers} workers): "
              f"{len(sharded_results)} queries in {elapsed:.3f}s "
              f"({len(sharded_results) / elapsed:.0f} queries/s, "
              f"hit rate {sharded_info.hit_rate:.0%})")
    assert [r.members for r in sharded_results] == [r.members for r in results]


if __name__ == "__main__":
    main()
