"""repro.service — batched query serving over one shared social graph.

Why a service layer
-------------------
The solvers in :mod:`repro.core` are single-query objects: every call to
``SGSelect.solve`` re-extracts the initiator's feasible graph and recompiles
it for the bitset kernel.  Real deployments look different — one large,
slowly-changing social graph, many concurrent users issuing queries whose
ego networks overlap heavily.  :class:`QueryService` is the piece that turns
the solvers into that shape:

* **Feasible-graph cache** — extracted (and compiled) ego networks are
  LRU-cached per ``(initiator, radius)``, so repeated queries from the same
  initiator — the common case for an activity-planning product — skip both
  the bounded-Bellman–Ford extraction and the bitmask compilation.
* **Pluggable executor backends** — ``solve_many`` delegates to an
  :class:`ExecutorBackend`: ``serial`` (in-process loop over the service
  cache; the default) or ``process`` (initiators sharded across persistent
  worker processes, each with its own graph copy and ego-network cache —
  the backend that scales the GIL-bound compiled kernel across cores).
  See :mod:`repro.service.backends` and :mod:`repro.service.sharding`.
* **One request pipeline** — ``parse_request`` is the one admission check
  every front door (HTTP, JSONL, TCP) runs on a decoded request, and
  ``answer`` / ``answer_async`` return one result or ``ErrorResult`` per
  request, so a bad request never fails its batchmates.  The awaitable form
  lets an asyncio caller pipeline batches; ``stgq serve --jsonl`` exposes it
  as a line-oriented stdin/stdout protocol (:mod:`repro.service.jsonl`).
* **Network cluster** — :mod:`repro.service.net` takes the service past one
  box: ``stgq worker`` serves a local ``QueryService`` over a length-framed
  TCP protocol, :class:`~repro.service.net.RemoteBackend` is the drop-in
  executor backend that shards initiators across those workers (CRC32
  fallback or a load-aware :class:`PlacementMap` with hot-ego replication
  and replica failover — see ``docs/placement.md``).  ``stgq serve
  --backend process --workers N`` is the one-command local fleet: the
  process backend is a ``RemoteBackend`` over ``N`` workers it spawns on
  127.0.0.1.  See ``docs/service.md`` for the architecture page and
  wire-protocol spec.
* **HTTP gateway tier** — :mod:`repro.service.http` is the product front
  door: stateless HTTP/JSON gateways (``stgq http``) with request
  validation, cursor pagination, per-API-key rate limiting and bounded-
  queue admission control that sheds overload with 429 + ``Retry-After``
  instead of melting the fleet.  N gateways front one TCP worker fleet;
  see ``docs/http.md``.
* **Live-graph mutations** — ``apply_mutations`` applies
  add-edge/remove-edge/availability changes to the serving graph, evicts
  exactly the cached egos that contain a touched vertex (reverse vertex
  index), and fans the versioned delta out to every worker — process-pool
  broadcast locally, ``delta``/``snapshot`` frames over TCP, with a
  mutation-log replay and a substrate-reload fallback bridging version
  gaps.  See ``docs/live_graph.md`` and ``stgq mutate``.
* **Observability** — ``stats()`` and ``cache_info()`` expose query counts,
  feasibility ratios, solver time and cache hit rates, the numbers a
  capacity planner needs — aggregated across workers whichever backend runs.
  Accounting flows through per-batch :class:`ExecutionContext` objects
  (:mod:`repro.service.context`): pass your own to ``solve_many`` for exact
  per-batch deltas, opt into per-response solver stats with
  ``"stats": true`` on a request, or run ``stgq stats --connect`` for the
  fleet view.

Quickstart::

    from repro.core import SGQuery
    from repro.datasets import generate_real_dataset
    from repro.service import QueryService

    dataset = generate_real_dataset(n_people=194, seed=42)
    with QueryService(dataset.graph, dataset.calendars, backend="process") as service:
        queries = [
            SGQuery(initiator=person, group_size=5, radius=1, acquaintance=2)
            for person in dataset.people[:50]
        ]
        results = service.solve_many(queries)      # sharded process fan-out
        print(service.stats().as_dict())
        print(service.cache_info())                # hits/misses/size

From the command line the same path is exposed as ``stgq serve`` (see
``python -m repro serve --help``), and ``benchmarks/bench_service.py``
measures the compiled-kernel speedup and per-backend batch throughput.

See ``examples/batch_service.py`` for a narrated end-to-end demo.
"""

from .backends import (
    ALL_BACKEND_NAMES,
    BACKEND_NAMES,
    ExecutorBackend,
    ProcessBackend,
    SerialBackend,
    make_backend,
)
from .codec import ErrorResult, query_from_request, response_for, wants_stats
from .context import ExecutionContext, ServiceStats
from .drain import ShutdownSignal, wait_for_drain
from .http import (
    GatewayApp,
    GatewayConfig,
    HTTPGateway,
    run_gateway,
    start_local_gateways,
)
from .jsonl import serve_jsonl
from .net import (
    LocalWorkerCluster,
    RemoteBackend,
    WorkerServer,
    run_worker,
    start_local_workers,
)
from .placement import PlacementMap, build_placement, load_placement, save_placement
from .query_service import MUTATION_LOG_CAPACITY, CacheInfo, MutationReport, QueryService
from .sharding import RouteMetrics, ShardMap, stable_shard

__all__ = [
    "ALL_BACKEND_NAMES",
    "BACKEND_NAMES",
    "CacheInfo",
    "ErrorResult",
    "ExecutionContext",
    "ExecutorBackend",
    "GatewayApp",
    "GatewayConfig",
    "HTTPGateway",
    "LocalWorkerCluster",
    "MUTATION_LOG_CAPACITY",
    "MutationReport",
    "PlacementMap",
    "ProcessBackend",
    "QueryService",
    "RemoteBackend",
    "RouteMetrics",
    "SerialBackend",
    "ServiceStats",
    "ShardMap",
    "ShutdownSignal",
    "WorkerServer",
    "build_placement",
    "load_placement",
    "make_backend",
    "query_from_request",
    "response_for",
    "run_gateway",
    "run_worker",
    "save_placement",
    "serve_jsonl",
    "stable_shard",
    "start_local_gateways",
    "start_local_workers",
    "wait_for_drain",
    "wants_stats",
]
