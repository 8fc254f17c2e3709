"""Command-line interface.

Three sub-commands mirror how the library is typically used:

``stgq query``
    Answer one SGQ or STGQ on a generated dataset and print the group.

``stgq figure``
    Re-run a panel of the paper's Figure 1 and print the measured table.

``stgq ablation``
    Run the strategy-ablation study on a generated dataset.

``stgq serve``
    Answer queries through the cached :class:`~repro.service.QueryService`
    on a selectable executor backend (``--backend serial|process|remote``,
    default ``serial``), either as a generated benchmark batch or as a
    JSONL request loop over stdin/stdout (``--jsonl``).  ``--backend
    process --workers N`` is the one-command local fleet: N spawned workers
    behind the same sharded dispatch path a gateway uses; ``--backend
    remote --connect host:p1,host:p2`` turns the process into a gateway in
    front of running ``stgq worker`` processes.

``stgq worker``
    Serve a local QueryService over the framed TCP protocol
    (``--listen HOST:PORT``); the building block gateways connect to.

``stgq http``
    Run one HTTP/JSON gateway (``--listen HOST:PORT``): ``POST
    /v1/queries`` (single + batch with cursor pagination), ``GET /health``
    and ``GET /stats``, with bounded-queue admission control (429 +
    ``Retry-After`` load-shedding), optional per-API-key rate limiting and
    a structured JSONL access log.  ``--backend remote --connect ...``
    makes it the stateless front door of a worker fleet; run several for
    the multi-gateway topology (``docs/http.md``).

``stgq stats``
    Operator's view of a running fleet: send the ``stats`` control frame to
    one or more workers (``--connect HOST:PORT[,HOST:PORT...]``) and
    pretty-print each worker's service counters and cache effectiveness —
    no Python REPL required.

``stgq mutate``
    Apply live-graph mutations (see ``docs/live_graph.md``): generate a
    seeded mutation trace (or load one with ``--trace FILE.jsonl``,
    save one with ``--save``), apply it batch-by-batch to the seeded
    dataset's service and — with ``--connect`` — distribute each batch to
    the running workers as versioned delta frames, verifying the whole
    fleet ends at the same live version.

``stgq place``
    Build a load-aware placement map (see ``docs/placement.md``): replay a
    saved workload trace, pack initiators onto ``--workers N`` workers by
    observed per-ego load, replicate the hottest egos across ``--replicas``
    workers and write the result as ``placement.json`` — the file
    ``serve``/``worker``/``http`` accept via ``--placement``
    and the ``placement_update`` control frame distributes live.

``stgq pack``
    Convert a SNAP-style edge list into a packed ``.stgq`` CSR substrate
    file that ``serve``/``worker`` open memory-mapped via ``--graph``.

``stgq inspect``
    Print a ``.stgq`` file's header (vertex/edge counts, array dtypes,
    format revision, content version hash) without loading the arrays.

``serve``/``worker``/``http`` install SIGINT/SIGTERM handlers
that close the service first (draining worker processes, link threads and
sockets), so Ctrl-C never leaks process-backend children.  The serving loops
(``serve --jsonl``, ``worker``, ``http``) drain *in-flight requests* before
exiting — see :mod:`repro.service.drain` — so a mid-batch SIGTERM drops no
accepted work.

Run ``python -m repro --help`` (or ``stgq --help`` once installed) for the
full argument reference.
"""

from __future__ import annotations

import argparse
import contextlib
import random
import signal
import sys
import time
from typing import Iterator, List, Optional, Sequence, Tuple

from .core.planner import ActivityPlanner
from .core.query import VALID_KERNELS, SearchParameters, SGQuery, STGQuery
from .datasets.realistic import generate_real_dataset
from .exceptions import QueryError, ReproError
from .experiments.ablation import format_ablation, run_sg_ablation, run_stg_ablation
from .experiments.config import FIGURE_IDS, ExperimentScale
from .experiments.figures import run_figure
from .experiments.reporting import format_quality_table, format_table
from .experiments.workloads import pick_initiator
from .service import (
    ALL_BACKEND_NAMES,
    BACKEND_NAMES,
    QueryService,
    RemoteBackend,
    make_backend,
    serve_jsonl,
)
from .service.drain import ShutdownSignal
from .service.net import parse_addresses, run_worker
from .service.net.protocol import exchange

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _listen_address(text: str) -> Tuple[str, int]:
    host, _, port_text = text.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {text!r}") from None
    if not host or not 0 <= port < 65536:
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {text!r}")
    return host, port


@contextlib.contextmanager
def _graceful_shutdown() -> Iterator[None]:
    """Translate SIGINT/SIGTERM into ``SystemExit`` for the enclosing scope.

    A raised ``SystemExit`` unwinds the ``with service:`` block, so link
    threads, process-backend children and sockets are drained instead of leaked when
    the operator hits Ctrl-C or an orchestrator sends SIGTERM.  The previous
    handlers are restored on exit (the CLI commands are the outermost layer,
    so nesting is not a concern).
    """

    def _raise(signum: int, frame: object) -> None:
        raise SystemExit(128 + signum)

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _raise)
        except ValueError:  # pragma: no cover - not the main thread
            pass
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def _add_placement_arguments(parser: argparse.ArgumentParser) -> None:
    """``--placement FILE`` / ``--replicas N`` for routing-capable commands."""
    parser.add_argument(
        "--placement",
        default=None,
        metavar="FILE",
        help="route by this placement.json map (stgq place output) instead "
        "of the CRC32 fallback; shard count must match the worker fleet",
    )
    parser.add_argument(
        "--replicas",
        type=_positive_int,
        default=None,
        help="override the loaded map's hot-ego replica width (requires "
        "--placement; 1 collapses replication)",
    )


def _resolve_placement(args: argparse.Namespace):
    """Load ``--placement`` (honouring ``--replicas``) or return ``None``.

    Raises :class:`QueryError` on usage mistakes so callers can render them
    argparse-style (stderr + exit 2).
    """
    from .service import load_placement

    placement_path = getattr(args, "placement", None)
    replicas = getattr(args, "replicas", None)
    if placement_path is None:
        if replicas is not None:
            raise QueryError("--replicas requires --placement FILE")
        return None
    placement = load_placement(placement_path)
    if replicas is not None:
        placement = placement.with_replicas(replicas)
    return placement


def _resolve_backend(args: argparse.Namespace):
    """The executor backend ``serve``/``http``'s backend flag group selects.

    :func:`make_backend` hands ``--workers``, ``--connect``, ``--timeout``
    and the placement map to the backends that use them.  Raises
    :class:`QueryError` on usage mistakes (missing ``--connect``, a
    placement on a backend that does not route or of the wrong width, a
    bad ``--timeout``).
    """
    placement = _resolve_placement(args)
    if placement is not None and args.backend not in ("process", "remote"):
        raise QueryError(
            f"--placement applies to --backend process or remote, not {args.backend!r}"
        )
    if args.backend == "remote" and not args.connect:
        raise QueryError("--backend remote requires --connect host:port[,host:port...]")
    return make_backend(args.backend, args.workers, args.connect, args.timeout, placement)


def build_parser() -> argparse.ArgumentParser:
    """Create the argument parser (exposed for the CLI tests)."""
    parser = argparse.ArgumentParser(
        prog="stgq",
        description="Social-Temporal Group Query reproduction (VLDB 2011).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    query = subparsers.add_parser("query", help="answer one SGQ/STGQ on a generated dataset")
    query.add_argument("--people", type=int, default=194, help="population size (default 194)")
    query.add_argument("--days", type=int, default=1, help="schedule length in days (default 1)")
    query.add_argument("--seed", type=int, default=42, help="dataset seed (default 42)")
    query.add_argument("-p", "--group-size", type=int, required=True, help="activity size p")
    query.add_argument("-s", "--radius", type=int, default=1, help="social radius s (default 1)")
    query.add_argument("-k", "--acquaintance", type=int, default=1, help="acquaintance constraint k")
    query.add_argument(
        "-m",
        "--activity-length",
        type=int,
        default=None,
        help="activity length in slots; omit for a purely social query (SGQ)",
    )
    query.add_argument(
        "--algorithm",
        default=None,
        help="solver to use (sgselect/stgselect/baseline/ip/pcarrange/greedy)",
    )
    query.add_argument("--initiator", type=int, default=None, help="initiator id (default: auto)")

    figure = subparsers.add_parser("figure", help="re-run a panel of the paper's Figure 1")
    figure.add_argument("panel", choices=list(FIGURE_IDS), help="which panel to run (1a..1h)")
    figure.add_argument(
        "--scale",
        choices=[s.value for s in ExperimentScale],
        default=ExperimentScale.SMOKE.value,
        help="experiment scale (default smoke)",
    )
    figure.add_argument("--repetitions", type=int, default=1, help="timing repetitions per point")
    figure.add_argument("--csv", action="store_true", help="emit CSV instead of a table")

    ablation = subparsers.add_parser("ablation", help="strategy ablation study")
    ablation.add_argument("--people", type=int, default=120)
    ablation.add_argument("--days", type=int, default=1)
    ablation.add_argument("--seed", type=int, default=42)
    ablation.add_argument("-p", "--group-size", type=int, default=5)
    ablation.add_argument("-s", "--radius", type=int, default=1)
    ablation.add_argument("-k", "--acquaintance", type=int, default=2)
    ablation.add_argument("-m", "--activity-length", type=int, default=None)

    def add_dataset_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--people", type=int, default=194, help="population size (default 194)")
        sub.add_argument("--days", type=int, default=1, help="schedule length in days (default 1)")
        sub.add_argument("--seed", type=int, default=42, help="dataset/batch seed (default 42)")

    def add_substrate_argument(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--graph",
            default=None,
            metavar="FILE.stgq",
            help="serve a packed CSR substrate opened memory-mapped (see 'stgq "
            "pack') instead of generating a --people dataset; calendars are "
            "materialised lazily from --seed",
        )

    def add_service_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--cache-size", type=_positive_int, default=128, help="feasible-graph cache entries"
        )
        sub.add_argument(
            "--kernel",
            choices=list(VALID_KERNELS),
            default="compiled",
            help="branch-and-bound kernel (default compiled; reference is the "
            "slow executable specification)",
        )

    def add_backend_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--backend",
            choices=list(ALL_BACKEND_NAMES),
            default="serial",
            help=(
                "executor backend: 'serial' (in-process loop over one ego cache), "
                "'process' (initiator-sharded worker processes, one graph copy + "
                "ego cache each; scales across cores), 'remote' (initiator-sharded "
                "TCP workers; needs --connect) (default serial)"
            ),
        )
        sub.add_argument(
            "--workers",
            type=_positive_int,
            default=None,
            help="worker processes (= shards) for --backend process (default: auto)",
        )
        sub.add_argument(
            "--connect",
            default=None,
            help="worker addresses for --backend remote, e.g. "
            "'127.0.0.1:9001,127.0.0.1:9002' (shard count = address count)",
        )
        sub.add_argument(
            "--timeout",
            type=float,
            default=30.0,
            help="per-request timeout in seconds for --backend process or remote "
            "(default 30)",
        )
        _add_placement_arguments(sub)

    def add_traffic_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--queries", type=int, default=100, help="batch size (default 100)")
        sub.add_argument(
            "--initiators",
            type=_positive_int,
            default=16,
            help="number of distinct initiators to draw queries from (default 16)",
        )
        sub.add_argument(
            "--jsonl",
            action="store_true",
            help="serve JSONL requests from stdin to stdout until EOF instead of "
            "generating a batch (stats summary goes to stderr)",
        )
        sub.add_argument(
            "--batch-size",
            type=_positive_int,
            default=64,
            help="pipelining batch size for --jsonl (default 64)",
        )
        sub.add_argument("-p", "--group-size", type=int, default=5)
        sub.add_argument("-s", "--radius", type=int, default=1)
        sub.add_argument("-k", "--acquaintance", type=int, default=2)
        sub.add_argument(
            "-m",
            "--activity-length",
            type=int,
            default=None,
            help="activity length in slots; omit for a purely social (SGQ) batch",
        )

    serve = subparsers.add_parser(
        "serve",
        help="answer queries through the cached QueryService (selectable executor backend)",
        description=(
            "Serve SGQ/STGQ traffic through the cached QueryService. Scaling the "
            "service: --backend serial (default) solves in-process against one "
            "ego-network cache; the compiled kernel is GIL-bound, so it uses one "
            "core. --backend process shards initiators across worker processes it "
            "spawns, each holding its own graph copy and ego-network LRU cache; "
            "queries always route to the worker owning their initiator, so caches "
            "stay hot and popcount-heavy batches scale across cores. --backend "
            "remote --connect host:p1,host:p2 shards the same way across stgq "
            "worker processes over TCP — the cluster gateway. With --jsonl the "
            "command turns into a stdin/stdout JSONL request loop (one request "
            "per line, responses in request order) instead of generating a "
            "synthetic batch."
        ),
    )
    add_dataset_arguments(serve)
    add_substrate_argument(serve)
    add_traffic_arguments(serve)
    add_backend_arguments(serve)
    add_service_arguments(serve)

    worker = subparsers.add_parser(
        "worker",
        help="serve a QueryService over the framed TCP protocol (cluster building block)",
        description=(
            "Run one cluster worker: a QueryService on the seeded dataset behind "
            "an asyncio TCP server speaking the length-framed stgq protocol "
            "(hello/ping/stats control frames + batch query frames). Gateways "
            "(stgq serve --backend remote) route each initiator's queries to the "
            "worker owning its shard, so this worker's ego-network cache stays "
            "hot for its share of users. Prints 'STGQ-WORKER-READY host port' "
            "once listening (port 0 picks an ephemeral port)."
        ),
    )
    worker.add_argument(
        "--listen",
        type=_listen_address,
        default=("127.0.0.1", 0),
        metavar="HOST:PORT",
        help="address to bind (default 127.0.0.1:0 = ephemeral port)",
    )
    add_dataset_arguments(worker)
    add_substrate_argument(worker)
    worker.add_argument(
        "--backend",
        choices=list(BACKEND_NAMES),
        default="serial",
        help="executor backend of this worker's local service (default serial)",
    )
    worker.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="worker processes (= shards) for --backend process (default: auto)",
    )
    _add_placement_arguments(worker)
    add_service_arguments(worker)

    http = subparsers.add_parser(
        "http",
        help="run an HTTP/JSON gateway with admission control and load-shedding",
        description=(
            "Serve the query service over HTTP: POST /v1/queries answers one "
            "query object or a {'queries': [...]} batch (cursor pagination, "
            "bounded page size), GET /health reports fleet/cache/live-version "
            "state and GET /stats the service counters. Requests beyond "
            "--max-concurrency wait in a bounded queue of --max-queue; the "
            "rest are shed immediately with 429 + Retry-After, so overload "
            "costs the fleet nothing. --rate-limit adds per-client token "
            "buckets keyed on the X-API-Key header. Every request is logged "
            "as one JSON line (latency, status, shed/ratelimited outcome). "
            "Prints 'STGQ-HTTP-READY host port' once listening (port 0 picks "
            "an ephemeral port); SIGTERM drains in-flight requests before "
            "exit. Gateways are stateless: run N of them over one --connect "
            "worker fleet for the multi-gateway topology (docs/http.md)."
        ),
    )
    http.add_argument(
        "--listen",
        type=_listen_address,
        default=("127.0.0.1", 8080),
        metavar="HOST:PORT",
        help="address to bind (default 127.0.0.1:8080; port 0 = ephemeral)",
    )
    add_dataset_arguments(http)
    add_substrate_argument(http)
    add_backend_arguments(http)
    add_service_arguments(http)
    http.add_argument(
        "--max-concurrency",
        type=_positive_int,
        default=8,
        help="requests solving at once before newcomers queue (default 8)",
    )
    http.add_argument(
        "--max-queue",
        type=int,
        default=16,
        help="requests allowed to wait for a solve slot; beyond this they "
        "are shed with 429 + Retry-After (default 16; 0 = shed immediately "
        "at full concurrency)",
    )
    http.add_argument(
        "--retry-after",
        type=float,
        default=1.0,
        help="Retry-After hint in seconds on shed responses (default 1)",
    )
    http.add_argument(
        "--rate-limit",
        default=None,
        metavar="RATE[:BURST]",
        help="per-client token bucket keyed on the X-API-Key header (fall "
        "back: client IP): RATE tokens/s with BURST capacity, e.g. '10' or "
        "'10:25' (default: disabled)",
    )
    http.add_argument(
        "--admit-timeout",
        type=float,
        default=10.0,
        help="max seconds a request waits in the admission queue before "
        "being shed anyway (default 10)",
    )
    http.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="max seconds the SIGTERM drain waits for in-flight requests "
        "(default 30)",
    )
    http.add_argument(
        "--access-log",
        default="-",
        metavar="PATH",
        help="JSONL access-log destination: '-' for stderr (default), "
        "'none' to disable, or a file path (appended)",
    )

    stats = subparsers.add_parser(
        "stats",
        help="fetch and pretty-print live worker stats over the wire",
        description=(
            "Send the stats control frame to one or more running stgq workers "
            "and pretty-print each worker's service counters (queries, "
            "feasibility split, solver seconds, nodes expanded) and cache "
            "effectiveness. Unreachable workers are reported and the command "
            "exits non-zero if no worker answered."
        ),
    )
    stats.add_argument(
        "--connect",
        required=True,
        help="worker addresses, e.g. '127.0.0.1:9001,127.0.0.1:9002'",
    )
    stats.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        help="per-worker connect/read timeout in seconds (default 5)",
    )
    stats.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON object per worker instead of the table",
    )

    mutate = subparsers.add_parser(
        "mutate",
        help="apply (and optionally distribute) a live-graph mutation trace",
        description=(
            "Replay a mutation trace against the seeded dataset's service. "
            "Without --trace a seeded trace is generated (--count/--trace-seed), "
            "so the same flags produce the same mutations everywhere; --save "
            "writes the trace as JSONL for later replay. With --connect the "
            "trace is distributed batch-by-batch to running stgq workers as "
            "versioned delta frames (gaps bridged by log replay or snapshot), "
            "and the command verifies every worker ends at the gateway's live "
            "version. Prints applied counts, targeted-invalidation totals and "
            "the final fleet version."
        ),
    )
    add_dataset_arguments(mutate)
    add_substrate_argument(mutate)
    mutate.add_argument(
        "--count",
        type=_positive_int,
        default=32,
        help="mutations to generate when no --trace is given (default 32)",
    )
    mutate.add_argument(
        "--trace-seed",
        type=int,
        default=7,
        help="seed for the generated mutation trace (default 7)",
    )
    mutate.add_argument(
        "--trace",
        default=None,
        metavar="FILE.jsonl",
        help="replay this JSONL mutation trace instead of generating one",
    )
    mutate.add_argument(
        "--save",
        default=None,
        metavar="FILE.jsonl",
        help="write the trace as JSONL (one mutation per line) and continue",
    )
    mutate.add_argument(
        "--batch-size",
        type=_positive_int,
        default=8,
        help="mutations per distributed batch (default 8)",
    )
    mutate.add_argument(
        "--connect",
        default=None,
        help="distribute to these workers as delta frames, e.g. "
        "'127.0.0.1:9001,127.0.0.1:9002'",
    )
    mutate.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-request timeout in seconds for --connect (default 30)",
    )
    mutate.add_argument(
        "--cache-size", type=_positive_int, default=128, help="feasible-graph cache entries"
    )

    place = subparsers.add_parser(
        "place",
        help="build a load-aware placement map from a saved workload trace",
        description=(
            "Offline placement pass (docs/placement.md): replay a workload "
            "trace (save_workload JSONL — the format stgq serve --jsonl and "
            "bench_service.py --replay consume), count queries per initiator, "
            "pack initiators onto --workers N workers greedily by descending "
            "load, and replicate any ego whose load alone reaches a worker's "
            "fair share across --replicas workers. Initiators absent from "
            "the trace route via a virtual-node consistent-hash ring. Writes "
            "the versioned map as placement.json (-o) for --placement / the "
            "placement_update control frame, and prints per-worker load "
            "shares with the CRC32-fallback comparison."
        ),
    )
    place.add_argument("trace", metavar="TRACE.jsonl", help="workload trace to replay")
    place.add_argument(
        "--workers",
        type=_positive_int,
        required=True,
        help="worker fleet size the map routes over (= shard count)",
    )
    place.add_argument(
        "--replicas",
        type=_positive_int,
        default=2,
        help="replica width for hot egos (default 2; 1 disables replication)",
    )
    place.add_argument(
        "--vnodes",
        type=_positive_int,
        default=None,
        help="virtual nodes per worker on the fallback ring (default 64)",
    )
    place.add_argument(
        "--ring-seed",
        type=int,
        default=0,
        help="seed for the ring's vnode positions (default 0)",
    )
    place.add_argument(
        "--map-version",
        type=_positive_int,
        default=1,
        help="version stamped into the map (>= 1; workers adopt only "
        "strictly newer versions) (default 1)",
    )
    place.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="placement.json",
        help="write the map here (omit for a dry run that only prints)",
    )
    place.add_argument(
        "--json",
        action="store_true",
        help="emit the map plus the load report as one JSON object",
    )

    pack = subparsers.add_parser(
        "pack",
        help="convert an edge list into a packed .stgq CSR substrate file",
        description=(
            "Read a SNAP-style edge list (integer ids, 'u v [distance]' lines, "
            "# comments; self-loops dropped, duplicate edges deduplicated) and "
            "write it as a single .stgq file: CSR adjacency arrays behind a "
            "JSON header, ready for serve/worker to open memory-mapped via "
            "--graph. Prints the vertex/edge counts and the content version "
            "hash of the packed substrate."
        ),
    )
    pack.add_argument("edgelist", help="input edge-list file")
    pack.add_argument("output", metavar="OUT.stgq", help="destination substrate file")
    pack.add_argument(
        "--quantize",
        action="store_true",
        help="store edge weights as int32 against a header scale factor "
        "(format 2): halves the file's dominant array at a bounded ~2**-31 "
        "relative weight error; 'stgq inspect' reports the dtype",
    )

    inspect_parser = subparsers.add_parser(
        "inspect",
        help="print a .stgq substrate file's header",
        description=(
            "Decode the JSON header of a packed substrate file — vertex and "
            "edge counts, per-array dtypes, on-disk format revision and the "
            "content version hash — without touching the array payloads."
        ),
    )
    inspect_parser.add_argument("file", metavar="FILE.stgq", help="substrate file to inspect")
    inspect_parser.add_argument(
        "--json", action="store_true", help="emit the header as one JSON object"
    )

    return parser


def _command_query(args: argparse.Namespace) -> int:
    dataset = generate_real_dataset(
        n_people=args.people, schedule_days=args.days, seed=args.seed
    )
    initiator = args.initiator
    if initiator is None:
        initiator = pick_initiator(dataset, args.radius, min_candidates=args.group_size + 2)
    planner = ActivityPlanner(dataset.graph, dataset.calendars)

    if args.activity_length is None:
        algorithm = args.algorithm or "sgselect"
        result = planner.find_group(
            initiator=initiator,
            group_size=args.group_size,
            radius=args.radius,
            acquaintance=args.acquaintance,
            algorithm=algorithm,
        )
        print(f"initiator: {initiator}")
        if not result.feasible:
            print("no feasible group")
            return 1
        print(f"group ({algorithm}): {result.sorted_members()}")
        print(f"total social distance: {result.total_distance:.2f}")
        return 0

    algorithm = args.algorithm or "stgselect"
    result = planner.find_group_and_time(
        initiator=initiator,
        group_size=args.group_size,
        activity_length=args.activity_length,
        radius=args.radius,
        acquaintance=args.acquaintance,
        algorithm=algorithm,
    )
    print(f"initiator: {initiator}")
    if not result.feasible:
        print("no feasible group and activity period")
        return 1
    print(f"group ({algorithm}): {result.sorted_members()}")
    print(f"total social distance: {result.total_distance:.2f}")
    print(f"activity period (slots): {result.period.as_tuple()}")
    return 0


def _command_figure(args: argparse.Namespace) -> int:
    from .experiments.reporting import to_csv

    series = run_figure(
        args.panel, scale=ExperimentScale(args.scale), repetitions=args.repetitions
    )
    if args.csv:
        print(to_csv(series), end="")
    elif args.panel in ("1g", "1h"):
        print(format_quality_table(series))
    else:
        print(format_table(series))
    return 0


def _command_ablation(args: argparse.Namespace) -> int:
    dataset = generate_real_dataset(
        n_people=args.people, schedule_days=args.days, seed=args.seed
    )
    initiator = pick_initiator(dataset, args.radius, min_candidates=args.group_size + 2)
    if args.activity_length is None:
        report = run_sg_ablation(
            dataset, initiator, args.group_size, args.radius, args.acquaintance
        )
    else:
        report = run_stg_ablation(
            dataset,
            initiator,
            args.group_size,
            args.radius,
            args.acquaintance,
            args.activity_length,
        )
    print(format_ablation(report))
    return 0


def _load_service_dataset(args: argparse.Namespace):
    """Dataset for serve/worker: a packed substrate (``--graph``) or generated.

    ``--graph FILE.stgq`` opens the CSR substrate memory-mapped — every
    worker process attached to the same file shares one page-cache copy of
    the adjacency — with per-person calendars materialised lazily from
    ``--seed``.  Without it, the seeded 194-style dataset is generated as
    before.
    """
    if getattr(args, "graph", None):
        from .datasets.scale import dataset_from_substrate

        return dataset_from_substrate(args.graph, schedule_days=args.days, seed=args.seed)
    return generate_real_dataset(
        n_people=args.people, schedule_days=args.days, seed=args.seed
    )


def _service_session(args: argparse.Namespace, dataset, service: QueryService) -> int:
    """The ``stgq serve`` body: JSONL loop or a generated batch."""
    with service:
        if args.jsonl:
            # Deferred-signal serving: SIGTERM/SIGINT stop the read loop and
            # drain the in-flight batch plus every line already read (see
            # repro.service.drain) instead of raising mid-batch — so an
            # orchestrator's TERM drops no accepted requests.  Installed
            # inside any _graceful_shutdown scope; restored on exit.
            with ShutdownSignal() as stop:
                served = serve_jsonl(
                    service, sys.stdin, sys.stdout, batch_size=args.batch_size, stop=stop
                )
            if stop.triggered:
                print("signal received; drained in-flight requests", file=sys.stderr)
            stats = service.stats()
            info = service.cache_info()
            print(
                f"served {served} requests (backend={service.backend_name}, "
                f"workers={service.max_workers}); solver time {stats.solve_seconds:.3f} s, "
                f"cache hit rate {info.hit_rate:.0%}",
                file=sys.stderr,
            )
            return 0

        rng = random.Random(args.seed)
        pool = list(dataset.people)
        initiators = rng.sample(pool, min(args.initiators, len(pool)))

        queries: List = []
        for _ in range(args.queries):
            initiator = rng.choice(initiators)
            if args.activity_length is None:
                queries.append(
                    SGQuery(
                        initiator=initiator,
                        group_size=args.group_size,
                        radius=args.radius,
                        acquaintance=args.acquaintance,
                    )
                )
            else:
                queries.append(
                    STGQuery(
                        initiator=initiator,
                        group_size=args.group_size,
                        radius=args.radius,
                        acquaintance=args.acquaintance,
                        activity_length=args.activity_length,
                    )
                )

        start = time.perf_counter()
        results = service.solve_many(queries)
        elapsed = time.perf_counter() - start

        stats = service.stats()
        info = service.cache_info()
    feasible = sum(1 for r in results if r.feasible)
    errors = sum(1 for r in results if getattr(r, "error", None))
    kind = "SGQ" if args.activity_length is None else "STGQ"
    print(f"batch: {len(results)} {kind} queries over {dataset.graph.vertex_count} people "
          f"({len(initiators)} initiators, kernel={args.kernel})")
    print(f"feasible: {feasible}/{len(results)}" + (f"  (errors: {errors})" if errors else ""))
    print(f"wall clock: {elapsed:.3f} s  ({len(results) / elapsed:.1f} queries/s, "
          f"backend={service.backend_name}, workers={service.max_workers})")
    print(f"solver time: {stats.solve_seconds:.3f} s across {stats.nodes_expanded} nodes")
    print(f"cache: {info.hits} hits / {info.misses} misses "
          f"(hit rate {info.hit_rate:.0%}, {info.size}/{info.max_size} entries)")
    return 0


def _build_gateway_service(args: argparse.Namespace, dataset, backend) -> QueryService:
    return QueryService(
        dataset.graph,
        dataset.calendars,
        parameters=SearchParameters(kernel=args.kernel),
        cache_size=args.cache_size,
        backend=backend,
    )


def _shutdown_code(exc: SystemExit) -> int:
    print("signal received; service closed cleanly", file=sys.stderr)
    return exc.code if isinstance(exc.code, int) else 130


def _command_serve(args: argparse.Namespace) -> int:
    # Usage mistakes (missing/malformed --connect, bad --timeout, a junk
    # --placement file, a missing --graph) are answered like argparse does
    # (stderr + exit 2), not a traceback.
    try:
        backend = _resolve_backend(args)
        dataset = _load_service_dataset(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with _graceful_shutdown():
        service = _build_gateway_service(args, dataset, backend)
        try:
            return _service_session(args, dataset, service)
        except SystemExit as exc:
            return _shutdown_code(exc)


def _command_worker(args: argparse.Namespace) -> int:
    try:
        # The worker stores the map (hello/batch_result advertise its
        # version; placement_get serves it) — its *local* backend keeps its
        # own routing, so the stored copy is distribution state, not a
        # constraint on this worker's executor width.
        placement = _resolve_placement(args)
    except QueryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        dataset = _load_service_dataset(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    host, port = args.listen
    service = QueryService(
        dataset.graph,
        dataset.calendars,
        parameters=SearchParameters(kernel=args.kernel),
        cache_size=args.cache_size,
        max_workers=args.workers,
        backend=args.backend,
    )
    with service:
        code = run_worker(service, host, port, announce=sys.stdout, placement=placement)
        stats = service.stats()
        info = service.cache_info()
        print(
            f"worker stopping (backend={service.backend_name}); answered "
            f"{stats.queries} queries, solver time {stats.solve_seconds:.3f} s, "
            f"cache hit rate {info.hit_rate:.0%}",
            file=sys.stderr,
        )
    return code


def _command_http(args: argparse.Namespace) -> int:
    from .service.http import AccessLog, GatewayConfig, parse_rate_spec, run_gateway

    rate = burst = None
    if args.rate_limit is not None:
        try:
            rate, burst = parse_rate_spec(args.rate_limit)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.max_queue < 0:
        print(f"error: --max-queue must be >= 0, got {args.max_queue}", file=sys.stderr)
        return 2
    try:
        backend = _resolve_backend(args)
        dataset = _load_service_dataset(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    log_stream = None
    opened = None
    if args.access_log == "-":
        log_stream = sys.stderr
    elif args.access_log != "none":
        try:
            opened = log_stream = open(args.access_log, "a", encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot open access log {args.access_log!r}: {exc}", file=sys.stderr)
            return 2

    host, port = args.listen
    config = GatewayConfig(
        max_concurrency=args.max_concurrency,
        max_queue=args.max_queue,
        retry_after=args.retry_after,
        rate=rate,
        burst=burst,
        admit_timeout=args.admit_timeout,
        drain_timeout=args.drain_timeout,
    )
    service = _build_gateway_service(args, dataset, backend)
    try:
        # run_gateway owns the drained SIGTERM/SIGINT shutdown and closes
        # the service (executor pools, worker connections) on the way out.
        code = run_gateway(
            service,
            host=host,
            port=port,
            config=config,
            access_log=AccessLog(log_stream),
            announce=True,
        )
    except OSError as exc:  # e.g. port already bound
        print(f"error: cannot listen on {host}:{port}: {exc}", file=sys.stderr)
        service.close()
        return 1
    finally:
        if opened is not None:
            opened.close()
    stats = service.stats()
    info = service.cache_info()
    print(
        f"gateway stopping (backend={service.backend_name}); answered "
        f"{stats.queries} queries, solver time {stats.solve_seconds:.3f} s, "
        f"cache hit rate {info.hit_rate:.0%}",
        file=sys.stderr,
    )
    return code


def _print_worker_stats(label: str, reply: dict) -> None:
    hello = reply.get("hello", {})
    stats = reply.get("stats", {})
    cache = reply.get("cache", {})
    print(f"worker {label}  (backend={hello.get('backend', '?')}, "
          f"workers={hello.get('workers', '?')}, graph={hello.get('graph_size', '?')} vertices)")
    queries = stats.get("queries", 0)
    solve_seconds = stats.get("solve_seconds", 0.0)
    rate = queries / solve_seconds if solve_seconds else 0.0
    print(f"  queries:      {queries} "
          f"({stats.get('sg_queries', 0)} SGQ / {stats.get('stg_queries', 0)} STGQ; "
          f"{stats.get('feasible', 0)} feasible, {stats.get('infeasible', 0)} infeasible)")
    print(f"  solver:       {solve_seconds:.3f} s over {stats.get('nodes_expanded', 0)} nodes"
          + (f"  ({rate:.1f} solved q/s)" if rate else ""))
    hits = cache.get("hits", 0)
    misses = cache.get("misses", 0)
    lookups = hits + misses
    hit_rate = f"{hits / lookups:.0%}" if lookups else "n/a"
    print(f"  cache:        {hits} hits / {misses} misses (hit rate {hit_rate}, "
          f"{cache.get('size', 0)}/{cache.get('max_size', 0)} entries)")
    placement_version = reply.get("placement_version", 0)
    print(f"  placement:    version {placement_version}"
          + ("" if placement_version else " (none stored; CRC32 fallback)"))
    routing = reply.get("routing")
    if routing:
        routed = routing.get("routed", [])
        print(f"  routing:      {routing.get('strategy', '?')} over "
              f"{routing.get('n_shards', '?')} shards; last imbalance "
              f"{routing.get('last_imbalance', 0.0):.2f}x (max "
              f"{routing.get('max_imbalance', 0.0):.2f}x, "
              f"{routing.get('skewed_batches', 0)}/{routing.get('measured_batches', 0)} "
              f"skewed batches); routed {routed}")


def _command_stats(args: argparse.Namespace) -> int:
    import json as json_module

    try:
        addresses = parse_addresses(args.connect)
    except QueryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reached = 0
    for host, port in addresses:
        label = f"{host}:{port}"
        try:
            hello, reply = exchange((host, port), {"type": "stats"}, args.timeout)
            if reply.get("type") != "stats":
                raise QueryError(f"unexpected reply type {reply.get('type')!r}")
        except (OSError, ReproError) as exc:
            print(f"worker {label}  UNREACHABLE: {exc}", file=sys.stderr)
            continue
        reply["hello"] = hello
        reached += 1
        if args.json:
            print(json_module.dumps({"worker": label, **reply}, sort_keys=True))
        else:
            _print_worker_stats(label, reply)
    if reached < len(addresses):
        print(f"{reached}/{len(addresses)} workers answered", file=sys.stderr)
    return 0 if reached else 1


def _command_mutate(args: argparse.Namespace) -> int:
    from .graph.mutations import (
        generate_mutation_trace,
        load_mutation_trace,
        save_mutation_trace,
    )

    try:
        dataset = _load_service_dataset(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        try:
            trace = load_mutation_trace(args.trace)
        except (OSError, ReproError) as exc:
            print(f"error: cannot load trace {args.trace!r}: {exc}", file=sys.stderr)
            return 1
        print(f"loaded {len(trace)} mutations from {args.trace}")
    else:
        trace = generate_mutation_trace(
            dataset.graph,
            args.count,
            seed=args.trace_seed,
            horizon=dataset.calendars.horizon,
        )
        print(f"generated {len(trace)} mutations (trace seed {args.trace_seed})")
    if args.save:
        try:
            save_mutation_trace(args.save, trace)
        except OSError as exc:
            print(f"error: cannot save trace to {args.save!r}: {exc}", file=sys.stderr)
            return 1
        print(f"saved trace -> {args.save}")
    if not trace:
        print("empty trace; nothing to apply")
        return 0

    if args.connect:
        try:
            backend = RemoteBackend(args.connect, timeout=args.timeout)
        except QueryError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        backend = "serial"
    service = QueryService(
        dataset.graph, dataset.calendars, cache_size=args.cache_size, backend=backend
    )
    batches = 0
    worker_invalidations = 0
    with service, _graceful_shutdown():
        try:
            for start in range(0, len(trace), args.batch_size):
                report = service.apply_mutations(trace[start : start + args.batch_size])
                batches += 1
                worker_invalidations += report.worker_invalidations
        except ReproError as exc:
            print(f"error applying batch {batches + 1}: {exc}", file=sys.stderr)
            return 1
        except SystemExit as exc:
            return _shutdown_code(exc)
        stats = service.stats()
        version = service.live_version
        print(
            f"applied {stats.mutations} mutations in {batches} batches "
            f"-> live version {version}"
        )
        print(
            f"targeted invalidation: {stats.invalidations} gateway entries"
            + (f", {worker_invalidations} worker entries" if args.connect else "")
            + f" ({stats.invalidations_per_mutation:.2f} per mutation)"
        )
        if args.connect:
            # The distribution already guarantees this (apply_mutations
            # raises on an incomplete fleet), but the operator gets the
            # receipt: every worker's advertised live version.
            mismatched = []
            for host, port in parse_addresses(args.connect):
                label = f"{host}:{port}"
                try:
                    hello, _ = exchange((host, port), timeout=args.timeout)
                except (OSError, ReproError) as exc:
                    print(f"worker {label}  UNREACHABLE: {exc}", file=sys.stderr)
                    mismatched.append(label)
                    continue
                worker_version = hello.get("live_version")
                marker = "ok" if worker_version == version else "MISMATCH"
                if worker_version != version:
                    mismatched.append(label)
                print(f"worker {label}  live version {worker_version}  [{marker}]")
            if mismatched:
                print(
                    f"fleet inconsistent: {len(mismatched)} worker(s) not at "
                    f"version {version}",
                    file=sys.stderr,
                )
                return 1
            print(f"fleet consistent at live version {version}")
    return 0


def _command_place(args: argparse.Namespace) -> int:
    import json as json_module

    from .experiments.workloads import load_workload
    from .service import ShardMap, build_placement, save_placement
    from .service.sharding import IMBALANCE_WARN_THRESHOLD

    try:
        queries = load_workload(args.trace)
    except OSError as exc:
        print(f"error: cannot read trace {args.trace!r}: {exc}", file=sys.stderr)
        return 1
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    kwargs = {}
    if args.vnodes is not None:
        kwargs["vnodes"] = args.vnodes
    try:
        placement = build_placement(
            queries,
            args.workers,
            replicas=args.replicas,
            seed=args.ring_seed,
            version=args.map_version,
            **kwargs,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    crc32 = ShardMap(args.workers)
    routed = placement.load_report(queries)
    total = sum(routed)
    report = {
        "trace": args.trace,
        "queries": total,
        "initiators": len({q.initiator for q in queries}),
        "map": placement.as_wire(),
        "load_shares": routed,
        "imbalance": placement.imbalance(queries),
        "crc32_imbalance": crc32.imbalance(queries),
        "threshold": IMBALANCE_WARN_THRESHOLD,
    }
    if args.output:
        try:
            save_placement(placement, args.output)
        except OSError as exc:
            print(f"error: cannot write {args.output!r}: {exc}", file=sys.stderr)
            return 1
        report["output"] = args.output
    if args.json:
        print(json_module.dumps(report, sort_keys=True, default=str))
        return 0
    print(
        f"placement:  version {placement.version} over {placement.n_shards} workers "
        f"(vnodes {placement.vnodes}, ring seed {placement.seed})"
    )
    print(f"trace:      {total} queries over {report['initiators']} initiators ({args.trace})")
    print(
        f"hot egos:   {len(placement.replicas)} replicated "
        f"x{args.replicas}, {len(placement.assignments)} assigned"
    )
    print("load shares (trace replay):")
    peak = max(routed) if routed and max(routed) else 1
    for shard, count in enumerate(routed):
        share = count / total if total else 0.0
        bar = "#" * max(1 if count else 0, round(24 * count / peak))
        print(f"  worker {shard}:  {count:6d} queries  ({share:6.1%})  {bar}")
    verdict = "balanced" if report["imbalance"] < IMBALANCE_WARN_THRESHOLD else "SKEWED"
    print(
        f"imbalance:  {report['imbalance']:.2f}x load-aware vs "
        f"{report['crc32_imbalance']:.2f}x crc32 fallback "
        f"(threshold {IMBALANCE_WARN_THRESHOLD}x) [{verdict}]"
    )
    if args.output:
        print(f"wrote {args.output}")
    return 0


def _command_pack(args: argparse.Namespace) -> int:
    from .graph.csr import csr_available, pack_graph
    from .graph.io import read_snap_edge_list

    if not csr_available():
        print("error: 'stgq pack' requires numpy (install the [speed] extra)", file=sys.stderr)
        return 2
    try:
        graph = read_snap_edge_list(args.edgelist)
    except OSError as exc:
        print(f"error: cannot read {args.edgelist!r}: {exc}", file=sys.stderr)
        return 1
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        csr = pack_graph(graph, args.output, quantize=args.quantize)
    except (OSError, ReproError) as exc:
        print(f"error: cannot pack to {args.output!r}: {exc}", file=sys.stderr)
        return 1
    print(f"packed {csr.vertex_count} vertices / {csr.edge_count} edges -> {args.output}")
    if args.quantize:
        print("weights: int32-quantized (dequantised on load via the header scale)")
    print(f"version: {csr.version}")
    return 0


def _command_inspect(args: argparse.Namespace) -> int:
    import json as json_module

    from .graph.csr import inspect_stgq

    try:
        info = inspect_stgq(args.file)
    except OSError as exc:
        print(f"error: cannot read {args.file!r}: {exc}", file=sys.stderr)
        return 1
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json_module.dumps(info, sort_keys=True))
        return 0
    def _dtype_name(spec: str) -> str:
        try:
            import numpy

            return numpy.dtype(spec).name
        except Exception:
            return spec

    dtypes = ", ".join(
        f"{name}={_dtype_name(dtype)}" for name, dtype in sorted(info["dtypes"].items())
    )
    print(f"substrate:  {info['path']}  ({info['file_bytes']} bytes, format {info['format']})")
    print(f"vertices:   {info['n']}  ({'identity ids 0..n-1' if info['identity_ids'] else 'labelled ids'})")
    print(f"edges:      {info['m']}")
    print(f"arrays:     {dtypes}")
    if info.get("quantized"):
        print(f"weights:    int32-quantized (scale {info.get('weight_scale')})")
    print(f"version:    {info['version']}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``stgq`` console script and ``python -m repro``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "query":
        return _command_query(args)
    if args.command == "figure":
        return _command_figure(args)
    if args.command == "ablation":
        return _command_ablation(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "worker":
        return _command_worker(args)
    if args.command == "http":
        return _command_http(args)
    if args.command == "stats":
        return _command_stats(args)
    if args.command == "mutate":
        return _command_mutate(args)
    if args.command == "place":
        return _command_place(args)
    if args.command == "pack":
        return _command_pack(args)
    if args.command == "inspect":
        return _command_inspect(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
