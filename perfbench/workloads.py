"""The workloads: fixed request lists, deployments, fixed rates.

Datasets are fixed (the shipped defaults: the 194-person dataset with seed
42; the scale graph with seed 7), and so is the list of requests each phase
of a run sends, so every seed measures the same work: ``hot-sgq`` realises
Zipf popularity as exact per-initiator counts, ``mutating-mix`` draws its
reads and its mutation trace once with seed 0, and ``scale-stgq`` sends each
ego once.  ``--seed`` shuffles the order of both lists and draws the open
loop's arrival times.  Why each workload exists is recorded in ``README.md``.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.datasets.realistic import generate_real_dataset
from repro.experiments.workloads import generate_query_workload, zipfian_weights
from repro.service.codec import request_for

#: Serving fleet of the gateway workloads: one gateway over this many workers.
FLEET_WORKERS = 2
#: Scale graph of ``scale-stgq`` (seeded Chung-Lu, packed to ``.stgq``).
SCALE_VERTICES = 20_000
SCALE_GRAPH_SEED = 7
#: Distinct ``scale-stgq`` egos solved during warm-up.
WARM_EGOS = 16


@dataclass
class Workload:
    name: str
    #: "fleet" = ``stgq http`` over ``stgq worker``s; "jsonl" = ``stgq serve --jsonl``.
    topology: str
    #: Open-loop arrival rate (queries/s), fixed once on the reference machine.
    rate: float
    #: Closed-loop capacity (queries/s) of the commit that defined the
    #: benchmark; sizes the closed-loop request list to fill its phase there.
    capacity: float
    #: Mutation batches per second through the in-process writer (0 = none).
    write_rate: float = 0.0
    write_batch: int = 0


WORKLOADS: Dict[str, Workload] = {
    "hot-sgq": Workload("hot-sgq", "fleet", rate=16.0, capacity=45.0),
    "scale-stgq": Workload("scale-stgq", "jsonl", rate=10.0, capacity=50.0),
    "mutating-mix": Workload(
        "mutating-mix", "fleet", rate=16.0, capacity=42.0, write_rate=2.0, write_batch=4
    ),
}


def zipf_counts(n: int, skew: float, total: int) -> List[int]:
    """Requests per popularity rank: ``total`` split in Zipf proportion.

    Largest-remainder rounding, so the counts sum to ``total`` exactly.
    """
    weights = zipfian_weights(n, skew)
    exact = [w * total / sum(weights) for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(n), key=lambda i: (counts[i] - exact[i], i))
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


class Inputs:
    """Everything a run sends: ``open_requests`` then ``closed_requests``."""

    def __init__(
        self, workload: Workload, seed: int, workdir: str, open_count: int, closed_count: int
    ) -> None:
        self.workload = workload
        self.dataset = None
        self.graph_path: Optional[str] = None
        self.trace: List[Any] = []
        self.warmup: List[Dict[str, Any]] = []
        if workload.topology == "fleet":
            self.dataset = generate_real_dataset()
        else:
            self.graph_path = os.path.join(workdir, "scale.stgq")
        build = getattr(self, "_" + workload.name.replace("-", "_"))
        self.open_requests, self.closed_requests = build(open_count, closed_count)
        rng = random.Random(f"{workload.name}-{seed}")
        rng.shuffle(self.open_requests)
        rng.shuffle(self.closed_requests)

    # -- 194-person fleet workloads --------------------------------------
    def _hot_sgq(self, open_count: int, closed_count: int):
        people = sorted(self.dataset.people)
        pool = random.Random(0).sample(people, 64)
        self.warmup = [{"initiator": v, "p": p, "k": 2, "s": 1} for v in pool for p in (4, 5)]

        def requests(total: int) -> List[Dict[str, Any]]:
            return [
                {"initiator": v, "p": 4 + j % 2, "k": 2, "s": 1}
                for v, count in zip(pool, zipf_counts(len(pool), 1.0, total))
                for j in range(count)
            ]

        return requests(open_count), requests(closed_count)

    def _mutating_mix(self, open_count: int, closed_count: int):
        from repro.graph.mutations import generate_mutation_trace

        people = sorted(self.dataset.people)
        ranking = random.Random(0).sample(people, len(people))
        # Two reads in three at radius 2, not one in two: an even split puts
        # the median on the gap between the radius-1 and radius-2 modes, where
        # it flips between them.  Groups of 3-4: with 5 allowed, a few copies
        # of one radius-2 STGQ of a popular initiator cost 20x the rest and
        # sit right at the 95th percentile.
        reads = [
            request_for(q)
            for q in generate_query_workload(
                self.dataset,
                open_count + closed_count,
                skew=1.0,
                initiators=ranking,
                radii=(1, 2, 2),
                group_sizes=(3, 4),
                seed=0,
            )
        ]
        self.warmup = reads[:32]
        self.trace = generate_mutation_trace(
            self.dataset.graph, 512, seed=0, horizon=self.dataset.calendars.horizon
        )
        return reads[:open_count], reads[open_count:]

    # -- scale graph over the JSONL front door ---------------------------
    def _scale_stgq(self, open_count: int, closed_count: int):
        from repro.datasets.scale import generate_scale_graph

        graph = generate_scale_graph(SCALE_VERTICES, seed=SCALE_GRAPH_SEED)

        # Each request is a different radius-2 ego whose two-hop
        # neighbourhood holds 100-400 vertices: far more distinct egos than
        # cache entries, so every one is extracted, while solve costs stay
        # within a few times of each other.
        def two_hop(v: int) -> int:
            return sum(graph.degree(u) for u in graph.neighbors(v))

        pool = [v for v in range(graph.vertex_count) if 100 <= two_hop(v) < 400]
        pool = random.Random(0).sample(pool, len(pool))
        tail = iter(pool)
        # Warm every pool child (routing is by initiator) on egos no phase sends.
        self.warmup = [
            {"initiator": v, "p": 3, "k": 2, "s": 2, "m": 2} for v in pool[-WARM_EGOS:]
        ]

        def requests(total: int) -> List[Dict[str, Any]]:
            return [
                {"initiator": next(tail), "p": 3, "k": 2, "s": 2, "m": 2} for _ in range(total)
            ]

        return requests(open_count), requests(closed_count)

    def build_scale_graph(self) -> None:
        """Generate and pack the scale graph (part of the deployment's set-up)."""
        from repro.datasets.scale import generate_scale_graph
        from repro.graph.csr import pack_graph

        if os.path.exists(self.graph_path):
            os.remove(self.graph_path)
        pack_graph(generate_scale_graph(SCALE_VERTICES, seed=SCALE_GRAPH_SEED), self.graph_path)

    def reference_data(self):
        """(graph, calendars) the oracle answers from, as the fleet loads them."""
        if self.dataset is not None:
            return self.dataset.graph, self.dataset.calendars
        from repro.datasets.scale import dataset_from_substrate

        dataset = dataset_from_substrate(self.graph_path, schedule_days=1, seed=42)
        return dataset.graph, dataset.calendars
