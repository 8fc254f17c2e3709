"""Golden search trees for SGSelect and STGSelect, on both kernels.

``test_kernel_equivalence.py`` compares the two kernels with each other, so
a change to the branch-and-bound skeleton they share that moves both
kernels the same way still passes there.  This file pins each answer to
literal values recorded from the solvers: the members, the total distance,
the STGQ period, pivot and shared run, and every ``SearchStats`` counter
except ``elapsed_seconds``.  A different search tree (another node visit,
prune or incumbent update) fails here even when the answer is unchanged.

The cases are a seeded SG/STG grid that includes ``p = 1``, the
``allowed_candidates`` restriction, each ablation toggle, non-default
``phi``/``phi_threshold`` and a few queries on the 194-person dataset.
"""

import math

import pytest

from repro.core import SearchParameters, SGQuery, SGSelect, STGQuery, STGSelect
from repro.experiments.workloads import workload

from ..conftest import make_random_calendars, make_random_graph

INF = math.inf

#: Every kernel the golden values must hold on.
KERNELS = ("reference", "compiled")

#: The pinned ``SearchStats`` counters, in the order the golden rows list them.
COUNTERS = (
    "nodes_expanded",
    "candidates_considered",
    "distance_prunes",
    "acquaintance_prunes",
    "availability_prunes",
    "expansibility_removals",
    "unfamiliarity_removals",
    "temporal_removals",
    "solutions_found",
    "pivots_processed",
)

SG_ABLATIONS = {
    "no-ordering": {"use_access_ordering": False},
    "no-distance": {"use_distance_pruning": False},
    "no-acquaintance": {"use_acquaintance_pruning": False},
    "theta0": {"theta": 0},
    "theta5": {"theta": 5},
    "all-off": {
        "use_access_ordering": False,
        "use_distance_pruning": False,
        "use_acquaintance_pruning": False,
    },
}

STG_ABLATIONS = {
    "no-ordering": {"use_access_ordering": False},
    "no-distance": {"use_distance_pruning": False},
    "no-acquaintance": {"use_acquaintance_pruning": False},
    "no-availability": {"use_availability_pruning": False},
    "no-pivots": {"use_pivot_slots": False},
    "theta0": {"theta": 0},
    "theta5": {"theta": 5},
    "phi1-t1": {"phi": 1, "phi_threshold": 1},
    "phi1-t3": {"phi": 1, "phi_threshold": 3},
    "phi3-t8": {"phi": 3, "phi_threshold": 8},
    "all-off": {
        "use_access_ordering": False,
        "use_distance_pruning": False,
        "use_acquaintance_pruning": False,
        "use_availability_pruning": False,
        "use_pivot_slots": False,
    },
}


def _sg(graph, query, allowed=None, **params):
    def solve(kernel):
        solver = SGSelect(graph, SearchParameters(kernel=kernel, **params))
        return solver.solve(query, allowed_candidates=allowed)

    return solve


def _stg(graph, calendars, query, **params):
    def solve(kernel):
        return STGSelect(graph, calendars, SearchParameters(kernel=kernel, **params)).solve(query)

    return solve


def _cases():
    cases = {}
    for seed in range(5):
        graph = make_random_graph(seed, n=13, edge_prob=0.35)
        for p, k, s in [(1, 0, 1), (3, 0, 1), (5, 2, 2), (7, 1, 2), (4, 3, 3)]:
            query = SGQuery(initiator=0, group_size=p, radius=s, acquaintance=k)
            cases[f"sg/grid/s{seed}/p{p}k{k}s{s}"] = _sg(graph, query)
    for seed in range(4):
        graph = make_random_graph(seed, n=12, edge_prob=0.45)
        allowed = {v for v in graph if v % 2 == 0}
        query = SGQuery(initiator=0, group_size=4, radius=2, acquaintance=2)
        cases[f"sg/allowed/s{seed}"] = _sg(graph, query, allowed)
    for seed in range(4):
        graph = make_random_graph(seed, n=12, edge_prob=0.5)
        query = SGQuery(initiator=0, group_size=5, radius=2, acquaintance=2)
        for name, toggle in SG_ABLATIONS.items():
            cases[f"sg/ablation/{name}/s{seed}"] = _sg(graph, query, **toggle)

    for seed in range(5):
        graph = make_random_graph(seed, n=11, edge_prob=0.4)
        calendars = make_random_calendars(seed + 500, list(graph), horizon=12, availability=0.6)
        for p, k, m in [(1, 0, 2), (3, 0, 2), (4, 1, 3), (5, 2, 2)]:
            query = STGQuery(initiator=0, group_size=p, radius=2, acquaintance=k, activity_length=m)
            cases[f"stg/grid/s{seed}/p{p}k{k}m{m}"] = _stg(graph, calendars, query)
    for seed in range(3):
        graph = make_random_graph(seed, n=11, edge_prob=0.5)
        calendars = make_random_calendars(seed + 77, list(graph), horizon=12, availability=0.7)
        for m in (2, 3):
            query = STGQuery(initiator=0, group_size=4, radius=2, acquaintance=2, activity_length=m)
            for name, toggle in STG_ABLATIONS.items():
                cases[f"stg/ablation/{name}/s{seed}/m{m}"] = _stg(graph, calendars, query, **toggle)

    real = workload(network_size=194, schedule_days=1, seed=42)
    for q, p, s, k in [(0, 5, 1, 2), (0, 8, 1, 3), (0, 4, 2, 1), (17, 4, 1, 1)]:
        query = SGQuery(initiator=q, group_size=p, radius=s, acquaintance=k)
        cases[f"sg/real194/q{q}p{p}s{s}k{k}"] = _sg(real.graph, query)
    for q, p, s, k, m in [(0, 4, 1, 2, 3), (0, 6, 1, 3, 4), (0, 3, 2, 1, 2), (17, 3, 1, 1, 2)]:
        query = STGQuery(initiator=q, group_size=p, radius=s, acquaintance=k, activity_length=m)
        cases[f"stg/real194/q{q}p{p}s{s}k{k}m{m}"] = _stg(real.graph, real.calendars, query)
    return cases


CASES = _cases()


def _span(slots):
    return None if slots is None else (slots.start, slots.end)


def observe(result):
    """The golden row of one result: members, distance, counters and, for an
    STGQ, the period, pivot and shared run."""
    stats = result.stats.as_dict()
    row = (sorted(result.members), result.total_distance, tuple(stats[name] for name in COUNTERS))
    if hasattr(result, "period"):
        row += (_span(result.period), result.pivot, _span(result.shared_slots))
    return row


# Recorded from the solvers; see the module docstring.  Rows are
# (members, total_distance, counters[, period, pivot, shared_run]).
GOLDEN = {
    "sg/ablation/all-off/s0": ([0, 3, 5, 7, 9], 30.0, (81, 278, 0, 0, 0, 160, 38, 0, 1, 0)),
    "sg/ablation/all-off/s1": ([0, 1, 4, 6, 8], 19.0, (125, 332, 0, 0, 0, 156, 52, 0, 1, 0)),
    "sg/ablation/all-off/s2": ([0, 2, 3, 4, 8], 18.0, (54, 128, 0, 0, 0, 67, 8, 0, 1, 0)),
    "sg/ablation/all-off/s3": ([0, 4, 5, 7, 10], 24.0, (214, 377, 0, 0, 0, 113, 51, 0, 1, 0)),
    "sg/ablation/no-acquaintance/s0": ([0, 3, 5, 7, 9], 30.0, (6, 5, 5, 0, 0, 0, 0, 0, 1, 0)),
    "sg/ablation/no-acquaintance/s1": ([0, 1, 4, 6, 8], 19.0, (16, 66, 11, 0, 0, 2, 3, 0, 1, 0)),
    "sg/ablation/no-acquaintance/s2": ([0, 2, 3, 4, 8], 18.0, (6, 5, 5, 0, 0, 0, 0, 0, 1, 0)),
    "sg/ablation/no-acquaintance/s3": ([0, 4, 5, 7, 11], 24.0, (20, 72, 10, 0, 0, 11, 4, 0, 1, 0)),
    "sg/ablation/no-distance/s0": ([0, 3, 5, 7, 9], 30.0, (80, 438, 0, 0, 0, 112, 26, 0, 1, 0)),
    "sg/ablation/no-distance/s1": ([0, 1, 4, 6, 8], 19.0, (111, 563, 0, 0, 0, 138, 38, 0, 1, 0)),
    "sg/ablation/no-distance/s2": ([0, 2, 3, 4, 8], 18.0, (48, 206, 0, 0, 0, 59, 10, 0, 1, 0)),
    "sg/ablation/no-distance/s3": ([0, 4, 5, 7, 11], 24.0, (197, 524, 0, 0, 0, 97, 28, 0, 1, 0)),
    "sg/ablation/no-ordering/s0": ([0, 3, 5, 7, 9], 30.0, (6, 5, 5, 0, 0, 0, 0, 0, 1, 0)),
    "sg/ablation/no-ordering/s1": ([0, 1, 4, 6, 8], 19.0, (12, 13, 10, 0, 0, 0, 2, 0, 1, 0)),
    "sg/ablation/no-ordering/s2": ([0, 2, 3, 4, 8], 18.0, (6, 5, 5, 0, 0, 0, 0, 0, 1, 0)),
    "sg/ablation/no-ordering/s3": ([0, 4, 5, 7, 10], 24.0, (17, 39, 12, 0, 0, 10, 13, 0, 1, 0)),
    "sg/ablation/theta0/s0": ([0, 3, 5, 7, 9], 30.0, (6, 5, 5, 0, 0, 0, 0, 0, 1, 0)),
    "sg/ablation/theta0/s1": ([0, 1, 4, 6, 8], 19.0, (12, 13, 10, 0, 0, 0, 2, 0, 1, 0)),
    "sg/ablation/theta0/s2": ([0, 2, 3, 4, 8], 18.0, (6, 5, 5, 0, 0, 0, 0, 0, 1, 0)),
    "sg/ablation/theta0/s3": ([0, 4, 5, 7, 10], 24.0, (17, 39, 12, 0, 0, 10, 13, 0, 1, 0)),
    "sg/ablation/theta5/s0": ([0, 3, 5, 7, 9], 30.0, (6, 23, 5, 0, 0, 0, 0, 0, 1, 0)),
    "sg/ablation/theta5/s1": ([0, 1, 4, 6, 8], 19.0, (16, 151, 11, 0, 0, 2, 3, 0, 1, 0)),
    "sg/ablation/theta5/s2": ([0, 2, 3, 4, 8], 18.0, (8, 19, 6, 0, 0, 0, 0, 0, 2, 0)),
    "sg/ablation/theta5/s3": ([0, 4, 5, 7, 11], 24.0, (21, 192, 9, 0, 0, 12, 9, 0, 2, 0)),
    "sg/allowed/s0": ([], INF, (1, 3, 0, 0, 0, 3, 0, 0, 0, 0)),
    "sg/allowed/s1": ([0, 4, 6, 10], 20.0, (10, 13, 4, 0, 0, 1, 0, 0, 2, 0)),
    "sg/allowed/s2": ([0, 2, 4, 8], 15.0, (4, 3, 3, 0, 0, 0, 0, 0, 1, 0)),
    "sg/allowed/s3": ([0, 2, 8, 10], 70.0, (5, 4, 3, 0, 0, 0, 0, 0, 1, 0)),
    "sg/grid/s0/p1k0s1": ([0], 0.0, (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    "sg/grid/s0/p3k0s1": ([], INF, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0)),
    "sg/grid/s0/p4k3s3": ([0, 1, 11, 12], 20.0, (6, 5, 4, 0, 0, 0, 0, 0, 1, 0)),
    "sg/grid/s0/p5k2s2": ([0, 1, 3, 11, 12], 36.0, (8, 29, 5, 0, 0, 2, 1, 0, 1, 0)),
    "sg/grid/s0/p7k1s2": ([], INF, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0)),
    "sg/grid/s1/p1k0s1": ([0], 0.0, (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    "sg/grid/s1/p3k0s1": ([0, 1, 2], 19.0, (4, 10, 2, 0, 0, 4, 0, 0, 1, 0)),
    "sg/grid/s1/p4k3s3": ([0, 1, 3, 11], 15.0, (10, 15, 9, 0, 0, 0, 0, 0, 1, 0)),
    "sg/grid/s1/p5k2s2": ([0, 1, 2, 3, 11], 29.0, (7, 17, 6, 0, 0, 4, 0, 0, 1, 0)),
    "sg/grid/s1/p7k1s2": ([], INF, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0)),
    "sg/grid/s2/p1k0s1": ([0], 0.0, (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    "sg/grid/s2/p3k0s1": ([], INF, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0)),
    "sg/grid/s2/p4k3s3": ([0, 2, 3, 6], 19.0, (4, 3, 3, 0, 0, 0, 0, 0, 1, 0)),
    "sg/grid/s2/p5k2s2": ([0, 2, 3, 5, 6], 29.0, (6, 10, 5, 0, 0, 0, 0, 0, 1, 0)),
    "sg/grid/s2/p7k1s2": ([], INF, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0)),
    "sg/grid/s3/p1k0s1": ([0], 0.0, (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    "sg/grid/s3/p3k0s1": ([0, 1, 9], 34.0, (3, 2, 2, 0, 0, 0, 0, 0, 1, 0)),
    "sg/grid/s3/p4k3s3": ([0, 1, 2, 9], 53.0, (6, 5, 4, 0, 0, 0, 0, 0, 1, 0)),
    "sg/grid/s3/p5k2s2": ([0, 1, 5, 8, 9], 76.0, (10, 28, 4, 0, 0, 10, 0, 0, 1, 0)),
    "sg/grid/s3/p7k1s2": ([], INF, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0)),
    "sg/grid/s4/p1k0s1": ([0], 0.0, (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    "sg/grid/s4/p3k0s1": ([0, 4, 9], 19.0, (4, 5, 1, 0, 0, 1, 0, 0, 1, 0)),
    "sg/grid/s4/p4k3s3": ([0, 3, 4, 10], 7.0, (5, 4, 4, 0, 0, 0, 0, 0, 1, 0)),
    "sg/grid/s4/p5k2s2": ([0, 3, 4, 9, 10], 19.0, (25, 192, 8, 0, 0, 58, 6, 0, 2, 0)),
    "sg/grid/s4/p7k1s2": ([], INF, (1, 12, 0, 0, 0, 12, 0, 0, 0, 0)),
    "sg/real194/q0p4s2k1": (
        [0, 112, 164, 177], 24.912719086177116, (38, 3542, 13, 0, 0, 288, 617, 0, 1, 0)
    ),
    "sg/real194/q0p5s1k2": (
        [0, 112, 128, 164, 177], 33.21678305558471, (22, 100, 14, 0, 0, 46, 2, 0, 1, 0)
    ),
    "sg/real194/q0p8s1k3": ([], INF, (2, 17, 0, 1, 0, 16, 0, 0, 0, 0)),
    "sg/real194/q17p4s1k1": (
        [17, 97, 149, 177], 21.224633221896774, (9, 28, 7, 0, 0, 12, 0, 0, 1, 0)
    ),
    "stg/ablation/all-off/s0/m2": (
        [0, 1, 7, 9], 19.0, (75, 89, 0, 0, 0, 18, 2, 0, 3, 7), (8, 9), 9, (8, 9)
    ),
    "stg/ablation/all-off/s0/m3": (
        [0, 5, 8, 9], 25.0, (15, 15, 0, 0, 0, 3, 0, 0, 2, 5), (8, 10), 10, (8, 10)
    ),
    "stg/ablation/all-off/s1/m2": (
        [0, 1, 5, 6], 8.0, (129, 159, 0, 0, 0, 18, 17, 0, 1, 5), (5, 6), 6, (5, 6)
    ),
    "stg/ablation/all-off/s1/m3": (
        [0, 3, 6, 10], 19.0, (33, 35, 0, 0, 0, 5, 0, 0, 2, 3), (6, 8), 8, (6, 8)
    ),
    "stg/ablation/all-off/s2/m2": (
        [0, 3, 4, 10], 21.0, (107, 135, 0, 0, 0, 27, 9, 0, 2, 9), (2, 3), 3, (2, 3)
    ),
    "stg/ablation/all-off/s2/m3": (
        [0, 2, 4, 6], 35.0, (33, 33, 0, 0, 0, 4, 1, 0, 1, 7), (1, 3), 3, (1, 3)
    ),
    "stg/ablation/no-acquaintance/s0/m2": (
        [0, 1, 7, 9], 19.0, (20, 128, 15, 0, 0, 0, 0, 2, 3, 4), (8, 9), 8, (8, 9)
    ),
    "stg/ablation/no-acquaintance/s0/m3": (
        [0, 5, 8, 9], 25.0, (11, 43, 2, 0, 1, 2, 0, 4, 2, 2), (8, 10), 9, (8, 10)
    ),
    "stg/ablation/no-acquaintance/s1/m2": (
        [0, 1, 5, 6], 8.0, (12, 29, 10, 0, 0, 0, 0, 0, 2, 3), (5, 6), 6, (5, 6)
    ),
    "stg/ablation/no-acquaintance/s1/m3": (
        [0, 3, 6, 10], 19.0, (7, 28, 5, 0, 0, 2, 0, 3, 1, 2), (6, 8), 6, (6, 8)
    ),
    "stg/ablation/no-acquaintance/s2/m2": (
        [0, 3, 4, 10], 21.0, (28, 140, 19, 0, 1, 4, 0, 2, 1, 6), (2, 3), 2, (2, 3)
    ),
    "stg/ablation/no-acquaintance/s2/m3": (
        [0, 2, 4, 6], 35.0, (16, 79, 6, 0, 2, 2, 0, 3, 1, 3), (1, 3), 3, (1, 4)
    ),
    "stg/ablation/no-availability/s0/m2": (
        [0, 1, 7, 9], 19.0, (20, 128, 15, 0, 0, 0, 0, 2, 3, 4), (8, 9), 8, (8, 9)
    ),
    "stg/ablation/no-availability/s0/m3": (
        [0, 5, 8, 9], 25.0, (12, 48, 3, 0, 0, 5, 0, 4, 2, 2), (8, 10), 9, (8, 10)
    ),
    "stg/ablation/no-availability/s1/m2": (
        [0, 1, 5, 6], 8.0, (12, 29, 10, 0, 0, 0, 0, 0, 2, 3), (5, 6), 6, (5, 6)
    ),
    "stg/ablation/no-availability/s1/m3": (
        [0, 3, 6, 10], 19.0, (7, 28, 5, 0, 0, 2, 0, 3, 1, 2), (6, 8), 6, (6, 8)
    ),
    "stg/ablation/no-availability/s2/m2": (
        [0, 3, 4, 10], 21.0, (29, 150, 19, 0, 0, 5, 0, 2, 1, 6), (2, 3), 2, (2, 3)
    ),
    "stg/ablation/no-availability/s2/m3": (
        [0, 2, 4, 6], 35.0, (17, 91, 6, 0, 0, 5, 0, 3, 1, 3), (1, 3), 3, (1, 4)
    ),
    "stg/ablation/no-distance/s0/m2": (
        [0, 1, 7, 9], 19.0, (64, 316, 0, 0, 4, 16, 0, 7, 3, 4), (8, 9), 8, (8, 9)
    ),
    "stg/ablation/no-distance/s0/m3": (
        [0, 5, 8, 9], 25.0, (11, 44, 0, 0, 2, 2, 0, 5, 2, 2), (8, 10), 9, (8, 10)
    ),
    "stg/ablation/no-distance/s1/m2": (
        [0, 1, 5, 6], 8.0, (108, 406, 0, 0, 3, 28, 4, 2, 2, 3), (5, 6), 6, (5, 6)
    ),
    "stg/ablation/no-distance/s1/m3": (
        [0, 3, 6, 10], 19.0, (23, 64, 0, 0, 0, 3, 0, 6, 1, 2), (6, 8), 6, (6, 8)
    ),
    "stg/ablation/no-distance/s2/m2": (
        [0, 3, 4, 10], 21.0, (91, 486, 0, 0, 4, 33, 3, 8, 1, 6), (2, 3), 2, (2, 3)
    ),
    "stg/ablation/no-distance/s2/m3": (
        [0, 2, 4, 6], 35.0, (22, 86, 0, 0, 5, 3, 0, 3, 1, 3), (1, 3), 3, (1, 4)
    ),
    "stg/ablation/no-ordering/s0/m2": (
        [0, 1, 7, 9], 19.0, (15, 13, 12, 0, 0, 0, 0, 2, 3, 4), (8, 9), 8, (8, 9)
    ),
    "stg/ablation/no-ordering/s0/m3": (
        [0, 5, 8, 9], 25.0, (12, 16, 3, 0, 1, 2, 0, 4, 2, 2), (8, 10), 9, (8, 10)
    ),
    "stg/ablation/no-ordering/s1/m2": (
        [0, 1, 5, 6], 8.0, (7, 4, 6, 0, 0, 0, 0, 0, 1, 3), (5, 6), 6, (5, 6)
    ),
    "stg/ablation/no-ordering/s1/m3": (
        [0, 3, 6, 10], 19.0, (7, 10, 5, 0, 0, 2, 0, 3, 1, 2), (6, 8), 6, (6, 8)
    ),
    "stg/ablation/no-ordering/s2/m2": (
        [0, 3, 4, 10], 21.0, (15, 13, 12, 0, 0, 0, 1, 2, 1, 6), (2, 3), 2, (2, 3)
    ),
    "stg/ablation/no-ordering/s2/m3": (
        [0, 2, 4, 6], 35.0, (11, 12, 9, 0, 0, 1, 1, 1, 1, 3), (1, 3), 3, (1, 4)
    ),
    "stg/ablation/no-pivots/s0/m2": (
        [0, 1, 7, 9], 19.0, (19, 260, 15, 0, 0, 1, 0, 0, 3, 7), (8, 9), 9, (8, 9)
    ),
    "stg/ablation/no-pivots/s0/m3": (
        [0, 5, 8, 9], 25.0, (11, 99, 1, 0, 0, 1, 0, 0, 2, 5), (8, 10), 10, (8, 10)
    ),
    "stg/ablation/no-pivots/s1/m2": (
        [0, 1, 5, 6], 8.0, (11, 181, 9, 0, 0, 1, 0, 0, 1, 5), (5, 6), 6, (5, 6)
    ),
    "stg/ablation/no-pivots/s1/m3": (
        [0, 3, 6, 10], 19.0, (12, 125, 6, 0, 0, 2, 0, 0, 2, 3), (6, 8), 8, (6, 8)
    ),
    "stg/ablation/no-pivots/s2/m2": (
        [0, 3, 4, 10], 21.0, (25, 244, 16, 0, 0, 3, 0, 0, 2, 9), (2, 3), 3, (2, 3)
    ),
    "stg/ablation/no-pivots/s2/m3": (
        [0, 2, 4, 6], 35.0, (17, 174, 7, 0, 0, 5, 0, 0, 1, 7), (1, 3), 3, (1, 3)
    ),
    "stg/ablation/phi1-t1/s0/m2": (
        [0, 1, 7, 9], 19.0, (15, 13, 12, 0, 0, 0, 0, 2, 3, 4), (8, 9), 8, (8, 9)
    ),
    "stg/ablation/phi1-t1/s0/m3": (
        [0, 5, 8, 9], 25.0, (12, 16, 3, 0, 1, 2, 0, 4, 2, 2), (8, 10), 9, (8, 10)
    ),
    "stg/ablation/phi1-t1/s1/m2": (
        [0, 1, 5, 6], 8.0, (7, 4, 6, 0, 0, 0, 0, 0, 1, 3), (5, 6), 6, (5, 6)
    ),
    "stg/ablation/phi1-t1/s1/m3": (
        [0, 3, 6, 10], 19.0, (7, 10, 5, 0, 0, 2, 0, 3, 1, 2), (6, 8), 6, (6, 8)
    ),
    "stg/ablation/phi1-t1/s2/m2": (
        [0, 3, 4, 10], 21.0, (17, 18, 11, 0, 0, 1, 0, 2, 1, 6), (2, 3), 2, (2, 3)
    ),
    "stg/ablation/phi1-t1/s2/m3": (
        [0, 2, 4, 6], 35.0, (13, 30, 6, 0, 1, 5, 0, 2, 2, 3), (1, 3), 3, (1, 4)
    ),
    "stg/ablation/phi1-t3/s0/m2": (
        [0, 1, 7, 9], 19.0, (20, 94, 15, 0, 0, 0, 0, 2, 3, 4), (8, 9), 8, (8, 9)
    ),
    "stg/ablation/phi1-t3/s0/m3": (
        [0, 5, 8, 9], 25.0, (11, 35, 2, 0, 1, 2, 0, 4, 2, 2), (8, 10), 9, (8, 10)
    ),
    "stg/ablation/phi1-t3/s1/m2": (
        [0, 1, 5, 6], 8.0, (12, 23, 10, 0, 0, 0, 0, 0, 2, 3), (5, 6), 6, (5, 6)
    ),
    "stg/ablation/phi1-t3/s1/m3": (
        [0, 3, 6, 10], 19.0, (7, 22, 5, 0, 0, 2, 0, 3, 1, 2), (6, 8), 6, (6, 8)
    ),
    "stg/ablation/phi1-t3/s2/m2": (
        [0, 3, 4, 10], 21.0, (28, 112, 19, 0, 1, 4, 0, 2, 1, 6), (2, 3), 2, (2, 3)
    ),
    "stg/ablation/phi1-t3/s2/m3": (
        [0, 2, 4, 6], 35.0, (16, 65, 6, 0, 2, 2, 0, 3, 1, 3), (1, 3), 3, (1, 4)
    ),
    "stg/ablation/phi3-t8/s0/m2": (
        [0, 1, 7, 9], 19.0, (20, 145, 15, 0, 0, 0, 0, 2, 3, 4), (8, 9), 8, (8, 9)
    ),
    "stg/ablation/phi3-t8/s0/m3": (
        [0, 5, 8, 9], 25.0, (11, 47, 2, 0, 1, 2, 0, 4, 2, 2), (8, 10), 9, (8, 10)
    ),
    "stg/ablation/phi3-t8/s1/m2": (
        [0, 1, 5, 6], 8.0, (12, 32, 10, 0, 0, 0, 0, 0, 2, 3), (5, 6), 6, (5, 6)
    ),
    "stg/ablation/phi3-t8/s1/m3": (
        [0, 3, 6, 10], 19.0, (7, 31, 5, 0, 0, 2, 0, 3, 1, 2), (6, 8), 6, (6, 8)
    ),
    "stg/ablation/phi3-t8/s2/m2": (
        [0, 3, 4, 10], 21.0, (28, 154, 19, 0, 1, 4, 0, 2, 1, 6), (2, 3), 2, (2, 3)
    ),
    "stg/ablation/phi3-t8/s2/m3": (
        [0, 2, 4, 6], 35.0, (16, 86, 6, 0, 2, 2, 0, 3, 1, 3), (1, 3), 3, (1, 4)
    ),
    "stg/ablation/theta0/s0/m2": (
        [0, 1, 7, 9], 19.0, (20, 87, 15, 0, 0, 0, 0, 2, 3, 4), (8, 9), 8, (8, 9)
    ),
    "stg/ablation/theta0/s0/m3": (
        [0, 5, 8, 9], 25.0, (11, 33, 2, 0, 1, 2, 0, 4, 2, 2), (8, 10), 9, (8, 10)
    ),
    "stg/ablation/theta0/s1/m2": (
        [0, 1, 5, 6], 8.0, (11, 20, 10, 0, 0, 0, 0, 0, 1, 3), (5, 6), 6, (5, 6)
    ),
    "stg/ablation/theta0/s1/m3": (
        [0, 3, 6, 10], 19.0, (7, 22, 5, 0, 0, 2, 0, 3, 1, 2), (6, 8), 6, (6, 8)
    ),
    "stg/ablation/theta0/s2/m2": (
        [0, 3, 4, 10], 21.0, (30, 94, 19, 0, 1, 4, 2, 2, 2, 6), (2, 3), 2, (2, 3)
    ),
    "stg/ablation/theta0/s2/m3": (
        [0, 2, 4, 6], 35.0, (15, 46, 6, 0, 3, 1, 1, 2, 1, 3), (1, 3), 3, (1, 4)
    ),
    "stg/ablation/theta5/s0/m2": (
        [0, 1, 7, 9], 19.0, (20, 200, 15, 0, 0, 0, 0, 2, 3, 4), (8, 9), 8, (8, 9)
    ),
    "stg/ablation/theta5/s0/m3": (
        [0, 5, 8, 9], 25.0, (11, 73, 2, 0, 1, 2, 0, 4, 2, 2), (8, 10), 9, (8, 10)
    ),
    "stg/ablation/theta5/s1/m2": (
        [0, 1, 5, 6], 8.0, (12, 44, 10, 0, 0, 0, 0, 0, 2, 3), (5, 6), 6, (5, 6)
    ),
    "stg/ablation/theta5/s1/m3": (
        [0, 3, 6, 10], 19.0, (10, 62, 6, 0, 0, 4, 0, 7, 1, 2), (6, 8), 6, (6, 8)
    ),
    "stg/ablation/theta5/s2/m2": (
        [0, 3, 4, 10], 21.0, (28, 245, 19, 0, 1, 4, 0, 2, 1, 6), (2, 3), 2, (2, 3)
    ),
    "stg/ablation/theta5/s2/m3": (
        [0, 2, 4, 6], 35.0, (16, 145, 6, 0, 2, 2, 0, 3, 1, 3), (1, 3), 3, (1, 4)
    ),
    "stg/grid/s0/p1k0m2": ([0], 0.0, (0, 0, 0, 0, 0, 0, 0, 0, 1, 3), (3, 4), 4, (3, 4)),
    "stg/grid/s0/p3k0m2": ([], INF, (3, 10, 0, 1, 0, 10, 0, 0, 0, 3), None, None, None),
    "stg/grid/s0/p4k1m3": ([], INF, (0, 0, 0, 0, 0, 0, 0, 0, 0, 0), None, None, None),
    "stg/grid/s0/p5k2m2": ([], INF, (3, 10, 0, 1, 0, 10, 0, 0, 0, 3), None, None, None),
    "stg/grid/s1/p1k0m2": ([0], 0.0, (0, 0, 0, 0, 0, 0, 0, 0, 1, 3), (5, 6), 6, (5, 6)),
    "stg/grid/s1/p3k0m2": ([0, 6, 10], 14.0, (8, 52, 1, 0, 0, 10, 0, 1, 1, 3), (5, 6), 6, (5, 6)),
    "stg/grid/s1/p4k1m3": ([], INF, (1, 5, 0, 0, 0, 4, 0, 0, 0, 1), None, None, None),
    "stg/grid/s1/p5k2m2": ([], INF, (5, 47, 0, 0, 0, 9, 0, 1, 0, 3), None, None, None),
    "stg/grid/s2/p1k0m2": ([0], 0.0, (0, 0, 0, 0, 0, 0, 0, 0, 1, 2), (1, 2), 2, (1, 3)),
    "stg/grid/s2/p3k0m2": ([], INF, (4, 48, 0, 0, 0, 12, 6, 0, 0, 2), None, None, None),
    "stg/grid/s2/p4k1m3": ([], INF, (2, 41, 0, 0, 0, 6, 1, 1, 0, 1), None, None, None),
    "stg/grid/s2/p5k2m2": (
        [0, 2, 7, 8, 9], 61.0, (9, 67, 2, 0, 2, 10, 1, 0, 2, 2), (1, 2), 2, (1, 2)
    ),
    "stg/grid/s3/p1k0m2": ([0], 0.0, (0, 0, 0, 0, 0, 0, 0, 0, 1, 3), (1, 2), 2, (1, 3)),
    "stg/grid/s3/p3k0m2": ([], INF, (3, 6, 0, 1, 0, 6, 0, 0, 0, 3), None, None, None),
    "stg/grid/s3/p4k1m3": ([], INF, (2, 0, 0, 1, 1, 0, 0, 0, 0, 2), None, None, None),
    "stg/grid/s3/p5k2m2": ([], INF, (0, 0, 0, 0, 0, 0, 0, 0, 0, 3), None, None, None),
    "stg/grid/s4/p1k0m2": ([0], 0.0, (0, 0, 0, 0, 0, 0, 0, 0, 1, 3), (1, 2), 2, (1, 2)),
    "stg/grid/s4/p3k0m2": ([0, 4, 10], 7.0, (7, 65, 3, 0, 0, 7, 4, 1, 1, 3), (5, 6), 6, (5, 6)),
    "stg/grid/s4/p4k1m3": ([], INF, (0, 0, 0, 0, 0, 0, 0, 0, 0, 0), None, None, None),
    "stg/grid/s4/p5k2m2": (
        [0, 1, 4, 8, 10], 20.0, (9, 133, 3, 0, 1, 1, 0, 2, 1, 3), (5, 6), 6, (5, 6)
    ),
    "stg/real194/q0p3s2k1m2": (
        [0, 112, 177], 13.916931997962774, (64, 1828, 55, 0, 0, 2, 0, 25, 5, 9),
        (37, 38), 38, (37, 39)
    ),
    "stg/real194/q0p4s1k2m3": (
        [0, 16, 112, 177], 22.084384463199715, (26, 70, 16, 0, 0, 0, 0, 8, 2, 6),
        (37, 39), 39, (37, 41)
    ),
    "stg/real194/q0p6s1k3m4": (
        [0, 40, 112, 128, 164, 177], 42.845013363613525, (62, 355, 45, 0, 0, 91, 17, 0, 4, 3),
        (43, 46), 44, (43, 46)
    ),
    "stg/real194/q17p3s1k1m2": (
        [17, 97, 149], 13.792460001528692, (31, 260, 22, 0, 1, 0, 0, 3, 3, 10),
        (31, 32), 32, (31, 32)
    ),
}


def test_every_case_has_a_golden_row():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_search_tree_matches_golden(case, kernel):
    assert observe(CASES[case](kernel)) == GOLDEN[case]
