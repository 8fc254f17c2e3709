"""Micro-benchmarks for the substrates the algorithms are built on.

These are not paper figures; they exist so regressions in the hot helper
paths (bounded distances, radius extraction, schedule intersection, pivot
filtering) are visible independently of the end-to-end query benchmarks.
"""

import functools

import pytest

from repro.graph import bounded_distances, csr_available, extract_feasible_graph
from repro.temporal.pivot import feasible_members_for_pivot, pivot_windows

from .conftest import ROUNDS, dataset_for_size, initiator_for


@pytest.mark.benchmark(group="substrate-graph")
@pytest.mark.parametrize("network_size", (194, 3200))
def test_bounded_distances(benchmark, network_size):
    dataset = dataset_for_size(network_size)
    initiator = initiator_for(dataset)
    distances = benchmark.pedantic(
        lambda: bounded_distances(dataset.graph, initiator, 3), **ROUNDS
    )
    benchmark.extra_info["network_size"] = network_size
    # bounded_distances is reachable-only: every returned vertex is reached.
    benchmark.extra_info["reachable"] = len(distances)


@pytest.mark.benchmark(group="substrate-graph")
@pytest.mark.parametrize("radius", (1, 2, 3))
def test_feasible_graph_extraction(benchmark, real_dataset, real_initiator, radius):
    feasible = benchmark.pedantic(
        lambda: extract_feasible_graph(real_dataset.graph, real_initiator, radius), **ROUNDS
    )
    benchmark.extra_info["radius"] = radius
    benchmark.extra_info["candidates"] = len(feasible) - 1


@pytest.mark.benchmark(group="substrate-temporal")
def test_joint_schedule_of_ego_network(benchmark, real_dataset, real_initiator):
    feasible = extract_feasible_graph(real_dataset.graph, real_initiator, 1)
    people = feasible.graph.vertices()
    joint = benchmark.pedantic(
        lambda: real_dataset.calendars.joint_schedule(people), **ROUNDS
    )
    benchmark.extra_info["people"] = len(people)
    benchmark.extra_info["common_slots"] = joint.available_count()


@pytest.mark.benchmark(group="substrate-temporal")
@pytest.mark.parametrize("m", (2, 8))
def test_pivot_candidate_filtering(benchmark, real_dataset, real_initiator, m):
    feasible = extract_feasible_graph(real_dataset.graph, real_initiator, 1)
    candidates = feasible.candidates
    windows = pivot_windows(real_dataset.calendars.horizon, m)

    def run():
        total = 0
        for window in windows:
            total += len(
                feasible_members_for_pivot(real_dataset.calendars, window, candidates)
            )
        return total

    total = benchmark.pedantic(run, **ROUNDS)
    benchmark.extra_info["m"] = m
    benchmark.extra_info["feasible_member_slots"] = total


# ----------------------------------------------------------------------
# dict vs CSR substrate (group: substrate-csr)
# ----------------------------------------------------------------------
#
# Same seeded graph through both substrates at three scales: the paper's
# 194-person community, and Chung-Lu power-law graphs at 10^4 and 10^5
# vertices.  The CSR rows are the ones the scale-smoke CI leg watches;
# the dict rows exist so the crossover (CSR wins once the adjacency no
# longer fits cache) is visible in the same table.


@functools.lru_cache(maxsize=None)
def _substrate_pair(n):
    """(dict graph, CSR graph, initiator) for a seeded graph of n vertices."""
    from repro.graph.csr import CSRGraph

    if n == 194:
        dataset = dataset_for_size(194)
        return dataset.graph, CSRGraph.from_social_graph(dataset.graph), initiator_for(dataset)
    from repro.datasets import SCALE_INITIATOR, generate_scale_graph

    csr = generate_scale_graph(n, seed=7)
    return csr.to_social_graph(), csr, SCALE_INITIATOR


_CSR_SCALES = (194, 10_000, 100_000)

needs_csr = pytest.mark.skipif(not csr_available(), reason="CSR substrate needs numpy")


@needs_csr
@pytest.mark.benchmark(group="substrate-csr")
@pytest.mark.parametrize("n", _CSR_SCALES)
@pytest.mark.parametrize("substrate", ("dict", "csr"))
def test_bounded_distances_by_substrate(benchmark, n, substrate):
    dict_graph, csr_graph, initiator = _substrate_pair(n)
    graph = dict_graph if substrate == "dict" else csr_graph
    distances = benchmark.pedantic(
        lambda: bounded_distances(graph, initiator, 2), **ROUNDS
    )
    benchmark.extra_info["n"] = n
    benchmark.extra_info["substrate"] = substrate
    benchmark.extra_info["reachable"] = len(distances)


@needs_csr
@pytest.mark.benchmark(group="substrate-csr")
@pytest.mark.parametrize("n", _CSR_SCALES)
@pytest.mark.parametrize("substrate", ("dict", "csr"))
def test_extraction_by_substrate(benchmark, n, substrate):
    dict_graph, csr_graph, initiator = _substrate_pair(n)
    graph = dict_graph if substrate == "dict" else csr_graph
    feasible = benchmark.pedantic(
        lambda: extract_feasible_graph(graph, initiator, 2), **ROUNDS
    )
    benchmark.extra_info["n"] = n
    benchmark.extra_info["substrate"] = substrate
    benchmark.extra_info["candidates"] = len(feasible.candidates)


@needs_csr
@pytest.mark.benchmark(group="substrate-csr")
@pytest.mark.parametrize("n", _CSR_SCALES)
@pytest.mark.parametrize("substrate", ("dict", "csr"))
def test_sgq_query_by_substrate(benchmark, n, substrate):
    """End to end SGSelect: extraction dominates at scale, so this is where
    the substrate choice shows up in user-visible latency."""
    from repro.core import SGQuery, SGSelect

    dict_graph, csr_graph, initiator = _substrate_pair(n)
    graph = dict_graph if substrate == "dict" else csr_graph
    query = SGQuery(initiator=initiator, group_size=3, radius=2, acquaintance=2)
    result = benchmark.pedantic(lambda: SGSelect(graph).solve(query), **ROUNDS)
    benchmark.extra_info["n"] = n
    benchmark.extra_info["substrate"] = substrate
    benchmark.extra_info["feasible"] = bool(result.feasible)
