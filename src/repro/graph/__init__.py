"""Social-graph substrate: weighted graphs, bounded distances, extraction,
generators, metrics, and k-plex utilities."""

from .compiled import CompiledFeasibleGraph, compile_feasible_graph
from .csr import CSRGraph, csr_available, inspect_stgq, load_stgq, pack_graph
from .distance import bounded_distance_table, bounded_distances, bounded_shortest_path, hop_counts
from .extraction import FeasibleGraph, extract_feasible_graph, extract_query_forms
from .substrate import GraphSubstrate, is_substrate
from .generators import (
    coauthorship_style_network,
    community_social_network,
    ensure_connected_to,
    erdos_renyi_network,
    interaction_to_distance,
    small_world_network,
)
from .kplex import greedy_max_kplex, is_kplex, maximal_kplexes, non_neighbor_counts, violates
from .mutations import (
    MUTATION_KINDS,
    Mutation,
    MutationBatch,
    apply_mutation,
    generate_mutation_trace,
    graph_from_snapshot,
    graph_to_snapshot,
    load_mutation_trace,
    save_mutation_trace,
)
from .overlay import GraphOverlay
from .metrics import (
    GraphSummary,
    average_clustering,
    average_degree,
    clustering_coefficient,
    connected_components,
    degree_histogram,
    density,
    largest_component,
    summarize,
)
from .social_graph import SocialGraph

__all__ = [
    "SocialGraph",
    "CSRGraph",
    "GraphOverlay",
    "Mutation",
    "MutationBatch",
    "MUTATION_KINDS",
    "apply_mutation",
    "generate_mutation_trace",
    "save_mutation_trace",
    "load_mutation_trace",
    "graph_to_snapshot",
    "graph_from_snapshot",
    "GraphSubstrate",
    "is_substrate",
    "csr_available",
    "pack_graph",
    "load_stgq",
    "inspect_stgq",
    "FeasibleGraph",
    "extract_feasible_graph",
    "extract_query_forms",
    "CompiledFeasibleGraph",
    "compile_feasible_graph",
    "bounded_distances",
    "bounded_distance_table",
    "bounded_shortest_path",
    "hop_counts",
    "community_social_network",
    "coauthorship_style_network",
    "small_world_network",
    "erdos_renyi_network",
    "ensure_connected_to",
    "interaction_to_distance",
    "is_kplex",
    "violates",
    "non_neighbor_counts",
    "greedy_max_kplex",
    "maximal_kplexes",
    "GraphSummary",
    "summarize",
    "degree_histogram",
    "average_degree",
    "clustering_coefficient",
    "average_clustering",
    "connected_components",
    "largest_component",
    "density",
]
