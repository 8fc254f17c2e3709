"""Datasets: the paper's worked examples plus synthetic stand-ins for its
real and coauthorship datasets."""

from .base import Dataset
from .coauthorship import NETWORK_SIZE_SWEEP, generate_coauthorship_dataset
from .realistic import REAL_DATASET_SIZE, generate_real_dataset
from .scale import SCALE_INITIATOR, dataset_from_substrate, generate_scale_dataset, generate_scale_graph
from .toy import MOVIE_INITIATOR, TOY_INITIATOR, load_movie_network, load_toy_example

__all__ = [
    "Dataset",
    "load_toy_example",
    "load_movie_network",
    "TOY_INITIATOR",
    "MOVIE_INITIATOR",
    "generate_real_dataset",
    "REAL_DATASET_SIZE",
    "generate_coauthorship_dataset",
    "NETWORK_SIZE_SWEEP",
    "generate_scale_dataset",
    "generate_scale_graph",
    "dataset_from_substrate",
    "SCALE_INITIATOR",
]
