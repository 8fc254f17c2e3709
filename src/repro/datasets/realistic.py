"""Synthetic stand-in for the paper's 194-person real dataset.

The paper's "real" dataset was collected from 194 invited participants
(schools, government, business, industry); their social distances were
derived from interaction frequencies and their schedules from shared Google
Calendars.  That data is not available, so this module generates a seeded
synthetic population with the same macro structure.
"""

from __future__ import annotations

from typing import Optional

from ..graph.generators import community_social_network, ensure_connected_to
from ..graph.metrics import summarize
from ..temporal.generators import generate_calendar_store
from ..temporal.slots import SLOTS_PER_DAY_DEFAULT
from .base import Dataset

__all__ = ["generate_real_dataset", "REAL_DATASET_SIZE"]

#: Population size of the paper's real dataset.
REAL_DATASET_SIZE = 194


def generate_real_dataset(
    n_people: int = REAL_DATASET_SIZE,
    schedule_days: int = 1,
    slots_per_day: int = SLOTS_PER_DAY_DEFAULT,
    seed: int = 42,
    initiator_min_degree: Optional[int] = 16,
) -> Dataset:
    """Generate the 194-person community dataset.

    Parameters
    ----------
    n_people:
        Population size (default 194, matching the paper).
    schedule_days:
        Length of the shared calendars in days; the paper's Figure 1(f)
        varies this from 1 to 7.
    slots_per_day:
        Slot granularity (48 half-hour slots by default, as in the paper).
    seed:
        Seed controlling both the graph and the schedules.
    initiator_min_degree:
        When given, person 0 (the default experiment initiator) is densified
        to at least this many friends so queries up to ``p ≈ 12`` remain
        satisfiable, mirroring the paper's choice of an initiator with a
        populated ego network.
    """
    graph = community_social_network(
        n_people=n_people,
        n_communities=4,
        intra_community_prob=0.22,
        inter_community_prob=0.015,
        seed=seed,
    )
    if initiator_min_degree is not None and n_people > initiator_min_degree:
        ensure_connected_to(graph, hub=0, min_degree=initiator_min_degree, seed=seed + 1)
    calendars = generate_calendar_store(
        graph.vertices(),
        days=schedule_days,
        slots_per_day=slots_per_day,
        seed=seed + 2,
    )
    stats = summarize(graph)
    return Dataset(
        name="real-194",
        graph=graph,
        calendars=calendars,
        description=(
            "Synthetic stand-in for the paper's 194-person dataset: community-structured "
            "social graph with interaction-derived distances and day-structured schedules."
        ),
        metadata={
            "initiator": 0,
            "seed": seed,
            "schedule_days": schedule_days,
            "slots_per_day": slots_per_day,
            "average_degree": stats.average_degree,
            "average_clustering": stats.average_clustering,
        },
    )
