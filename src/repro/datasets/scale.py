"""Seeded scale datasets: 10⁵–10⁶ people on the CSR substrate.

The paper's experiments top out at 12 800 people (the resampled real
dataset) and ~500 000 coauthorship vertices.  The in-memory adjacency-dict
graph handles those, but every process/remote worker holds its own pickled
copy — at 10⁶ vertices that is gigabytes per worker.  This module generates
graphs straight into :class:`~repro.graph.csr.CSRGraph` edge arrays (never
materialising a dict adjacency) and pairs them with a
:class:`~repro.temporal.calendars.LazyCalendarStore`, so a dataset of a
million people costs each worker only the mmap'd ``.stgq`` pages its
queries touch plus the few hundred schedules it materialises.

Degrees follow a power law via the Chung–Lu model: vertex ``i`` receives an
expected-degree weight ``(i + 1)^(-1/(exponent - 1))``, both endpoints of
every edge are drawn from that distribution, and self-loops/duplicates are
discarded.  Identity ids (``0..n-1``) mean vertex ``0`` is the largest hub —
a natural query initiator with a populated ego network.
"""

from __future__ import annotations

import functools
import random
from pathlib import Path
from typing import Optional, Union

from ..exceptions import GraphError
from ..graph.csr import CSRGraph, csr_available, load_stgq
from ..temporal.calendars import LazyCalendarStore
from ..temporal.generators import day_structured_schedule
from ..temporal.schedule import Schedule
from ..temporal.slots import SLOTS_PER_DAY_DEFAULT
from .base import Dataset

__all__ = ["generate_scale_dataset", "generate_scale_graph", "dataset_from_substrate"]

PathLike = Union[str, Path]

#: Initiator vertex of every scale dataset: the largest Chung–Lu hub.
SCALE_INITIATOR = 0


def _person_schedule(person: int, days: int, slots_per_day: int, seed: int) -> Schedule:
    """Deterministic per-person schedule for the lazy calendar factory.

    Must be a top-level function (workers unpickle it by qualified name) and
    must depend only on its arguments: the per-person stream is seeded by
    composing the dataset seed with the person id, so materialising person
    ``i`` yields the same schedule in every process, in any order.  The
    per-person busyness spread mirrors
    :func:`~repro.temporal.generators.generate_calendar_store`.
    """
    rng = random.Random((int(seed) << 32) ^ (int(person) + 1))
    work_free = min(0.95, max(0.1, rng.gauss(0.45, 0.15)))
    evening_free = min(0.98, max(0.2, rng.gauss(0.75, 0.12)))
    return day_structured_schedule(
        days=days,
        slots_per_day=slots_per_day,
        evening_free_prob=evening_free,
        work_free_prob=work_free,
        rng=rng,
    )


def _lazy_calendars(
    population, days: int, slots_per_day: int, seed: int
) -> LazyCalendarStore:
    factory = functools.partial(
        _person_schedule, days=days, slots_per_day=slots_per_day, seed=seed
    )
    return LazyCalendarStore(days * slots_per_day, population, factory)


def generate_scale_graph(
    n_people: int,
    mean_degree: float = 8.0,
    exponent: float = 2.5,
    seed: int = 7,
    initiator_min_degree: int = 16,
) -> CSRGraph:
    """Generate a Chung–Lu power-law graph directly as a :class:`CSRGraph`.

    Parameters
    ----------
    n_people:
        Number of vertices (ids ``0..n_people - 1``).
    mean_degree:
        Target average degree; the realised value is slightly lower because
        self-loops and duplicate draws are discarded.
    exponent:
        Power-law exponent of the degree distribution (typical social
        networks sit in ``2 < exponent < 3``).
    seed:
        Seed for the numpy generator; same seed, same graph, byte for byte.
    initiator_min_degree:
        Floor on the degree of vertex ``0`` so the default initiator always
        has a usable ego network (edges to the lowest-id non-neighbours are
        added if the random draw fell short).
    """
    if not csr_available():  # pragma: no cover - numpy present in CI legs using this
        raise GraphError("scale datasets require numpy (CSR substrate unavailable)")
    import numpy as np

    if n_people < 2:
        raise GraphError(f"n_people must be >= 2, got {n_people}")
    if mean_degree <= 0:
        raise GraphError(f"mean_degree must be positive, got {mean_degree}")
    if exponent <= 1.0:
        raise GraphError(f"exponent must be > 1, got {exponent}")

    rng = np.random.default_rng(seed)
    n = int(n_people)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-1.0 / (exponent - 1.0))
    p = weights / weights.sum()

    target = int(n * mean_degree / 2)
    # Oversample: self-loops and duplicates eat a fraction of the draws.
    draw = int(target * 1.35) + 16
    u = rng.choice(n, size=draw, p=p)
    v = rng.choice(n, size=draw, p=p)
    keep = u != v
    lo = np.minimum(u[keep], v[keep]).astype(np.int64)
    hi = np.maximum(u[keep], v[keep]).astype(np.int64)
    codes = np.unique(lo * np.int64(n) + hi)
    if len(codes) > target:
        chosen = rng.choice(len(codes), size=target, replace=False)
        codes = codes[np.sort(chosen)]
    lo = codes // n
    hi = codes % n

    # Degree floor for the initiator hub.
    deg0 = int(np.count_nonzero(lo == 0))
    floor = min(initiator_min_degree, n - 1)
    if deg0 < floor:
        have = set(hi[lo == 0].tolist())
        extra = [j for j in range(1, n) if j not in have][: floor - deg0]
        if extra:
            codes = np.unique(
                np.concatenate([lo * np.int64(n) + hi, np.asarray(extra, dtype=np.int64)])
            )
            lo = codes // n
            hi = codes % n

    # Social distances from a heavy-tailed interaction-frequency proxy:
    # frequent contacts are close, the long tail sits near the 30.0 cap.
    freq = rng.lognormal(mean=1.0, sigma=1.0, size=len(lo))
    dist = 30.0 / (1.0 + np.log1p(freq))
    return CSRGraph.from_edge_arrays(n, lo, hi, dist)


def generate_scale_dataset(
    n_people: int,
    mean_degree: float = 8.0,
    exponent: float = 2.5,
    schedule_days: int = 1,
    slots_per_day: int = SLOTS_PER_DAY_DEFAULT,
    seed: int = 7,
) -> Dataset:
    """Generate a scale dataset: CSR power-law graph + lazy calendars.

    Deterministic for a given parameter set; the graph can be persisted with
    :func:`~repro.graph.csr.pack_graph` and re-opened memory-mapped via
    :func:`dataset_from_substrate`.
    """
    graph = generate_scale_graph(
        n_people, mean_degree=mean_degree, exponent=exponent, seed=seed
    )
    calendars = _lazy_calendars(range(graph.vertex_count), schedule_days, slots_per_day, seed)
    return Dataset(
        name=f"scale-{n_people}",
        graph=graph,
        calendars=calendars,
        description=(
            f"Chung-Lu power-law graph over {n_people} people "
            f"(exponent {exponent}, target mean degree {mean_degree}) with "
            f"lazily materialised day-structured calendars"
        ),
        metadata={
            "initiator": SCALE_INITIATOR,
            "seed": seed,
            "mean_degree_target": mean_degree,
            "exponent": exponent,
            "schedule_days": schedule_days,
        },
    )


def dataset_from_substrate(
    path: PathLike,
    schedule_days: int = 1,
    slots_per_day: int = SLOTS_PER_DAY_DEFAULT,
    seed: int = 7,
    mmap: bool = True,
    name: Optional[str] = None,
) -> Dataset:
    """Open a packed ``.stgq`` substrate file as a ready-to-serve dataset.

    The graph arrays are memory-mapped (``mmap=True``), so N workers opening
    the same file share one set of page-cache pages instead of N pickled
    copies; calendars are seeded lazily per person exactly as
    :func:`generate_scale_dataset` does.
    """
    path = Path(path)
    graph = load_stgq(path, mmap=mmap)
    population = range(graph.vertex_count) if graph.identity_ids else graph.vertices()
    calendars = _lazy_calendars(population, schedule_days, slots_per_day, seed)
    initiator = population[0] if len(population) else None
    return Dataset(
        name=name or f"substrate-{path.stem}",
        graph=graph,
        calendars=calendars,
        description=f"mmap-backed CSR substrate loaded from {path}",
        metadata={
            "initiator": initiator,
            "seed": seed,
            "graph_path": str(path),
            "graph_version": graph.version,
            "schedule_days": schedule_days,
        },
    )
