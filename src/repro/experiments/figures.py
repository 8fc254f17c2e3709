"""Runners that regenerate every panel of the paper's Figure 1.

Each ``run_figure_1x`` function builds the workload described in
:mod:`repro.experiments.config`, runs the algorithms the paper compares in
that panel, and returns a :class:`~repro.experiments.runner.FigureSeries`
with the measured series; ``python -m repro figure 1e`` prints them from
the command line.  They are the only Figure 1 harness.

The absolute running times are not comparable with the paper's (different
hardware, C vs. pure Python); the claims reproduced are the *shapes*:

* (a)–(f): SGSelect / STGSelect beat the corresponding baseline by a widening
  margin as ``p``, ``s``, the network size, ``m`` or the schedule length
  grow; the general-purpose IP solver is far slower than SGSelect.
* (g)–(h): STGArrange finds groups with smaller observed ``k`` and no larger
  total social distance than the manual-coordination model PCArrange.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..core.baseline import BaselineSGQ, BaselineSTGQ
from ..core.ip.solver import IPSolver

try:  # scipy (and its numpy) is optional; without it the IP column is omitted.
    import scipy  # noqa: F401

    _HAVE_MILP_BACKEND = True
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    _HAVE_MILP_BACKEND = False
from ..core.query import SGQuery, STGQuery
from ..core.sgselect import SGSelect
from ..core.stgarrange import STGArrange
from ..core.stgselect import STGSelect
from ..datasets.base import Dataset
from ..types import Vertex
from .config import ExperimentScale, FigureConfig, figure_config
from .runner import FigureSeries, SeriesPoint, measure
from .workloads import ego_size, pick_initiator, workload

__all__ = [
    "run_figure",
    "run_figure_1a",
    "run_figure_1b",
    "run_figure_1c",
    "run_figure_1d",
    "run_figure_1e",
    "run_figure_1f",
    "run_figure_1g",
    "run_figure_1h",
]

#: Candidate-pool bounds used when a brute-force baseline participates; keeps
#: the enumeration count in the shape-preserving range for pure Python.
_BASELINE_EGO_BOUNDS = (10, 26)


def _series(config: FigureConfig, dataset: Dataset, initiator: Vertex) -> FigureSeries:
    return FigureSeries(
        figure=config.figure,
        description=config.description,
        sweep_name=config.sweep_name,
        workload_info={
            "dataset": dataset.name,
            "people": dataset.graph.vertex_count,
            "friendships": dataset.graph.edge_count,
            "initiator": initiator,
            "horizon_slots": dataset.calendars.horizon,
            "notes": config.notes,
        },
    )


def _sg_algorithms(
    config: FigureConfig, dataset: Dataset, initiator: Vertex, query: SGQuery
) -> Dict[str, Callable[[], object]]:
    """The solver callables the SGQ panels compare."""
    algorithms: Dict[str, Callable[[], object]] = {
        "SGSelect": lambda: SGSelect(dataset.graph).solve(query)
    }
    if config.include_baseline:
        algorithms["Baseline"] = lambda: BaselineSGQ(dataset.graph).solve(
            query, max_groups=config.baseline_cap
        )
    if config.include_ip and _HAVE_MILP_BACKEND:
        # Without scipy the IP comparison column is omitted up front; a
        # SolverError from an *installed* backend still fails the run
        # loudly (non-convergence must never be recorded as a skip).
        algorithms["IP"] = lambda: IPSolver().solve_sgq(dataset.graph, query)
    return algorithms


def _stg_algorithms(
    config: FigureConfig, dataset: Dataset, query: STGQuery
) -> Dict[str, Callable[[], object]]:
    """The solver callables the STGQ panels compare."""
    algorithms: Dict[str, Callable[[], object]] = {
        "STGSelect": lambda: STGSelect(dataset.graph, dataset.calendars).solve(query)
    }
    if config.include_baseline:
        algorithms["Baseline"] = lambda: BaselineSTGQ(dataset.graph, dataset.calendars).solve(query)
    return algorithms


def _run_point(
    series: FigureSeries,
    point: SeriesPoint,
    algorithms: Dict[str, Callable[[], object]],
    repetitions: int,
) -> None:
    if not series.points and "IP" in algorithms:
        # Untimed: the first IP solve in a process pays for the lazy scipy
        # import inside solve_with_scipy, which dwarfs a warm solve.
        algorithms["IP"]()
    for name, fn in algorithms.items():
        try:
            point.measurements[name] = measure(fn, repetitions=repetitions)
        except ValueError as exc:
            # The baseline cap refused an astronomically large enumeration;
            # record the omission instead of hanging the run.
            point.extra[f"{name}_skipped"] = str(exc)
    series.points.append(point)


# ----------------------------------------------------------------------
# performance panels
# ----------------------------------------------------------------------
def run_figure_1a(
    scale: ExperimentScale = ExperimentScale.PAPER_SHAPE, repetitions: int = 1
) -> FigureSeries:
    """Figure 1(a): SGQ running time vs. group size ``p``."""
    config = figure_config("1a", scale)
    dataset = workload(config.network_size, config.schedule_days, config.seed)
    initiator = pick_initiator(dataset, config.radius, *_BASELINE_EGO_BOUNDS)
    series = _series(config, dataset, initiator)
    series.workload_info["ego_candidates"] = ego_size(dataset, initiator, config.radius)
    for p in config.sweep_values:
        query = SGQuery(
            initiator=initiator, group_size=int(p), radius=config.radius, acquaintance=config.acquaintance
        )
        point = SeriesPoint(sweep_value=p)
        _run_point(series, point, _sg_algorithms(config, dataset, initiator, query), repetitions)
    return series


def run_figure_1b(
    scale: ExperimentScale = ExperimentScale.PAPER_SHAPE, repetitions: int = 1
) -> FigureSeries:
    """Figure 1(b): SGQ running time vs. social radius ``s``."""
    config = figure_config("1b", scale)
    dataset = workload(config.network_size, config.schedule_days, config.seed)
    initiator = pick_initiator(dataset, 1, *_BASELINE_EGO_BOUNDS)
    series = _series(config, dataset, initiator)
    for s in config.sweep_values:
        query = SGQuery(
            initiator=initiator,
            group_size=config.group_size,
            radius=int(s),
            acquaintance=config.acquaintance,
        )
        point = SeriesPoint(sweep_value=s)
        point.extra["ego_candidates"] = ego_size(dataset, initiator, int(s))
        _run_point(series, point, _sg_algorithms(config, dataset, initiator, query), repetitions)
    return series


def run_figure_1c(
    scale: ExperimentScale = ExperimentScale.PAPER_SHAPE, repetitions: int = 1
) -> FigureSeries:
    """Figure 1(c): SGQ running time vs. acquaintance constraint ``k``."""
    config = figure_config("1c", scale)
    dataset = workload(config.network_size, config.schedule_days, config.seed)
    initiator = pick_initiator(dataset, config.radius, *_BASELINE_EGO_BOUNDS)
    series = _series(config, dataset, initiator)
    series.workload_info["ego_candidates"] = ego_size(dataset, initiator, config.radius)
    for k in config.sweep_values:
        query = SGQuery(
            initiator=initiator,
            group_size=config.group_size,
            radius=config.radius,
            acquaintance=int(k),
        )
        point = SeriesPoint(sweep_value=k)
        _run_point(series, point, _sg_algorithms(config, dataset, initiator, query), repetitions)
    return series


def run_figure_1d(
    scale: ExperimentScale = ExperimentScale.PAPER_SHAPE, repetitions: int = 1
) -> FigureSeries:
    """Figure 1(d): SGQ running time vs. network size."""
    config = figure_config("1d", scale)
    base_dataset = workload(config.sweep_values[0], config.schedule_days, config.seed)
    initiator_hint = pick_initiator(base_dataset, config.radius, *_BASELINE_EGO_BOUNDS)
    series = _series(config, base_dataset, initiator_hint)
    for size in config.sweep_values:
        dataset = workload(int(size), config.schedule_days, config.seed)
        initiator = pick_initiator(dataset, config.radius, *_BASELINE_EGO_BOUNDS)
        query = SGQuery(
            initiator=initiator,
            group_size=config.group_size,
            radius=config.radius,
            acquaintance=config.acquaintance,
        )
        point = SeriesPoint(sweep_value=size)
        point.extra["ego_candidates"] = ego_size(dataset, initiator, config.radius)
        _run_point(series, point, _sg_algorithms(config, dataset, initiator, query), repetitions)
    return series


def run_figure_1e(
    scale: ExperimentScale = ExperimentScale.PAPER_SHAPE, repetitions: int = 1
) -> FigureSeries:
    """Figure 1(e): STGQ running time vs. activity length ``m``."""
    config = figure_config("1e", scale)
    dataset = workload(config.network_size, config.schedule_days, config.seed)
    initiator = pick_initiator(dataset, config.radius, *_BASELINE_EGO_BOUNDS)
    series = _series(config, dataset, initiator)
    for m in config.sweep_values:
        query = STGQuery(
            initiator=initiator,
            group_size=config.group_size,
            radius=config.radius,
            acquaintance=config.acquaintance,
            activity_length=int(m),
        )
        point = SeriesPoint(sweep_value=m)
        _run_point(series, point, _stg_algorithms(config, dataset, query), repetitions)
    return series


def run_figure_1f(
    scale: ExperimentScale = ExperimentScale.PAPER_SHAPE, repetitions: int = 1
) -> FigureSeries:
    """Figure 1(f): STGQ running time vs. schedule length in days."""
    config = figure_config("1f", scale)
    base_dataset = workload(config.network_size, 1, config.seed)
    initiator_hint = pick_initiator(base_dataset, config.radius, *_BASELINE_EGO_BOUNDS)
    series = _series(config, base_dataset, initiator_hint)
    for days in config.sweep_values:
        dataset = workload(config.network_size, int(days), config.seed)
        initiator = pick_initiator(dataset, config.radius, *_BASELINE_EGO_BOUNDS)
        query = STGQuery(
            initiator=initiator,
            group_size=config.group_size,
            radius=config.radius,
            acquaintance=config.acquaintance,
            activity_length=config.activity_length or 4,
        )
        point = SeriesPoint(sweep_value=days)
        point.extra["horizon_slots"] = dataset.calendars.horizon
        _run_point(series, point, _stg_algorithms(config, dataset, query), repetitions)
    return series


# ----------------------------------------------------------------------
# quality panels
# ----------------------------------------------------------------------
def _run_quality_panel(figure: str, scale: ExperimentScale, repetitions: int) -> FigureSeries:
    """Shared runner for Figures 1(g) and 1(h): STGArrange vs PCArrange."""
    config = figure_config(figure, scale)
    dataset = workload(config.network_size, config.schedule_days, config.seed)
    initiator = pick_initiator(dataset, config.radius, min_candidates=12, max_candidates=40)
    series = _series(config, dataset, initiator)
    arranger = STGArrange(dataset.graph, dataset.calendars)
    for p in config.sweep_values:
        point = SeriesPoint(sweep_value=p)
        measurement = measure(
            lambda p=p: arranger.compare(
                initiator=initiator,
                group_size=int(p),
                radius=config.radius,
                activity_length=config.activity_length or 4,
            ),
            repetitions=repetitions,
        )
        outcome = measurement.result
        point.measurements["STGArrange"] = measurement
        point.extra.update(
            {
                "pcarrange_feasible": outcome.pcarrange.feasible,
                "pcarrange_k": outcome.pcarrange_k,
                "pcarrange_distance": outcome.pcarrange.total_distance,
                "stgarrange_feasible": outcome.stgarrange.feasible,
                "stgarrange_k": outcome.stgarrange_k,
                "stgarrange_distance": outcome.stgarrange.total_distance,
            }
        )
        series.points.append(point)
    return series


def run_figure_1g(
    scale: ExperimentScale = ExperimentScale.PAPER_SHAPE, repetitions: int = 1
) -> FigureSeries:
    """Figure 1(g): observed ``k`` vs ``p`` for STGArrange and PCArrange."""
    return _run_quality_panel("1g", scale, repetitions)


def run_figure_1h(
    scale: ExperimentScale = ExperimentScale.PAPER_SHAPE, repetitions: int = 1
) -> FigureSeries:
    """Figure 1(h): total social distance vs ``p`` for STGArrange and PCArrange."""
    return _run_quality_panel("1h", scale, repetitions)


_RUNNERS: Dict[str, Callable[..., FigureSeries]] = {
    "1a": run_figure_1a,
    "1b": run_figure_1b,
    "1c": run_figure_1c,
    "1d": run_figure_1d,
    "1e": run_figure_1e,
    "1f": run_figure_1f,
    "1g": run_figure_1g,
    "1h": run_figure_1h,
}


def run_figure(
    figure: str,
    scale: ExperimentScale = ExperimentScale.PAPER_SHAPE,
    repetitions: int = 1,
) -> FigureSeries:
    """Run one panel of Figure 1 by identifier (``"1a"`` .. ``"1h"``)."""
    key = figure.lower().replace("figure", "").replace("fig", "").strip(". ")
    if key not in _RUNNERS:
        raise KeyError(f"unknown figure {figure!r}; expected one of {sorted(_RUNNERS)}")
    return _RUNNERS[key](scale=scale, repetitions=repetitions)
