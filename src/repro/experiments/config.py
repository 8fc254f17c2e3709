"""Experiment configuration.

The paper's evaluation (Figure 1, panels (a)–(h)) runs on a 2008-era Xeon
server with C-like single-thread implementations; a pure-Python reproduction
cannot use the same absolute scales (the SGQ baseline at ``p = 11`` over a
100-friend ego network would enumerate ~10^13 groups).  Every experiment
therefore has an :class:`ExperimentScale`:

* ``SMOKE`` — seconds; used by the test-suite and CI.
* ``PAPER_SHAPE`` — the default for :func:`~repro.experiments.run_figure`:
  small enough to finish in seconds, large enough that the qualitative
  shapes of the paper's figures (who wins, how the gap grows) are visible.
* ``FULL`` — the closest practical approximation of the paper's parameter
  ranges; expect long runtimes for the baseline series.

The per-figure parameter grids live here and nowhere else: the figure
runners, and through them ``stgq figure``, take every sweep from this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional, Tuple

__all__ = ["ExperimentScale", "FigureConfig", "figure_config", "FIGURE_IDS"]


class ExperimentScale(str, Enum):
    """How big an experiment run should be."""

    SMOKE = "smoke"
    PAPER_SHAPE = "paper-shape"
    FULL = "full"


@dataclass(frozen=True)
class FigureConfig:
    """Parameter grid for one panel of the paper's Figure 1."""

    figure: str
    description: str
    sweep_name: str
    sweep_values: Tuple[object, ...]
    group_size: int
    radius: int
    acquaintance: int
    activity_length: Optional[int] = None
    schedule_days: int = 1
    network_size: int = 194
    include_ip: bool = False
    include_baseline: bool = True
    baseline_cap: Optional[int] = 2_000_000
    seed: int = 42
    notes: str = ""


FIGURE_IDS = ("1a", "1b", "1c", "1d", "1e", "1f", "1g", "1h")

_PAPER_SHAPE: Dict[str, FigureConfig] = {
    "1a": FigureConfig(
        figure="1a",
        description="SGQ running time vs. group size p (SGSelect / Baseline / IP)",
        sweep_name="p",
        sweep_values=(3, 4, 5, 6, 7),
        group_size=0,  # swept
        radius=1,
        acquaintance=2,
        include_ip=True,
        notes="paper sweeps p = 3..11 with k = 2, s = 1",
    ),
    "1b": FigureConfig(
        figure="1b",
        description="SGQ running time vs. social radius s (SGSelect / Baseline)",
        sweep_name="s",
        sweep_values=(1, 2, 3),
        group_size=4,
        radius=0,  # swept
        acquaintance=2,
        notes="paper sweeps s in {1, 3, 5} with p = 4, k = 2",
    ),
    "1c": FigureConfig(
        figure="1c",
        description="SGQ running time vs. acquaintance constraint k (SGSelect / Baseline)",
        sweep_name="k",
        sweep_values=(1, 2, 3, 4, 5, 6),
        group_size=5,
        radius=1,
        acquaintance=0,  # swept
        notes=(
            "paper sweeps k = 1..6 with p = 5, s = 2; the harness uses s = 1 so the "
            "pure-Python exhaustive baseline stays runnable (the claim — k barely "
            "affects running time and SGSelect wins at every k — is radius-independent)"
        ),
    ),
    "1d": FigureConfig(
        figure="1d",
        description="SGQ running time vs. network size (SGSelect / Baseline / IP)",
        sweep_name="network_size",
        sweep_values=(194, 800, 3200, 12800),
        group_size=5,
        radius=1,
        acquaintance=3,
        include_ip=True,
        notes="paper sweeps network size in {194, 800, 3200, 12800} with p = 5, k = 3, s = 1",
    ),
    "1e": FigureConfig(
        figure="1e",
        description="STGQ running time vs. activity length m (STGSelect / Baseline)",
        sweep_name="m",
        sweep_values=(2, 4, 6, 8, 12, 16, 24),
        group_size=4,
        radius=1,
        acquaintance=2,
        activity_length=0,  # swept
        notes="paper sweeps m = 2..24 half-hour slots",
    ),
    "1f": FigureConfig(
        figure="1f",
        description="STGQ running time vs. schedule length in days (STGSelect / Baseline)",
        sweep_name="schedule_days",
        sweep_values=(1, 2, 3, 4, 5, 6, 7),
        group_size=4,
        radius=1,
        acquaintance=2,
        activity_length=4,
        notes="paper sweeps schedule length 1..7 days",
    ),
    "1g": FigureConfig(
        figure="1g",
        description="Solution quality: observed k vs. p (STGArrange vs PCArrange)",
        sweep_name="p",
        sweep_values=(3, 4, 5, 6, 7, 8),
        group_size=0,  # swept
        radius=1,
        acquaintance=0,
        activity_length=4,
        include_baseline=False,
        notes=(
            "paper sweeps p = 3..11 on its real dataset; the harness uses s = 1 so the "
            "repeated STGSelect runs inside STGArrange stay interactive in pure Python"
        ),
    ),
    "1h": FigureConfig(
        figure="1h",
        description="Solution quality: total social distance vs. p (STGArrange vs PCArrange)",
        sweep_name="p",
        sweep_values=(3, 4, 5, 6, 7, 8),
        group_size=0,  # swept
        radius=1,
        acquaintance=0,
        activity_length=4,
        include_baseline=False,
        notes=(
            "paper sweeps p = 3..11 on its real dataset; the harness uses s = 1 (see Figure 1(g) note)"
        ),
    ),
}


def _smoke(config: FigureConfig) -> FigureConfig:
    """Shrink a paper-shape config to a seconds-scale smoke run."""
    small_values = {
        "1a": (3, 4),
        "1b": (1, 2),
        "1c": (1, 2),
        "1d": (60, 120),
        "1e": (2, 4),
        "1f": (1, 2),
        "1g": (3, 4),
        "1h": (3, 4),
    }[config.figure]
    network = 60 if config.figure != "1d" else config.network_size
    return FigureConfig(
        figure=config.figure,
        description=config.description,
        sweep_name=config.sweep_name,
        sweep_values=small_values,
        group_size=min(config.group_size, 4) if config.group_size else config.group_size,
        radius=config.radius if config.sweep_name != "s" else config.radius,
        acquaintance=config.acquaintance,
        activity_length=config.activity_length,
        schedule_days=1,
        network_size=network,
        include_ip=config.include_ip,
        include_baseline=config.include_baseline,
        baseline_cap=200_000,
        seed=config.seed,
        notes=config.notes + " (smoke scale)",
    )


def _full(config: FigureConfig) -> FigureConfig:
    """Grow a paper-shape config towards the paper's parameter ranges."""
    full_values = {
        "1a": (3, 4, 5, 6, 7, 8, 9),
        "1b": (1, 2, 3, 4, 5),
        "1c": (1, 2, 3, 4, 5, 6),
        "1d": (194, 800, 3200, 12800),
        "1e": (2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24),
        "1f": (1, 2, 3, 4, 5, 6, 7),
        "1g": (3, 4, 5, 6, 7, 8, 9, 10, 11),
        "1h": (3, 4, 5, 6, 7, 8, 9, 10, 11),
    }[config.figure]
    return FigureConfig(
        figure=config.figure,
        description=config.description,
        sweep_name=config.sweep_name,
        sweep_values=full_values,
        group_size=config.group_size,
        radius=config.radius,
        acquaintance=config.acquaintance,
        activity_length=config.activity_length,
        schedule_days=config.schedule_days,
        network_size=config.network_size,
        include_ip=config.include_ip,
        include_baseline=config.include_baseline,
        baseline_cap=20_000_000,
        seed=config.seed,
        notes=config.notes + " (full scale)",
    )


def figure_config(figure: str, scale: ExperimentScale = ExperimentScale.PAPER_SHAPE) -> FigureConfig:
    """Return the parameter grid for ``figure`` ("1a".."1h") at ``scale``."""
    key = figure.lower().lstrip("fig").lstrip("ure").strip(". ") or figure
    if key not in _PAPER_SHAPE:
        raise KeyError(f"unknown figure {figure!r}; expected one of {FIGURE_IDS}")
    base = _PAPER_SHAPE[key]
    if scale == ExperimentScale.PAPER_SHAPE:
        return base
    if scale == ExperimentScale.SMOKE:
        return _smoke(base)
    return _full(base)
