"""Tests for workload construction, the figure runners (smoke scale) and the
ablation harness."""

import time

import pytest

from repro.core import SGQuery, STGQuery
from repro.exceptions import QueryError
from repro.experiments import (
    ExperimentScale,
    ego_size,
    figures,
    format_ablation,
    generate_query_workload,
    load_workload,
    pick_initiator,
    run_figure,
    run_sg_ablation,
    run_stg_ablation,
    save_workload,
    workload,
)


class TestWorkloads:
    def test_small_workload_uses_community_generator(self):
        dataset = workload(network_size=80, schedule_days=1, seed=7)
        assert dataset.graph.vertex_count == 80
        assert dataset.name == "real-194"

    def test_large_workload_uses_coauthorship_generator(self):
        dataset = workload(network_size=600, schedule_days=1, seed=7)
        assert dataset.graph.vertex_count == 600
        assert dataset.name.startswith("coauthorship")

    def test_workload_is_memoised(self):
        a = workload(network_size=80, schedule_days=1, seed=7)
        b = workload(network_size=80, schedule_days=1, seed=7)
        assert a is b

    def test_ego_size(self):
        dataset = workload(network_size=80, schedule_days=1, seed=7)
        initiator = dataset.metadata["initiator"]
        assert ego_size(dataset, initiator, 1) == dataset.graph.degree(initiator)
        assert ego_size(dataset, initiator, 2) >= ego_size(dataset, initiator, 1)

    def test_pick_initiator_respects_bounds(self):
        dataset = workload(network_size=80, schedule_days=1, seed=7)
        initiator = pick_initiator(dataset, radius=1, min_candidates=5, max_candidates=30)
        assert 5 <= ego_size(dataset, initiator, 1) <= 30

    def test_pick_initiator_falls_back_to_largest_ego(self):
        dataset = workload(network_size=80, schedule_days=1, seed=7)
        initiator = pick_initiator(dataset, radius=1, min_candidates=10_000)
        degrees = [dataset.graph.degree(v) for v in dataset.people]
        assert dataset.graph.degree(initiator) == max(degrees)


class TestWorkloadSaveReplay:
    def test_roundtrip_preserves_queries_and_order(self, tmp_path):
        dataset = workload(network_size=60, schedule_days=1, seed=7)
        queries = generate_query_workload(dataset, 40, skew=1.0, stg_fraction=0.4, seed=3)
        path = tmp_path / "trace.jsonl"
        assert save_workload(queries, path) == 40
        loaded = load_workload(path)
        assert loaded == queries  # exact queries, exact order
        assert any(isinstance(q, STGQuery) for q in loaded)
        assert any(isinstance(q, SGQuery) for q in loaded)

    def test_trace_is_jsonl_request_schema(self, tmp_path):
        # The trace must be byte-compatible with the serving request codec:
        # a saved line can be piped straight into `stgq serve --jsonl`.
        import json

        from repro.service.codec import query_from_request

        dataset = workload(network_size=60, schedule_days=1, seed=7)
        queries = generate_query_workload(dataset, 5, seed=1)
        path = tmp_path / "trace.jsonl"
        save_workload(queries, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        for line, query in zip(lines, queries):
            assert query_from_request(json.loads(line)) == query

    def test_blank_lines_skipped_and_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"initiator": 1, "group_size": 3}\n\nnot json\n')
        with pytest.raises(QueryError) as excinfo:
            load_workload(path)
        assert ":3:" in str(excinfo.value)
        path.write_text('{"initiator": 1, "group_size": 3}\n\n{"group_size": 3}\n')
        with pytest.raises(QueryError) as excinfo:
            load_workload(path)
        assert ":3:" in str(excinfo.value)
        path.write_text('{"initiator": 1, "group_size": 3}\n\n')
        assert len(load_workload(path)) == 1


@pytest.mark.parametrize("figure", ["1a", "1b", "1c", "1d", "1e", "1f", "1g", "1h"])
def test_figure_runners_smoke(figure):
    """Every panel runner completes at smoke scale and yields measurements for
    each sweep value."""
    series = run_figure(figure, scale=ExperimentScale.SMOKE)
    assert series.figure == figure
    assert len(series.points) >= 2
    for point in series.points:
        assert point.measurements or point.extra
    # Performance panels must include the paper's protagonist algorithm.
    if figure in ("1a", "1b", "1c", "1d"):
        assert "SGSelect" in series.algorithms()
        assert "Baseline" in series.algorithms()
    if figure in ("1e", "1f"):
        assert "STGSelect" in series.algorithms()
    if figure in ("1g", "1h"):
        for point in series.points:
            extra = point.extra
            assert "stgarrange_k" in extra
            # The quality claim: STGArrange's group is never less acquainted
            # nor farther away than the one manual coordination settles on.
            if extra["pcarrange_feasible"] and extra["stgarrange_feasible"]:
                assert extra["stgarrange_k"] <= extra["pcarrange_k"]
                assert extra["stgarrange_distance"] <= extra["pcarrange_distance"] + 1e-9


def test_ip_column_excludes_solver_warm_up(monkeypatch):
    """The IP solver's one-off start-up (scipy's lazy import) is paid before
    the sweep, not charged to its first point."""
    calls = []

    class ColdStartIP:
        def solve_sgq(self, graph, query):
            if not calls:
                time.sleep(0.3)
            calls.append(query)

    monkeypatch.setattr(figures, "IPSolver", ColdStartIP)
    monkeypatch.setattr(figures, "_HAVE_MILP_BACKEND", True)
    series = run_figure("1a", scale=ExperimentScale.SMOKE)
    timings = series.series("IP")
    assert len(timings) == len(series.points) and all(t < 0.1 for t in timings)


def test_figure_runner_unknown_panel():
    with pytest.raises(KeyError):
        run_figure("9z")


class TestAblation:
    def test_sg_ablation_variants_agree_on_optimum(self):
        dataset = workload(network_size=80, schedule_days=1, seed=7)
        initiator = pick_initiator(dataset, radius=1, min_candidates=8, max_candidates=24)
        report = run_sg_ablation(dataset, initiator, group_size=4, radius=1, acquaintance=2)
        distances = {row.total_distance for row in report.rows if row.feasible}
        assert len(distances) <= 1  # every variant returns the same optimum
        assert {row.variant for row in report.rows} >= {"full", "no-distance-pruning"}
        text = format_ablation(report)
        assert "variant" in text and "full" in text

    def test_stg_ablation_includes_temporal_strategies(self):
        dataset = workload(network_size=80, schedule_days=1, seed=7)
        initiator = pick_initiator(dataset, radius=1, min_candidates=8, max_candidates=24)
        report = run_stg_ablation(
            dataset, initiator, group_size=3, radius=1, acquaintance=2, activity_length=2
        )
        variants = {row.variant for row in report.rows}
        assert "no-pivot-slots" in variants
        assert "no-availability-pruning" in variants
        distances = {round(row.total_distance, 6) for row in report.rows if row.feasible}
        assert len(distances) <= 1
