"""Tests for the benchmark regression gate (``benchmarks/check_baseline.py``)."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "check_baseline.py"
_spec = importlib.util.spec_from_file_location("check_baseline", _SCRIPT)
check_baseline = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("check_baseline", check_baseline)
_spec.loader.exec_module(check_baseline)

BASELINE = {
    "compiled": {"qps": 30.0, "wall_s": 7.0, "queries": 200},
    "csr": {"qps": 40.0},
    "csr_vs_dict": 1.33,
    "meta": {"cpu_count": 8},
}


def write(tmp_path, name, tree):
    path = tmp_path / name
    path.write_text(json.dumps(tree))
    return str(path)


class TestLeafExtraction:
    def test_only_throughput_keys_are_gated(self):
        leaves = dict(check_baseline.iter_throughput_leaves(BASELINE))
        assert leaves == {
            "compiled.qps": 30.0,
            "csr.qps": 40.0,
            "csr_vs_dict": 1.33,
        }

    def test_nested_paths_are_dotted(self):
        tree = {"extraction": {"csr": {"per_sec": 23.7}, "dict": {"per_sec": 32.5}}}
        leaves = dict(check_baseline.iter_throughput_leaves(tree))
        assert leaves == {"extraction.csr.per_sec": 23.7, "extraction.dict.per_sec": 32.5}

    def test_non_dict_input_yields_nothing(self):
        assert list(check_baseline.iter_throughput_leaves([1, 2])) == []


class TestGate:
    def test_identical_run_passes(self, tmp_path):
        base = write(tmp_path, "base.json", BASELINE)
        assert check_baseline.main([base, base]) == 0

    def test_small_drop_within_tolerance_passes(self, tmp_path, capsys):
        fresh = {"compiled": {"qps": 27.0}, "csr": {"qps": 38.0}, "csr_vs_dict": 1.30}
        code = check_baseline.main(
            [write(tmp_path, "b.json", BASELINE), write(tmp_path, "f.json", fresh)]
        )
        assert code == 0
        assert "ok: 3 throughput metrics" in capsys.readouterr().out

    def test_large_drop_fails(self, tmp_path, capsys):
        fresh = {"compiled": {"qps": 20.0}, "csr": {"qps": 40.0}, "csr_vs_dict": 1.33}
        code = check_baseline.main(
            [write(tmp_path, "b.json", BASELINE), write(tmp_path, "f.json", fresh)]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out and "compiled.qps" in out

    def test_missing_metric_fails(self, tmp_path, capsys):
        fresh = {"compiled": {"qps": 30.0}, "csr_vs_dict": 1.33}
        code = check_baseline.main(
            [write(tmp_path, "b.json", BASELINE), write(tmp_path, "f.json", fresh)]
        )
        assert code == 1
        assert "missing" in capsys.readouterr().out

    def test_throughput_rise_passes(self, tmp_path):
        fresh = {"compiled": {"qps": 99.0}, "csr": {"qps": 99.0}, "csr_vs_dict": 9.9}
        assert check_baseline.main(
            [write(tmp_path, "b.json", BASELINE), write(tmp_path, "f.json", fresh)]
        ) == 0

    def test_no_throughput_metrics_fails(self, tmp_path):
        empty = {"wall_s": 3.0}
        base = write(tmp_path, "b.json", empty)
        assert check_baseline.main([base, base]) == 1

    def test_unreadable_file_fails(self, tmp_path, capsys):
        base = write(tmp_path, "b.json", BASELINE)
        assert check_baseline.main([base, str(tmp_path / "missing.json")]) == 1
        assert "cannot read" in capsys.readouterr().out

    def test_bad_max_drop_is_usage_error(self, tmp_path):
        base = write(tmp_path, "b.json", BASELINE)
        with pytest.raises(SystemExit) as excinfo:
            check_baseline.main([base, base, "--max-drop", "1.5"])
        assert excinfo.value.code == 2

    def test_committed_baselines_are_gateable(self):
        """The repo's committed artifacts must contain throughput leaves."""
        repo = _SCRIPT.parent.parent
        for name in ("BENCH_kernels.json", "BENCH_substrates.json"):
            tree = json.loads((repo / name).read_text())
            assert list(check_baseline.iter_throughput_leaves(tree)), name
