"""Benchmark regression gate: fresh run vs the committed baseline artifact.

The repo commits the benchmark artifacts CI produces (``BENCH_kernels.json``
from ``bench_service.py --kernels-json``, ``BENCH_substrates.json`` from
``bench_substrate_scale.py --json``) as baselines.  This script turns them
into a gate: given a baseline file and a fresh run of the same benchmark,
it walks both JSON trees, pairs up every *throughput-like* numeric leaf
(higher is better: ``qps``, ``per_sec``, and the ``csr_vs_dict``
speedup ratio), and fails when any fresh value dropped more than
``--max-drop`` (default 20%) below its baseline.

Counters, timings and environment facts (``queries``, ``wall_s``,
``cpu_count``, ...) are deliberately ignored — wall-clock totals vary with
machine load in both directions, and a *rise* in ``wall_s`` is already a
fall in the paired ``qps``.  A throughput key present in the baseline but
missing from the fresh run fails the gate too: a silently renamed metric
must not pass as "no regression".

Run directly (it is a script, not a pytest module)::

    PYTHONPATH=src python benchmarks/check_baseline.py \
        BENCH_kernels.json BENCH_kernels_fresh.json --max-drop 0.2

Exit codes: 0 = no regression, 1 = regression (or unusable files), 2 =
usage error.  CI writes the fresh artifact under a *different* name so the
committed baseline in the checkout is never clobbered before comparison.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Iterator, Tuple

#: JSON keys whose numeric values mean "higher is better".  Everything else
#: (counts, seconds, environment facts) is not gated.
THROUGHPUT_KEYS = ("qps", "per_sec", "csr_vs_dict")


def iter_throughput_leaves(tree: object, prefix: str = "") -> Iterator[Tuple[str, float]]:
    """Yield ``(dotted.path, value)`` for every throughput-like numeric leaf."""
    if not isinstance(tree, dict):
        return
    for key, value in tree.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            yield from iter_throughput_leaves(value, path)
        elif key in THROUGHPUT_KEYS and isinstance(value, (int, float)):
            yield path, float(value)


def check(baseline: Dict, fresh: Dict, max_drop: float) -> Tuple[int, int]:
    """Print a per-metric verdict table; returns (checked, regressed)."""
    fresh_leaves = dict(iter_throughput_leaves(fresh))
    checked = 0
    regressed = 0
    for path, base_value in sorted(iter_throughput_leaves(baseline)):
        checked += 1
        fresh_value = fresh_leaves.get(path)
        if fresh_value is None:
            regressed += 1
            print(f"  FAIL  {path}: present in baseline ({base_value:g}) but missing "
                  "from the fresh run")
            continue
        if base_value <= 0:
            print(f"  skip  {path}: non-positive baseline {base_value:g}")
            continue
        drop = (base_value - fresh_value) / base_value
        verdict = "FAIL" if drop > max_drop else "ok"
        if drop > max_drop:
            regressed += 1
        print(f"  {verdict:>4}  {path}: {base_value:g} -> {fresh_value:g} "
              f"({-drop:+.1%} vs baseline, floor {-max_drop:.0%})")
    return checked, regressed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed baseline artifact (JSON)")
    parser.add_argument("fresh", help="freshly produced artifact of the same benchmark")
    parser.add_argument(
        "--max-drop",
        type=float,
        default=0.2,
        metavar="FRACTION",
        help="maximum tolerated throughput drop vs baseline (default 0.2 = 20%%)",
    )
    args = parser.parse_args(argv)
    if not 0 <= args.max_drop < 1:
        parser.error(f"--max-drop must be in [0, 1), got {args.max_drop}")
    trees = {}
    for label, path in (("baseline", args.baseline), ("fresh", args.fresh)):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                trees[label] = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"FAIL: cannot read {label} {path!r}: {exc}")
            return 1
    print(f"baseline {args.baseline} vs fresh {args.fresh} (max drop {args.max_drop:.0%})")
    checked, regressed = check(trees["baseline"], trees["fresh"], args.max_drop)
    if not checked:
        print("FAIL: baseline contains no throughput metrics "
              f"(looked for keys: {', '.join(THROUGHPUT_KEYS)})")
        return 1
    if regressed:
        print(f"FAIL: {regressed}/{checked} throughput metrics regressed "
              f"more than {args.max_drop:.0%}")
        return 1
    print(f"ok: {checked} throughput metrics within {args.max_drop:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
