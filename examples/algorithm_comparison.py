"""Compare every solver in the library on the same queries.

This example is a miniature version of the paper's evaluation: it runs
SGSelect, the exhaustive baseline and the Integer Programming model on the
same SGQ, then STGSelect and the per-period baseline on the same STGQ, and
prints running time, search statistics, and the (identical) optima.  It is
the quickest way to see why the branch-and-bound algorithms are the ones a
deployment would use.  Every solver here is exact, so it exits 1 when two of
them disagree on a query's feasibility or optimal distance.

Run with::

    python examples/algorithm_comparison.py
"""

import sys
import time

from repro.core import (
    BaselineSGQ,
    BaselineSTGQ,
    IPSolver,
    SGQuery,
    SGSelect,
    STGQuery,
    STGSelect,
)
from repro.datasets import generate_real_dataset
from repro.experiments import ego_size, pick_initiator


def timed(label, fn):
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    return label, elapsed, result


def print_rows(rows):
    width = max(len(label) for label, _, _ in rows)
    for label, elapsed, result in rows:
        status = f"distance {result.total_distance:.1f}" if result.feasible else "infeasible"
        detail = ""
        if result.stats.nodes_expanded:
            detail = f", {result.stats.nodes_expanded} nodes/groups explored"
        print(f"  {label.ljust(width)}  {elapsed * 1e3:8.2f} ms   {status}{detail}")


def agree(rows) -> bool:
    """Print and return whether every row has the same feasibility and optimum."""
    answers = {(r.feasible, round(r.total_distance, 6)) for _, _, r in rows}
    print(f"  -> all exact solvers agree: {len(answers) == 1}")
    return len(answers) == 1


def main() -> int:
    dataset = generate_real_dataset(seed=42)
    initiator = pick_initiator(dataset, radius=1, min_candidates=12, max_candidates=26)
    graph, calendars = dataset.graph, dataset.calendars
    print(f"workload: {dataset.name}, initiator {initiator} "
          f"with {ego_size(dataset, initiator, 1)} direct friends\n")

    # ------------------------------------------------------------------
    sg_query = SGQuery(initiator=initiator, group_size=6, radius=1, acquaintance=2)
    # Untimed: the first IP solve in a process pays for importing scipy and
    # numpy and for starting HiGHS, which would dwarf the timed solve.
    IPSolver().solve_sgq(graph, sg_query)
    print(f"Social Group Query: {sg_query.describe()}")
    rows = [
        timed("SGSelect (branch & bound)", lambda: SGSelect(graph).solve(sg_query)),
        timed("Baseline (enumerate all groups)", lambda: BaselineSGQ(graph).solve(sg_query)),
        timed("Integer Programming (HiGHS)", lambda: IPSolver().solve_sgq(graph, sg_query)),
    ]
    print_rows(rows)
    ok = agree(rows)
    print()

    # ------------------------------------------------------------------
    stg_query = STGQuery(
        initiator=initiator, group_size=5, radius=1, acquaintance=2, activity_length=4
    )
    print(f"Social-Temporal Group Query: {stg_query.describe()}")
    rows = [
        timed("STGSelect (pivot slots)", lambda: STGSelect(graph, calendars).solve(stg_query)),
        timed(
            "Baseline (one SGQ per period)",
            lambda: BaselineSTGQ(graph, calendars).solve(stg_query),
        ),
        timed("Integer Programming (HiGHS)", lambda: IPSolver().solve_stgq(graph, calendars, stg_query)),
    ]
    print_rows(rows)
    ok = agree(rows) and ok
    best = rows[0][2]
    if best.feasible:
        print(f"  -> chosen period: slots {best.period.as_tuple()}, "
              f"pivot slot {best.pivot}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
