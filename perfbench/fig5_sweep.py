"""fig5-sweep: the paper's Figure 5(a) grid through the sweep runner.

Seven cells -- failure budgets k = 1, 2, 4 and probability thresholds
1e-1 ... 1e-7 with unlimited k -- on the standard bench WAN, fixed
average demands, one in-process worker, no cache.  HiGHS
branch-and-bound is nearly all of the wall time.

The instance is the seed-1 bench WAN whatever ``--seed`` says: the
output check knows its degradations, and other instance seeds are not
comparable in cost (seed 3 solves at the root node).  ``--seed`` sets
the order in which the cells are dispatched.
"""

from __future__ import annotations

import random
import time

from common import SetupTimer, Tracer, median, peak_rss_mb_self
from layers import trace_program
from report import Report, layer_metrics

THRESHOLDS = [1e-1, 1e-2, 1e-4, 1e-7]
BUDGETS = [1, 2, 4, None]

#: Normalized degradations of the seed-1 instance, keyed by
#: (threshold, max_failures); a result must be within the 1% MIP gap.
REFERENCE = {
    (None, 1): 0.781426953567478,
    (None, 2): 1.5628539071348015,
    (None, 4): 2.3442808607024634,
    (1e-1, None): 1.8754246885617214,
    (1e-2, None): 2.5005662514156284,
    (1e-4, None): 2.656851642129114,
    (1e-7, None): 2.891279728199531,
}
MIP_GAP = 0.01

#: Set-ups timed at the start and after every sweep; the median of
#: all of them is reported.
SETUP_BATCH = 25


def _build():
    from benchmarks.conftest import WAN_KWARGS
    from repro.analysis.experiments import bench_wan

    net = bench_wan(**WAN_KWARGS)
    return net, net.paths(num_primary=2, num_backup=1)


def _check(outcome) -> tuple[int, list[str]]:
    """(cells failing a check, what failed) for one sweep."""
    from benchmarks.test_fig5_probabilities_matter import _check_shape
    from repro.analysis.experiments import sweep_rows

    errors = [f"cell {o.job.label}: {o.status} ({o.error})"
              for o in outcome.errors()]
    if errors:
        return len(errors), errors
    for result in outcome.results():
        cell = (result["threshold"], result["max_failures"])
        want = REFERENCE[cell]
        got = result["normalized_degradation"]
        if not result.get("verified"):
            errors.append(f"cell {cell} is not verified")
        elif abs(got - want) > MIP_GAP * abs(want):
            errors.append(f"cell {cell}: degradation {got!r}, reference "
                          f"{want!r} (gap {MIP_GAP})")
    bad_cells = len(errors)
    try:
        _check_shape(sweep_rows(outcome))
    except AssertionError as exc:
        errors.append(f"Figure 5 shape check failed: {exc}")
    return bad_cells, errors


def run(seed: int, seconds: float, trace: bool) -> Report:
    from repro.analysis.experiments import (degradation_sweep_spec,
                                            sweep_cells)
    from repro.runner import executor

    report = Report()
    setup = SetupTimer(_build, SETUP_BATCH)
    net, paths = setup.sample()
    cells = sweep_cells(THRESHOLDS, BUDGETS)
    random.Random(seed).shuffle(cells)
    spec = degradation_sweep_spec(net, paths, "avg", cells,
                                  time_limit=60.0, mip_rel_gap=MIP_GAP,
                                  name="fig5-avg")
    # Warm-up, untimed: one cheap cell loads what the runner and the
    # solver import lazily, so the first timed sweep pays no more.
    warm = degradation_sweep_spec(net, paths, "avg",
                                  sweep_cells([1e-1], [None]),
                                  time_limit=60.0, mip_rel_gap=MIP_GAP,
                                  name="fig5-warm-up")
    executor.run_sweep(warm, num_workers=1).raise_on_error()

    walls = {False: [], True: []}     # sweep walls, untraced / traced
    raha_walls = []
    tracer = Tracer()
    retries = 0
    started = time.perf_counter()
    while True:
        done = len(walls[False]) + len(walls[True])
        elapsed = time.perf_counter() - started
        every = walls[False] + walls[True]
        if done >= 2 and elapsed + median(every) > seconds:
            break
        traced = trace and done % 2 == 1
        if traced:
            trace_program(tracer)
        try:
            t0 = time.perf_counter()
            outcome = executor.run_sweep(spec, num_workers=1)
            walls[traced].append(time.perf_counter() - t0)
        finally:
            tracer.restore()
        setup.sample()
        bad_cells, errors = _check(outcome)
        report.attempted += len(outcome.outcomes)
        report.failed += bad_cells
        report.errors += errors
        retries += sum(max(o.attempts - 1, 0) for o in outcome.outcomes)
        raha_walls.append(sum(o.seconds for o in outcome.outcomes
                              if o.ok and o.result["max_failures"] is None))
    peak_rss = peak_rss_mb_self()

    nnz = sum(int((r.get("stats") or {}).get("nnz", 0))
              for r in outcome.results())
    report.counters["solver.milp.nnz"] = nnz
    if trace:
        report.counters["solver.milp.nodes"] = \
            tracer.counts["solver.milp.nodes"] // len(walls[True])
        report.counters["solver.lp.iters"] = \
            tracer.counts["solver.lp.iters"] // len(walls[True])

    setup_s = setup.median
    sweep_s = median(walls[False] + walls[True])
    raha_s = median(raha_walls)
    total = sum(walls[False]) + sum(walls[True])
    cells_per_s = report.attempted / total
    report.end_to_end = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss,
        "primary_s": sweep_s,
        "secondary_s": raha_s,
        "throughput_per_s": cells_per_s,
    }
    n = len(walls[False]) + len(walls[True])
    report.note("setup_s", setup_s, "s",
                f"median of {len(setup.walls)} instance + path builds")
    report.note("failed_ratio", report.failed / report.attempted, "ratio",
                f"{report.failed} of {report.attempted} cells")
    report.note("peak_rss_mb", peak_rss, "MB", "this process")
    report.note("sweep_s", sweep_s, "s", f"median of {n} sweeps")
    report.note("raha_series_s", raha_s, "s",
                "the 4 unlimited-k cells of a sweep, median")
    report.note("cells_per_s", cells_per_s, "1/s", "over all sweeps")

    if trace:
        # Per traced sweep, like the counters.
        layers = layer_metrics(tracer, sum(walls[True]), len(walls[True]))
        layers["runner.retries"] = retries / n
        layers["trace.overhead_ratio"] = \
            median(walls[True]) / median(walls[False]) - 1.0
        report.per_layer = layers
    return report
