"""What a workload run hands back, and the per-layer metric set.

Every workload reports the same end-to-end and per-layer names (the
benchmark's contract); a layer a workload leaves idle reads 0.  The
service rows exist only in ``service-trip``, which BENCHMARK.json does
not gate (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: End-to-end metrics (``--trace 0``), per workload.  README.md gives
#: the definition of each cell.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "primary_s": "s",
    "secondary_s": "s",
    "throughput_per_s": "1/s",
}

#: Self-time rows of the traced run: one per span, so these plus
#: ``unattributed_s`` add up to ``traced_wall_s``.  Leaf spans
#: (the HiGHS calls, cache reads and writes) report their busy time,
#: which equals their self time.
SELF_ROWS = {
    "solver.milp": "solver.milp.busy_s",
    "solver.lp": "solver.lp.busy_s",
    "solver.glue": "solver.glue_s",
    "core.analyze": "core.analyze.self_s",
    "core.linearize": "core.linearize_s",
    "metaopt.solve": "metaopt.solve.self_s",
    "metaopt.verify": "metaopt.verify_s",
    "te.solve": "te.solve_s",
    "failures.sample": "failures.sample_s",
    "failures.resolve": "failures.resolve.self_s",
    "failures.estimate": "failures.estimate.self_s",
    "runner.cache.get": "runner.cache.get.busy_s",
    "runner.cache.put": "runner.cache.put.busy_s",
    "runner.dispatch": "runner.dispatch_s",
    "runner.task": "runner.task.self_s",
}

#: Self-time rows of the spans only ``service-trip`` records.
SERVICE_SELF_ROWS = {
    "service.http": "service.http_s",
    "loadgen.idle": "loadgen.idle_s",
}

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    **{row: "s" for row in SELF_ROWS.values()},
    "solver.milp.calls": "count",
    "solver.milp.nodes": "count",
    "solver.milp.nnz": "count",
    "solver.lp.calls": "count",
    "solver.lp.iters": "count",
    "core.analyze.calls": "count",
    "failures.resolve.calls": "count",
    "failures.resolve.busy_s": "s",
    "failures.distinct_ratio": "ratio",
    "failures.fresh_solves": "count",
    "runner.cache.get.calls": "count",
    "runner.cache.put.calls": "count",
    "runner.cache.hit_ratio": "ratio",
    "runner.retries": "count",
    "trace.overhead_ratio": "ratio",
    "traced_wall_s": "s",
    "unattributed_s": "s",
}

#: Per-layer metrics that ``service-trip`` adds.
SERVICE_LAYER = {
    **{row: "s" for row in SERVICE_SELF_ROWS.values()},
    "service.submit_s": "s",
    "service.queue_wait_s": "s",
    "service.run_s": "s",
    "service.job_compute_s": "s",
    "service.exec_overhead_s": "s",
    "service.claim_waste_ratio": "ratio",
    "service.http_per_trip": "count",
    "service.dedup_p50_s": "s",
    "loadgen.late_p50_s": "s",
    "loadgen.late_max_s": "s",
    "loadgen.poll_interval_s": "s",
}


@dataclass
class Report:
    """One workload run.

    Attributes:
        attempted / failed: Operations run and operations that failed
            (cells, estimates or trips).
        errors: Failed output checks; any entry makes the run incorrect.
        end_to_end: ``END_TO_END`` name -> value (untraced runs).
        per_layer: ``PER_LAYER`` name -> value (traced runs).
        named: The workload's own metrics as ``(name, value, unit,
            note)`` lines for the human-readable summary.
        counters: Deterministic counters that must repeat exactly.
    """

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    named: list[tuple] = field(default_factory=list)
    counters: dict[str, object] = field(default_factory=dict)

    def note(self, name: str, value: float, unit: str, note: str = ""):
        self.named.append((name, value, unit, note))


def layer_metrics(tracer, wall: float, units: int = 1) -> dict[str, float]:
    """Per-layer rows from a tracer over ``units`` traced iterations.

    ``wall`` is the traced wall time of all of them.  Every time, call
    and work row is divided by ``units``, so the rows are per traced
    sweep or round whatever number of them fit in the run.
    Workload-specific rows (ratios, service observations) start at 0
    here and are filled in by the workload.
    """
    out = {name: 0.0 for name in PER_LAYER}
    rows = {**SELF_ROWS, **SERVICE_SELF_ROWS}
    unknown = set(tracer.self_time) - set(rows)
    if unknown:
        raise KeyError(f"spans without a self-time row: {sorted(unknown)}")
    for span, row in SELF_ROWS.items():
        out[row] = tracer.self_time.get(span, 0.0) / units
    for span in ("solver.milp", "solver.lp", "core.analyze",
                 "failures.resolve", "runner.cache.get",
                 "runner.cache.put"):
        out[f"{span}.calls"] = tracer.calls.get(span, 0) / units
    out["failures.resolve.busy_s"] = \
        tracer.busy.get("failures.resolve", 0.0) / units
    for name in ("solver.milp.nodes", "solver.milp.nnz", "solver.lp.iters"):
        out[name] = tracer.counts.get(name, 0) / units
    out["traced_wall_s"] = wall / units
    out["unattributed_s"] = (wall - tracer.self_total()) / units
    return out
