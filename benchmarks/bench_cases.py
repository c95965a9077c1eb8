"""Registered bench cases wrapping the repo's benchmark scenarios.

This is the registration module ``python -m repro bench`` loads by
default.  Each case is a zero-argument callable around one
performance-relevant path -- the solver-layer compile fast path, a
Figure 5 sweep cell, a cache replay, the Monte Carlo availability
engine -- sized so the ``smoke`` tag finishes in seconds (the CI set,
gated against ``benchmarks/baseline.json`` on every push) and the
``full`` tag covers the slower local set.

Cases return flat metric dicts (solver build/compile/solve seconds,
cache hit counts, matrix sizes); wall time and peak RSS are measured
by the harness (:mod:`repro.bench.harness`).  Shared instances are
built once and memoized so repetition timings measure the scenario,
not `bench_wan` setup.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.bench.registry import bench_case

_MEMO: dict[str, object] = {}


def _standard_wan():
    """The figure benchmarks' standard WAN (memoized)."""
    if "wan" not in _MEMO:
        from benchmarks.conftest import WAN_KWARGS
        from repro.analysis.experiments import bench_wan

        _MEMO["wan"] = bench_wan(**WAN_KWARGS)
    return _MEMO["wan"]


def _compile_instance():
    """The compile microbenchmark's larger WAN + demands (memoized)."""
    if "compile" not in _MEMO:
        from repro.analysis.experiments import bench_wan

        net = bench_wan(num_regions=4, nodes_per_region=6, num_pairs=48,
                        demand_to_capacity=1.4, seed=1)
        _MEMO["compile"] = (net.topology, dict(net.avg_demands))
    return _MEMO["compile"]


@bench_case(
    "compile.edge_mcf_batch", tags=("smoke", "full"),
    description="array fast-path edge-MCF build + CSR compile")
def _case_compile_batch():
    from benchmarks.test_build_microbench import _edge_mcf_batch

    topology, demands = _compile_instance()
    model = _edge_mcf_batch(topology, demands)
    model._ensure_compiled()
    return {"rows": model.num_constraints, "cols": model.num_vars}


@bench_case(
    "compile.edge_mcf_scalar", tags=("full",),
    description="pre-fast-path scalar edge-MCF build + compile "
                "(the batch case's reference point)")
def _case_compile_scalar():
    from benchmarks.test_build_microbench import _edge_mcf_scalar

    topology, demands = _compile_instance()
    model = _edge_mcf_scalar(topology, demands)
    model._ensure_compiled()
    return {"rows": model.num_constraints, "cols": model.num_vars}


@bench_case(
    "solve.fig5_cell", tags=("smoke", "full"),
    description="one Figure 5 sweep cell end to end (encode + MILP "
                "solve + verify), uncached")
def _case_fig5_cell():
    from benchmarks.conftest import TIME_LIMIT
    from repro.analysis.experiments import degradation_sweep_spec
    from repro.runner.executor import run_sweep

    wan = _standard_wan()
    if "fig5_spec" not in _MEMO:
        paths = wan.paths(num_primary=2, num_backup=1)
        _MEMO["fig5_spec"] = degradation_sweep_spec(
            wan, paths, "avg",
            [{"threshold": None, "max_failures": 1}],
            time_limit=TIME_LIMIT, name="bench-fig5-cell",
        )
    outcome = run_sweep(_MEMO["fig5_spec"], num_workers=1,
                        handle_signals=False)
    outcome.raise_on_error()
    totals = outcome.stats_totals()
    return {
        "build_seconds": totals["build_seconds"],
        "compile_seconds": totals["compile_seconds"],
        "solve_seconds": totals["solve_seconds"],
    }


def tiny_task(payload: dict) -> dict:
    """A near-free sweep task: makes cache traffic the measured cost."""
    cell = payload["params"]["cell"]
    return {"cell": cell, "value": float(cell * cell)}


@bench_case(
    "cache.replay", tags=("smoke", "full"),
    description="populate a 32-job result cache, then replay it "
                "(key hashing + checksummed reads dominate)")
def _case_cache_replay():
    from repro.runner.executor import run_sweep
    from repro.runner.jobs import Job

    jobs = [
        Job({"task": "benchmarks.bench_cases:tiny_task",
             "instance": {}, "params": {"cell": i}})
        for i in range(32)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = Path(tmp) / "cache"
        run_sweep(jobs, num_workers=1, cache=cache_dir,
                  handle_signals=False)
        started = time.perf_counter()
        replay = run_sweep(jobs, num_workers=1, cache=cache_dir,
                           handle_signals=False)
        replay_seconds = time.perf_counter() - started
    return {
        "cache_hits": replay.num_cached,
        "replay_seconds": replay_seconds,
    }


@bench_case(
    "availability.mc_serial", tags=("full",),
    description="Monte Carlo availability estimate (serial, 100 "
                "samples, resolver-cached re-solves)")
def _case_availability():
    from repro.core.config import MonteCarloConfig
    from repro.failures.availability import estimate_availability_parallel
    from repro.obs.metrics import metrics_scope

    wan = _standard_wan()
    if "avail_paths" not in _MEMO:
        _MEMO["avail_paths"] = wan.paths(num_primary=2, num_backup=1)
    config = MonteCarloConfig(samples=100, seed=0, num_workers=1,
                              chunk_size=32)
    with metrics_scope() as registry:
        estimate = estimate_availability_parallel(
            wan.topology, dict(wan.avg_demands), _MEMO["avail_paths"],
            config)
    return {
        "distinct_scenarios": estimate.distinct_scenarios,
        "fresh_solves": estimate.fresh_solves,
        "lp_iterations": registry.counter("solver.lp_iterations").value,
    }


@bench_case(
    "store.claim_contention", tags=("smoke", "full"),
    description="4 threads racing the fenced claim path of one "
                "JobStore: 200 claim+settle round-trips (SQLite "
                "transaction + fencing-token cost dominates)")
def _case_claim_contention():
    import threading

    from repro.service.store import JobStore

    num_threads, num_jobs = 4, 200
    with tempfile.TemporaryDirectory() as tmp:
        store = JobStore(Path(tmp) / "bench.db")
        try:
            store.submit(
                "bench-claims", "claim-bench", "bench",
                [(f"job-{i:04d}", f"job {i}", {"value": i})
                 for i in range(num_jobs)])
            settled = []
            lock = threading.Lock()

            def drain(worker_id):
                while True:
                    claim = store.claim(lease_seconds=60.0,
                                        worker_id=worker_id)
                    if claim is None:
                        return
                    store.settle(claim["analysis_id"], claim["key"],
                                 "done", status="done",
                                 token=claim["claim_token"])
                    with lock:
                        settled.append(claim["key"])

            threads = [threading.Thread(target=drain, args=(f"t{i}",))
                       for i in range(num_threads)]
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - started
        finally:
            store.close()
    assert len(settled) == num_jobs, f"lost claims: {len(settled)}"
    return {
        "claims_settled": len(settled),
        "claims_per_second": num_jobs / elapsed,
    }
