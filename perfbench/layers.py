"""Span wrappers around the public entry points of each program layer.

Installed only for traced runs (``--trace 1``) and removed after; the
program's own ``--trace`` spans are not used.
"""

from __future__ import annotations


def _milp_work(counts, res) -> None:
    counts["solver.milp.nodes"] += int(getattr(res, "mip_node_count", 0)
                                       or 0)


def _lp_work(counts, res) -> None:
    counts["solver.lp.iters"] += int(getattr(res, "nit", 0) or 0)


def _model_size(counts, result) -> None:
    stats = getattr(result, "stats", None)
    if stats is not None and stats.backend == "milp":
        counts["solver.milp.nnz"] += int(stats.nnz)


def _cache_hit(counts, result) -> None:
    counts["runner.cache.hits"] += result is not None


def trace_program(tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are timed at."""
    import scipy.optimize

    from repro import te
    from repro.core import analyzer
    from repro.failures import availability
    from repro.failures.montecarlo import ScenarioResolver
    from repro.metaopt.bilevel import StackelbergProblem
    from repro.runner import executor
    from repro.runner.cache import ResultCache
    from repro.service.client import ServiceClient
    from repro.solver.model import Model

    # solver: HiGHS through scipy (solver/model.py calls it through the
    # module attribute), and the Python around it.
    tracer.wrap(scipy.optimize, "milp", "solver.milp", _milp_work)
    tracer.wrap(scipy.optimize, "linprog", "solver.lp", _lp_work)
    tracer.wrap(Model, "solve", "solver.glue", _model_size)
    tracer.wrap(Model, "resolve_with", "solver.glue", _model_size)
    # core / metaopt / te
    tracer.wrap(analyzer.RahaAnalyzer, "analyze", "core.analyze")
    tracer.wrap(analyzer, "build_path_extension_caps", "core.linearize")
    tracer.wrap(StackelbergProblem, "solve", "metaopt.solve")
    tracer.wrap(StackelbergProblem, "verify", "metaopt.verify")
    te_classes = {obj for obj in vars(te).values()
                  if isinstance(obj, type) and "solve" in vars(obj)}
    for cls in sorted(te_classes, key=lambda c: c.__qualname__):
        tracer.wrap(cls, "solve", "te.solve")
    # failures
    tracer.wrap(availability.ScenarioSampler, "sample", "failures.sample")
    tracer.wrap(availability.ScenarioSampler, "scenario_for",
                "failures.sample")
    tracer.wrap(ScenarioResolver, "delivered", "failures.resolve")
    tracer.wrap(availability, "estimate_availability_parallel",
                "failures.estimate")
    # runner
    tracer.wrap(ResultCache, "get", "runner.cache.get", _cache_hit)
    tracer.wrap(ResultCache, "put", "runner.cache.put")
    tracer.wrap(executor, "run_sweep", "runner.dispatch")
    tracer.wrap(executor, "degradation_task", "runner.task")
    # service, seen from its client: every HTTP exchange passes here
    tracer.wrap(ServiceClient, "_request", "service.http")
