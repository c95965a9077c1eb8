"""A tiny counter/gauge metrics registry (zero dependencies).

Counters accumulate monotonically (jobs settled, solver fallbacks taken,
cache hits); gauges hold a last-written value (current queue depth,
largest big-M seen).  A registry snapshot is a plain dict, so it
serializes into the trace file as one ``{"type": "metrics"}`` line and
asserts cleanly in tests.

Like tracing (:mod:`repro.obs.trace`), the registry is ambient: call
:func:`metrics` anywhere for the process's active registry.  Unlike
tracing there is no null variant -- increments are two dict operations,
cheap enough to leave on unconditionally.

Solver counters: ``solver.lp_iterations`` sums the simplex iterations
of every pure-LP solve, and ``solver.backend_fallbacks`` counts LPs that
went through ``scipy.optimize.linprog`` instead of the native HiGHS
instance (:mod:`repro.solver.highs`).

Service supervision counters (``/metricz``): the scheduler's
self-healing machinery reports ``service.jobs.recovered`` (startup
recovery of orphaned running jobs), ``service.jobs.reaped`` (expired
leases requeued by the reaper), ``service.jobs.quarantined`` (claim
budget exhausted), ``service.jobs.deadline_exceeded`` (end-to-end
deadline passed while queued or at claim), ``service.jobs.retried``
(quarantined jobs requeued by the API), and ``service.stale_settles``
(results from reaped-out workers discarded by the settle guard).

Distributed fleet metrics: the HTTP claim protocol reports
``service.claims_granted`` / ``service.claims_empty`` (claim requests
that found / missed queued work), ``service.claims_released``
(unstarted claims handed back by draining workers),
``service.remote_settles`` (results delivered over HTTP by remote
workers), and ``service.shed_claims`` (claim storms shed by the rate
limiter); the gauges ``service.fleet_size`` / ``service.fleet_capacity``
/ ``service.fleet_inflight`` mirror the registered worker roster.
"""

from __future__ import annotations

from contextlib import contextmanager


class Counter:
    """A monotonically increasing metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be nonnegative)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """A last-write-wins metric with a convenience running maximum."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge."""
        self.value = float(value)

    def record_max(self, value: float) -> None:
        """Keep the largest value seen."""
        if value > self.value:
            self.value = float(value)


class MetricsRegistry:
    """Holds named counters and gauges; names are created on first use."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first access)."""
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first access)."""
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def snapshot(self) -> dict:
        """``{"counters": {...}, "gauges": {...}}`` with plain floats."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
        }

    def reset(self) -> None:
        """Drop every metric (test isolation)."""
        self._counters.clear()
        self._gauges.clear()


_registry = MetricsRegistry()


def metrics() -> MetricsRegistry:
    """The process's active metrics registry."""
    return _registry


def install_metrics(registry: MetricsRegistry | None) -> MetricsRegistry:
    """Swap the ambient registry; returns the previous one.

    ``None`` installs a fresh empty registry.
    """
    global _registry
    previous = _registry
    _registry = registry if registry is not None else MetricsRegistry()
    return previous


@contextmanager
def metrics_scope(registry: MetricsRegistry | None = None):
    """Scope a registry installation: ``with metrics_scope() as reg: ...``."""
    reg = registry if registry is not None else MetricsRegistry()
    previous = install_metrics(reg)
    try:
        yield reg
    finally:
        install_metrics(previous)
