"""The native HiGHS LP path: fallbacks, and answers independent of history.

:class:`repro.solver.Model` solves pure LPs on a live native HiGHS
instance (:mod:`repro.solver.highs`).  These tests pin the two promises
around it: every fallback to ``scipy.optimize.linprog`` is counted and
logged, and a re-solve's answer depends only on the patched model -- not
on which solves the instance ran before.
"""

import logging

import numpy as np
import pytest

from repro.obs.metrics import metrics_scope
from repro.solver import Model, highs, quicksum
from repro.solver import model as model_module

needs_binding = pytest.mark.skipif(
    highs.BINDING is None, reason="native HiGHS binding unavailable")


def _random_lp(seed: int = 0):
    """A dense random packing LP with a range row (not presolved away)."""
    rng = np.random.default_rng(seed)
    m = Model("random-lp")
    xs = m.add_vars_batch(8, ub=10.0)
    rows = m.add_constrs_batch(
        np.arange(0, 49, 8), np.tile(np.arange(8), 6),
        rng.uniform(0.5, 2.0, 48), rhs=rng.uniform(5.0, 10.0, 6),
    )
    box = m.add_range_constr(xs[0] - xs[1], -2.0, 2.0)
    m.set_objective(quicksum(xs, coefs=rng.uniform(1.0, 2.0, 8)),
                    sense="max")
    return m, xs, list(rows) + [box.row]


def _overrides(seed: int):
    """Eight disjoint-ish override sets for :func:`_random_lp`."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(8):
        rhs = {int(r): float(rng.uniform(1.0, 8.0))
               for r in rng.choice(6, size=2, replace=False)}
        bounds = {int(j): float(rng.uniform(0.0, 3.0))
                  for j in rng.choice(8, size=3, replace=False)}
        out.append((rhs, bounds))
    return out


def _same(a, b) -> bool:
    return (a.objective == b.objective
            and np.array_equal(a.x, b.x)
            and np.array_equal(a.duals, b.duals))


@needs_binding
class TestCallOrderIndependence:
    def test_any_order_matches_fresh_models(self):
        cases = _overrides(1)
        fresh = []
        for rhs, bounds in cases:
            m, _, _ = _random_lp()
            fresh.append(m.resolve_with(rhs, bounds))
        m, _, _ = _random_lp()
        for order in (range(8), reversed(range(8)), [3, 0, 7, 1, 6, 2, 5, 4]):
            for i in order:
                got = m.resolve_with(*cases[i])
                assert got.stats.backend == "highs"
                assert _same(got, fresh[i]), f"case {i} moved"

    def test_plain_solve_after_resolves_matches_first_solve(self):
        m, _, _ = _random_lp()
        first = m.solve()
        for rhs, bounds in _overrides(2):
            m.resolve_with(rhs, bounds)
        assert _same(m.solve(), first)

    def test_time_limit_does_not_stick(self):
        m, _, _ = _random_lp()
        limited = m.solve(time_limit=30.0)
        assert _same(m.solve(), limited)


@needs_binding
class TestFallbacks:
    def test_native_kerror_falls_back_to_linprog(self, monkeypatch, caplog):
        m, _, _ = _random_lp()
        expected = m.solve()
        monkeypatch.setattr(highs.NativeLP, "run", lambda self, *a: None)
        with metrics_scope() as registry, \
                caplog.at_level(logging.WARNING, logger=model_module.__name__):
            got = m.resolve_with()
        assert got.stats.backend == "linprog"
        assert got.objective == pytest.approx(expected.objective)
        assert registry.counter("solver.backend_fallbacks").value == 1
        assert any("kError" in r.getMessage() for r in caplog.records)
        # The broken instance is dropped, so the next solve rebuilds one.
        assert m._native is None

    def test_missing_binding_counts_every_lp_and_warns_once(
            self, monkeypatch, caplog):
        monkeypatch.setattr(highs, "BINDING", None)
        monkeypatch.setattr(model_module, "_warned_once", set())
        m, _, _ = _random_lp()
        with metrics_scope() as registry, \
                caplog.at_level(logging.WARNING, logger=model_module.__name__):
            results = [m.solve(), m.solve()]
        assert [r.stats.backend for r in results] == ["linprog", "linprog"]
        assert registry.counter("solver.backend_fallbacks").value == 2
        warnings = [r for r in caplog.records
                    if "binding is unavailable" in r.getMessage()]
        assert len(warnings) == 1

    def test_native_and_linprog_objectives_agree(self, monkeypatch):
        m, _, _ = _random_lp()
        native = m.solve()
        monkeypatch.setattr(highs, "BINDING", None)
        linprog = m.solve()
        assert native.stats.backend == "highs"
        assert linprog.stats.backend == "linprog"
        assert native.objective == linprog.objective
        np.testing.assert_allclose(native.duals, linprog.duals, atol=1e-9)

    def test_lp_iterations_metric(self):
        m, _, _ = _random_lp()
        with metrics_scope() as registry:
            result = m.solve()
        assert result.stats.iterations > 0
        assert registry.counter("solver.lp_iterations").value == \
            result.stats.iterations
