"""The solver fallback ladder: escalate, then bound, then (only then) fail.

An incumbent-free ``TIME_LIMIT`` used to be a dead end.  These tests
drive that exact shape through the ``solver.time_limit`` chaos site on
models that would otherwise solve instantly, and check each rung:
escalated retries recover the exact answer, ``allow_partial`` degrades
to a sound LP-relaxation bound, and the default still fails loudly.
"""

import pytest

from repro import PathSet, RahaAnalyzer, RahaConfig
from repro.core.config import ResilienceConfig
from repro.core.degradation import PartialResult
from repro.exceptions import SolverError
from repro.network.builder import from_edges
from repro.resilience.faults import FaultPlan, FaultPoint, injected


@pytest.fixture
def diamond():
    return from_edges([
        ("a", "b", 10), ("b", "d", 10), ("a", "c", 6), ("c", "d", 6),
    ], failure_probability=0.05)


@pytest.fixture
def diamond_paths(diamond):
    return PathSet.k_shortest(diamond, [("a", "d")], num_primary=2,
                              num_backup=0)


def _config(**overrides) -> RahaConfig:
    base = dict(fixed_demands={("a", "d"): 12.0}, max_failures=1,
                time_limit=42.0)
    base.update(overrides)
    return RahaConfig(**base)


def _always_timeout_plan() -> FaultPlan:
    # attempts is irrelevant at solver sites (no attempt number there):
    # this fires on every MILP solve of the process.
    return FaultPlan(seed=0, points=[FaultPoint("solver.time_limit")])


class TestEscalationRung:
    def test_one_injected_timeout_is_absorbed_by_escalation(
            self, diamond, diamond_paths):
        clean = RahaAnalyzer(diamond, diamond_paths, _config()).analyze()
        plan = FaultPlan(seed=0, points=[
            FaultPoint("solver.time_limit", max_fires=1)])
        with injected(plan):
            recovered = RahaAnalyzer(
                diamond, diamond_paths, _config()).analyze()
        assert not recovered.is_partial
        assert recovered.degradation == pytest.approx(clean.degradation)
        assert recovered.scenario == clean.scenario

    def test_escalation_can_be_disabled(self, diamond, diamond_paths):
        resilience = ResilienceConfig(max_escalations=0)
        plan = FaultPlan(seed=0, points=[
            FaultPoint("solver.time_limit", max_fires=1)])
        with injected(plan):
            with pytest.raises(SolverError, match="no incumbent"):
                RahaAnalyzer(diamond, diamond_paths,
                             _config(resilience=resilience)).analyze()


class TestDefaultStillFailsLoudly:
    def test_exhausted_ladder_raises_solver_error(self, diamond,
                                                  diamond_paths):
        with injected(_always_timeout_plan()):
            with pytest.raises(SolverError, match="no incumbent"):
                RahaAnalyzer(diamond, diamond_paths, _config()).analyze()

    def test_error_names_the_configured_limit_and_the_retries(
            self, diamond, diamond_paths):
        with injected(_always_timeout_plan()):
            with pytest.raises(SolverError, match="42") as excinfo:
                RahaAnalyzer(diamond, diamond_paths, _config()).analyze()
        assert "escalated" in str(excinfo.value)
        assert "allow_partial" in str(excinfo.value)


class TestPartialResultRung:
    def test_allow_partial_returns_a_sound_bound(self, diamond,
                                                 diamond_paths):
        clean = RahaAnalyzer(diamond, diamond_paths, _config()).analyze()
        config = _config(
            resilience=ResilienceConfig(allow_partial=True))
        with injected(_always_timeout_plan()):
            partial = RahaAnalyzer(diamond, diamond_paths, config).analyze()

        assert isinstance(partial, PartialResult)
        assert partial.is_partial
        assert partial.status == "partial"
        # The LP relaxation of a maximization MILP can only
        # over-estimate: the bound must dominate the exact degradation.
        assert partial.bound >= clean.degradation - 1e-6
        assert partial.normalized_bound == pytest.approx(
            partial.bound / diamond.average_lag_capacity())
        assert "PARTIAL" in partial.summary()

    def test_partial_provenance_records_every_rung(self, diamond,
                                                   diamond_paths,
                                                   lp_backend):
        config = _config(
            resilience=ResilienceConfig(allow_partial=True))
        with injected(_always_timeout_plan()):
            partial = RahaAnalyzer(diamond, diamond_paths, config).analyze()

        # Configured limit plus one default escalation rung (2x).
        assert partial.time_limits_tried == [42.0, 84.0]
        assert len(partial.provenance) == 3
        assert "42" in partial.provenance[0]
        assert "escalated" in partial.provenance[1]
        assert "LP relaxation" in partial.provenance[2]
        assert partial.solver_stats is not None
        assert partial.solver_stats["backend"] == \
            f"{lp_backend}-relaxation"

    def test_zero_faults_zero_partials(self, diamond, diamond_paths):
        """allow_partial alone must never change a healthy analysis."""
        clean = RahaAnalyzer(diamond, diamond_paths, _config()).analyze()
        config = _config(
            resilience=ResilienceConfig(allow_partial=True))
        result = RahaAnalyzer(diamond, diamond_paths, config).analyze()
        assert not result.is_partial
        assert result.degradation == pytest.approx(clean.degradation)
