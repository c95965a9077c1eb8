"""Tests for the up-to-k enumeration baseline."""

import pytest

from repro.failures import enumerate_scenarios, worst_case_k_failures
from repro.network.builder import from_edges, with_link_probabilities
from repro.paths import PathSet


@pytest.fixture
def diamond():
    return from_edges([
        ("a", "b", 10), ("b", "d", 10), ("a", "c", 6), ("c", "d", 6),
    ])


class TestEnumerate:
    def test_counts_without_pruning(self, diamond):
        scenarios = list(enumerate_scenarios(diamond, 1, relevant_only=False))
        assert len(scenarios) == 4
        scenarios2 = list(enumerate_scenarios(diamond, 2, relevant_only=False))
        assert len(scenarios2) == 4 + 6

    def test_relevance_pruning(self, diamond):
        paths = PathSet.k_shortest(diamond, [("a", "b")], 1, 0)
        scenarios = list(
            enumerate_scenarios(diamond, 1, relevant_only=True, paths=paths)
        )
        assert len(scenarios) == 1  # only the a-b LAG matters

    def test_probability_filter(self, diamond):
        topo = with_link_probabilities(diamond, {
            ("a", "b"): 0.2, ("b", "d"): 1e-6,
            ("a", "c"): 1e-6, ("c", "d"): 1e-6,
        })
        scenarios = list(enumerate_scenarios(
            topo, 1, probability_threshold=1e-3, relevant_only=False
        ))
        assert len(scenarios) == 1
        assert scenarios[0].is_failed(("a", "b"), 0)

    def test_bad_k_rejected(self, diamond):
        with pytest.raises(ValueError):
            list(enumerate_scenarios(diamond, 0))

    @pytest.mark.parametrize("threshold", [0.0, 1.0, -0.5, 2.0])
    def test_out_of_range_threshold_rejected(self, diamond, threshold):
        """Regression: a truthiness check used to silently disable the
        filter for 0.0 and accept nonsensical values like 2.0; only
        ``None`` may mean "no filter"."""
        with pytest.raises(ValueError, match="probability_threshold"):
            list(enumerate_scenarios(
                diamond, 1, probability_threshold=threshold,
                relevant_only=False,
            ))

    def test_none_threshold_disables_filter(self, diamond):
        scenarios = list(enumerate_scenarios(
            diamond, 1, probability_threshold=None, relevant_only=False
        ))
        assert len(scenarios) == 4

    def test_tiny_threshold_keeps_everything(self, diamond):
        """A valid but tiny threshold filters on probability, it does
        not fall back to disabled: all scenarios here clear 1e-12."""
        topo = with_link_probabilities(diamond, {
            ("a", "b"): 0.2, ("b", "d"): 0.2,
            ("a", "c"): 0.2, ("c", "d"): 0.2,
        })
        scenarios = list(enumerate_scenarios(
            topo, 1, probability_threshold=1e-12, relevant_only=False
        ))
        assert len(scenarios) == 4


class TestWorstCase:
    def test_finds_the_bottleneck_link(self, diamond):
        paths = PathSet.k_shortest(diamond, [("a", "d")], 2, 0)
        result = worst_case_k_failures(
            diamond, {("a", "d"): 100.0}, paths, max_failures=1
        )
        # Healthy: 16. Worst single failure kills the 10-cap route: 6 left.
        assert result.healthy_flow == pytest.approx(16.0)
        assert result.degradation == pytest.approx(10.0)
        assert result.scenario is not None
        assert result.scenarios_checked == 4

    def test_two_failures_kill_everything(self, diamond):
        paths = PathSet.k_shortest(diamond, [("a", "d")], 2, 0)
        result = worst_case_k_failures(
            diamond, {("a", "d"): 100.0}, paths, max_failures=2
        )
        assert result.degradation == pytest.approx(16.0)
        assert result.failed_flow == pytest.approx(0.0)

    def test_connected_enforced_limits_damage(self, diamond):
        paths = PathSet.k_shortest(diamond, [("a", "d")], 2, 0)
        result = worst_case_k_failures(
            diamond, {("a", "d"): 100.0}, paths, max_failures=2,
            connected_enforced=True,
        )
        # Cannot take both routes down; worst remains one route.
        assert result.degradation == pytest.approx(10.0)

    def test_probability_threshold_excludes_rare(self, diamond):
        topo = with_link_probabilities(diamond, {
            ("a", "b"): 1e-9, ("b", "d"): 1e-9,
            ("a", "c"): 0.1, ("c", "d"): 0.1,
        })
        paths = PathSet.k_shortest(topo, [("a", "d")], 2, 0)
        result = worst_case_k_failures(
            topo, {("a", "d"): 100.0}, paths, max_failures=1,
            probability_threshold=1e-4,
        )
        # Only the 6-cap route's links are probable enough to fail.
        assert result.degradation == pytest.approx(6.0)

    def test_minimize_performance_mode(self, diamond):
        """The naive objective can pick a different scenario than the gap."""
        paths = PathSet.k_shortest(diamond, [("a", "d")], 2, 0)
        naive = worst_case_k_failures(
            diamond, {("a", "d"): 100.0}, paths, max_failures=1,
            minimize_performance=True,
        )
        assert naive.failed_flow == pytest.approx(6.0)

    def test_monotone_in_k(self, diamond):
        paths = PathSet.k_shortest(diamond, [("a", "d")], 2, 0)
        degradations = [
            worst_case_k_failures(
                diamond, {("a", "d"): 100.0}, paths, max_failures=k
            ).degradation
            for k in (1, 2)
        ]
        assert degradations[0] <= degradations[1] + 1e-9

    def test_infeasible_scenario_counts_as_zero_flow(self, diamond,
                                                     monkeypatch):
        """Regression: infeasible failed networks were silently skipped,
        hiding the true worst case.  They deliver nothing, so they must
        compete with failed_flow 0.0 -- the value
        ``ScenarioResolver.delivered`` reports for them."""
        from repro.failures import enumeration

        real = enumeration.ScenarioResolver.delivered

        def flaky(self, scenario):
            if scenario.is_failed(("a", "b"), 0):
                return 0.0
            return real(self, scenario)

        monkeypatch.setattr(enumeration.ScenarioResolver, "delivered", flaky)
        paths = PathSet.k_shortest(diamond, [("a", "d")], 2, 0)
        result = worst_case_k_failures(
            diamond, {("a", "d"): 100.0}, paths, max_failures=1
        )
        # The infeasible scenario must win outright: the whole 16 units
        # are lost, worse than any feasible single failure (10).
        assert result.failed_flow == pytest.approx(0.0)
        assert result.degradation == pytest.approx(16.0)
        assert result.scenario is not None
        assert result.scenario.is_failed(("a", "b"), 0)
        assert result.scenarios_checked == 4

    def test_no_qualifying_scenarios(self, diamond):
        topo = with_link_probabilities(diamond, {
            ("a", "b"): 1e-9, ("b", "d"): 1e-9,
            ("a", "c"): 1e-9, ("c", "d"): 1e-9,
        })
        paths = PathSet.k_shortest(topo, [("a", "d")], 2, 0)
        result = worst_case_k_failures(
            topo, {("a", "d"): 100.0}, paths, max_failures=1,
            probability_threshold=0.5,
        )
        assert result.scenario is None
        assert result.degradation == 0.0
