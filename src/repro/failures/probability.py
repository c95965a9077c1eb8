"""Failure probabilities: scenario arithmetic and estimation.

Section 5.1: a failure *scenario* assigns a state to every link, so its
probability is the full product
``prod(pi_le for failed) * prod(1 - pi_le for up)``, and the probable-
scenario constraint ``probability >= T`` linearizes by taking logs.

This module provides that arithmetic on concrete scenarios, the greedy
solution of Figure 2's question ("how many links can simultaneously fail
with probability above T?"), and the renewal-reward estimator of
Appendix B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.exceptions import TopologyError
from repro.failures.model import FailureModel
from repro.failures.scenario import FailureScenario
from repro.network.topology import Topology


def _link_probabilities(topology: Topology) -> dict[tuple, float]:
    """Per-(lag key, link idx) probabilities; raises when any is missing."""
    probs = {}
    for lag in topology.lags:
        for i, link in enumerate(lag.links):
            if link.failure_probability is None:
                raise TopologyError(
                    f"link {i} of LAG {lag.key} has no failure probability; "
                    "assign probabilities (e.g. assign_zoo_probabilities) or "
                    "use <= k failure analysis instead"
                )
            probs[(lag.key, i)] = link.failure_probability
    return probs


def scenario_log_probability(
    topology: Topology, scenario: FailureScenario
) -> float:
    """Natural log of the scenario's probability (full assignment).

    Priced by :meth:`repro.failures.model.FailureModel.log_probability`:
    a priced SRLG is one event, immune links cost nothing.
    """
    return FailureModel(topology).log_probability(scenario)


def scenario_probability(topology: Topology, scenario: FailureScenario) -> float:
    """The scenario's probability (may underflow to 0 for huge networks)."""
    return math.exp(scenario_log_probability(topology, scenario))


def most_likely_scenario(topology: Topology) -> FailureScenario:
    """The single most probable scenario: fail exactly the links with
    ``pi > 0.5`` (each link takes its more likely state)."""
    probs = _link_probabilities(topology)
    return FailureScenario(key for key, pi in probs.items() if pi > 0.5)


def max_simultaneous_failures(
    topology: Topology, threshold: float
) -> tuple[int, FailureScenario]:
    """Figure 2: the most links that can fail together with prob >= T.

    Maximizing the failure count under the log-probability budget is a
    knapsack with uniform item value, so a greedy by per-link log-odds
    cost is exact: start from the most likely scenario (every ``pi > 0.5``
    link already failed -- failing those *gains* probability), then flip
    further links cheapest-first while the budget holds.

    Args:
        topology: WAN with full link probabilities.
        threshold: Scenario probability floor ``T`` in (0, 1).

    Returns:
        ``(count, scenario)`` -- the maximum simultaneous failure count
        and a scenario achieving it.  Count is 0 (empty scenario) when
        even single failures fall below the threshold.
    """
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    probs = _link_probabilities(topology)
    log_t = math.log(threshold)

    # Log prob of the most likely scenario and the flip costs from it.
    base = sum(math.log(max(pi, 1.0 - pi)) for pi in probs.values())
    failed = {key for key, pi in probs.items() if pi > 0.5}
    if base < log_t:
        # Even the most likely scenario is below T; also check all-up.
        all_up = sum(math.log1p(-pi) for pi in probs.values())
        if all_up < log_t:
            return 0, FailureScenario()
        # Fall back to flipping from the all-up scenario.
        base, failed = all_up, set()

    flip_costs = sorted(
        (math.log1p(-pi) - math.log(pi), key)
        for key, pi in probs.items()
        if key not in failed
    )
    remaining = base - log_t
    for cost, key in flip_costs:
        if cost > remaining + 1e-12:
            break
        remaining -= cost
        failed.add(key)
    return len(failed), FailureScenario(failed)


@dataclass
class RenewalRewardEstimator:
    """Estimate a link's steady-state down probability from event logs.

    Appendix B: model repairs as a renewal process.  ``X_i`` is the time
    between consecutive repairs and ``R_i`` the downtime inside that
    interval; the renewal reward theorem gives
    ``P(down) = E[R] / E[X] = lim R(t)/t``.

    Feed ``(down_at, up_at)`` outage intervals in chronological order;
    the estimate uses complete repair-to-repair cycles.
    """

    _down_times: list[float] = field(default_factory=list)
    _up_times: list[float] = field(default_factory=list)

    def add_outage(self, down_at: float, up_at: float) -> None:
        """Record one outage: the link went down and was later repaired."""
        if up_at <= down_at:
            raise ValueError(f"repair at {up_at} not after failure at {down_at}")
        if self._up_times and down_at < self._up_times[-1]:
            raise ValueError("outages must be added in chronological order")
        self._down_times.append(down_at)
        self._up_times.append(up_at)

    @property
    def num_cycles(self) -> int:
        """Complete repair-to-repair renewal cycles observed."""
        return max(0, len(self._up_times) - 1)

    def probability(self) -> float:
        """``E[R]/E[X]`` over complete cycles.

        Raises:
            ValueError: With fewer than two outages (no complete cycle).
        """
        if self.num_cycles < 1:
            raise ValueError("need at least two outages for a renewal cycle")
        # Cycle i runs from repair i to repair i+1 and contains downtime
        # R_i = (up_{i+1} - down_{i+1}).
        total_x = self._up_times[-1] - self._up_times[0]
        total_r = sum(
            self._up_times[i + 1] - self._down_times[i + 1]
            for i in range(self.num_cycles)
        )
        return total_r / total_x

    @classmethod
    def from_trace(cls, outages: list[tuple[float, float]]) -> RenewalRewardEstimator:
        """Build an estimator from a list of ``(down_at, up_at)`` pairs."""
        est = cls()
        for down_at, up_at in outages:
            est.add_outage(down_at, up_at)
        return est
