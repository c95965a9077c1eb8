"""Exhaustive up-to-k failure analysis -- the baseline Raha outperforms.

Tools like FFC [27] and Yu [26] "only consider up to k-failures, where k
is typically <= 2".  This module implements that analysis by enumeration:
every combination of at most ``k`` failed links is simulated and the one
causing the worst degradation (or worst absolute performance) is
reported.  It is exact for what it covers but explodes combinatorially --
precisely the gap Figure 5 quantifies.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass

from repro.failures.model import FailureModel
from repro.failures.montecarlo import ScenarioResolver
from repro.failures.scenario import FailureScenario, connected_enforced_holds
from repro.network.demand import Pair
from repro.network.topology import Topology
from repro.paths.pathset import PathSet
from repro.te.total_flow import TotalFlowTE


def enumerate_scenarios(
    topology: Topology,
    max_failures: int,
    probability_threshold: float | None = None,
    relevant_only: bool = True,
    paths: PathSet | None = None,
) -> Iterator[FailureScenario]:
    """Yield all scenarios with 1..max_failures failed links the failure
    model lets fail (never an immune link).

    Args:
        topology: The WAN.
        max_failures: The ``k`` bound on simultaneously failed links.
        probability_threshold: Drop scenarios less likely than this
            (requires link probabilities).  Must lie strictly between
            0 and 1; ``None`` disables the filter.
        relevant_only: When ``paths`` is given, restrict to links on LAGs
            that appear in some configured path -- failures elsewhere
            cannot affect any flow, so skipping them is lossless.
        paths: Path set used for the relevance pruning.
    """
    if max_failures < 1:
        raise ValueError(f"max_failures must be positive, got {max_failures}")
    if probability_threshold is not None and not (
        0.0 < probability_threshold < 1.0
    ):
        raise ValueError(
            f"probability_threshold must be in (0, 1), got "
            f"{probability_threshold} (pass None to disable the filter)"
        )
    model = FailureModel(topology)
    links = [key for pos, key in enumerate(model.links)
             if model.failable(pos, probability_threshold)]
    if relevant_only and paths is not None:
        used = set()
        for dp in paths.values():
            for path in dp.paths:
                for lag in topology.lags_on_path(path):
                    used.add(lag.key)
        links = [(key, i) for key, i in links if key in used]

    log_t = (
        math.log(probability_threshold)
        if probability_threshold is not None else None
    )
    for count in range(1, max_failures + 1):
        for combo in itertools.combinations(links, count):
            scenario = FailureScenario(combo)
            if log_t is not None:
                if model.log_probability(scenario) < log_t:
                    continue
            yield scenario


@dataclass
class KFailureResult:
    """Worst case found by enumeration.

    Attributes:
        degradation: Healthy total flow minus failed total flow, for the
            scenario maximizing that gap.
        scenario: The worst scenario (``None`` if nothing qualified).
        healthy_flow: The design point's routed traffic.
        failed_flow: The failed network's routed traffic.
        scenarios_checked: How many scenarios were simulated.
    """

    degradation: float
    scenario: FailureScenario | None
    healthy_flow: float
    failed_flow: float
    scenarios_checked: int


def worst_case_k_failures(
    topology: Topology,
    demands: Mapping[Pair, float],
    paths: PathSet,
    max_failures: int,
    probability_threshold: float | None = None,
    connected_enforced: bool = False,
    minimize_performance: bool = False,
) -> KFailureResult:
    """Find the worst ``<= k`` failure scenario by exhaustive simulation.

    Args:
        topology: The WAN.
        demands: A *fixed* demand matrix (enumeration baselines cannot
            search over demands -- that is Table 1's point).
        paths: Configured paths.
        max_failures: ``k``.
        probability_threshold: Optional scenario probability floor.
        connected_enforced: Skip scenarios that disconnect some demand.
        minimize_performance: Rank scenarios by *lowest failed
            performance* instead of largest degradation -- the naive
            objective of QARC/[9] that Figure 3 contrasts with Raha.

    Returns:
        The worst scenario and its degradation.
    """
    healthy = TotalFlowTE(primary_only=True).solve(topology, demands, paths)
    resolver = ScenarioResolver(topology, dict(demands), paths)
    best_gap = 0.0
    best_perf = float("inf")
    best_scenario = None
    best_failed = healthy.total_flow
    checked = 0
    for scenario in enumerate_scenarios(
        topology, max_failures, probability_threshold,
        relevant_only=True, paths=paths,
    ):
        if connected_enforced and not connected_enforced_holds(
            topology, paths, scenario
        ):
            continue
        checked += 1
        # An infeasible failed network delivers nothing -- maximal
        # degradation.  Skipping it would hide the true worst case while
        # still counting the scenario as "checked".
        failed_flow = resolver.delivered(scenario)
        gap = healthy.total_flow - failed_flow
        if minimize_performance:
            better = failed_flow < best_perf - 1e-9
        else:
            better = gap > best_gap + 1e-9
        if better:
            best_gap = gap
            best_perf = failed_flow
            best_scenario = scenario
            best_failed = failed_flow
    return KFailureResult(
        degradation=best_gap,
        scenario=best_scenario,
        healthy_flow=healthy.total_flow,
        failed_flow=best_failed,
        scenarios_checked=checked,
    )
