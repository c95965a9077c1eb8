"""Monte Carlo availability estimation.

Raha answers the *worst case* question; operators also track the
*expected* picture ("we aim to provide > 4-9's availability", Section 2.2).
This module samples failure scenarios from the per-link probabilities
(respecting SRLG fate-sharing), simulates each with the same TE code path
the rest of the repository uses, and estimates:

* the expected degradation,
* the probability that degradation exceeds an operator threshold,
* traffic availability (delivered / offered over the scenario mix).

The worst sampled scenario is also reported -- a useful sanity check
against the analyzer's exact worst case (sampling should never beat it).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import logging

from repro.exceptions import TopologyError
from repro.failures.model import FailureModel
from repro.failures.scenario import FailureScenario
from repro.network.demand import Pair
from repro.network.topology import LagKey, Topology, lag_key
from repro.obs.metrics import metrics
from repro.obs.trace import current_tracer
from repro.paths.pathset import PathSet
from repro.resilience.faults import maybe_fire
from repro.solver import LinExpr, Model, Var
from repro.te.base import effective_capacities, validate_te_inputs
from repro.te.total_flow import TotalFlowTE

logger = logging.getLogger(__name__)


@dataclass
class AvailabilityEstimate:
    """The outcome of a Monte Carlo availability run.

    Attributes:
        expected_degradation: Mean healthy-minus-failed traffic.
        availability: Mean delivered / healthy traffic over samples.
        exceedance_probability: Fraction of samples whose degradation
            exceeded the caller's threshold.
        worst_sampled: Largest sampled degradation.
        worst_scenario: A scenario achieving ``worst_sampled``.
        samples: Number of scenarios simulated.
        healthy_flow: The design point's delivered traffic.
        distinct_scenarios: Distinct canonical scenarios among the
            samples (each solved exactly once).
        cache_hits: Scenarios answered from a persistent delivered-flow
            cache (parallel engine only; 0 for the serial estimator).
        fresh_solves: Scenarios that required an LP solve this run.
        chunk_fallbacks: Worker chunks that failed (chaos, crash, ...)
            and were re-evaluated in the parent process.
        rounds: Sampling rounds taken (> 1 only under adaptive
            ``ci_width`` stopping).
        ci_width: Achieved width of the normal-approximation confidence
            interval on availability (``None`` when not computed).
    """

    expected_degradation: float
    availability: float
    exceedance_probability: float
    worst_sampled: float
    worst_scenario: FailureScenario
    samples: int
    healthy_flow: float
    degradations: list[float] = field(default_factory=list, repr=False)
    distinct_scenarios: int = 0
    cache_hits: int = 0
    fresh_solves: int = 0
    chunk_fallbacks: int = 0
    rounds: int = 1
    ci_width: float | None = None

    def quantile(self, q: float) -> float:
        """The q-quantile of the sampled degradation distribution."""
        if not (0.0 <= q <= 1.0):
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        return float(np.quantile(self.degradations, q))


def sample_scenario(topology: Topology, rng: np.random.Generator
                    ) -> FailureScenario:
    """Draw one failure scenario from the link-state distribution.

    SRLGs with a group probability are drawn as one Bernoulli event for
    the whole group; remaining links are independent Bernoullis.  This
    loop deliberately does not read :mod:`repro.failures.model`: it is
    the independent reference the vectorized sampler is checked against.
    """
    failed = []
    grouped: dict[tuple, int] = {}
    for gid, srlg in enumerate(topology.srlgs):
        if srlg.failure_probability is None:
            continue
        for member in srlg.members:
            grouped[(lag_key(*member[0]), member[1])] = gid
    group_state: dict[int, bool] = {}
    for gid, srlg in enumerate(topology.srlgs):
        if srlg.failure_probability is not None:
            group_state[gid] = bool(rng.uniform() < srlg.failure_probability)

    for lag in topology.lags:
        for i, link in enumerate(lag.links):
            gid = grouped.get((lag.key, i))
            if gid is not None:
                # A fate-sharing group draw still cannot take down a
                # link marked can_fail=False (planned-immune capacity
                # stays up even when its conduit is cut).
                if group_state[gid] and link.can_fail:
                    failed.append((lag.key, i))
                continue
            p = link.failure_probability
            if p is None:
                if not link.can_fail:
                    continue
                raise TopologyError(
                    f"link {i} of LAG {lag.key} has no failure probability"
                )
            if link.can_fail and rng.uniform() < p:
                failed.append((lag.key, i))
    return FailureScenario(failed)


class ScenarioResolver:
    """Failed-network TE that compiles its LP once and re-solves per scenario.

    :func:`repro.failures.scenario.simulate_failed_network` rebuilds the
    whole TE model for every scenario; over a Monte Carlo run that is
    thousands of identical matrix assemblies.  This class builds the LP
    over *all* configured paths once, then expresses each scenario purely
    as bound patches via :meth:`repro.solver.model.Model.resolve_with`:

    * a LAG's capacity row gets the scenario's residual capacity;
    * a path disallowed by the fail-over policy (Eq. 5) gets its flow
      variable's upper bound pinned to zero.

    The optimum is identical to ``simulate_failed_network`` with the
    default :class:`TotalFlowTE(primary_only=False)` solver: an allowed
    path's baseline bound of the pair's demand volume is already implied
    by the demand row.

    Turning a scenario into those patches is array work over incidence
    arrays built once here (link -> LAG, capacity row -> LAG, path ->
    LAGs), with the same semantics as
    :meth:`~repro.failures.scenario.FailureScenario.residual_capacities`,
    :meth:`~repro.failures.scenario.FailureScenario.down_lags` and
    :func:`~repro.failures.scenario.active_paths`.
    """

    def __init__(
        self,
        topology: Topology,
        demands: dict[Pair, float],
        paths: PathSet,
    ):
        validate_te_inputs(topology, demands, paths)
        self.topology = topology
        self.demands = dict(demands)
        self.paths = paths
        caps = effective_capacities(topology, None)
        lag_index = {lag.key: i for i, lag in enumerate(topology.lags)}

        model = Model("scenario-resolver")
        self._path_vars: dict[tuple, Var] = {}
        per_lag: dict[LagKey, list[int]] = defaultdict(list)
        dem_cols: list[int] = []
        dem_indptr: list[int] = [0]
        dem_rhs: list[float] = []
        # Per path variable, in column order: the LAGs it crosses, its
        # pair's first path, and its Eq. 5 rank (0 for a primary, r for
        # the r-th backup: usable once r earlier paths are down).
        entry_path: list[int] = []
        entry_lag: list[int] = []
        pair_first: list[int] = []
        rank: list[int] = []
        for pair, volume in self.demands.items():
            dp = paths[pair]
            first = len(rank)
            for j, path in enumerate(dp.paths):
                var = model.add_var(
                    ub=max(volume, 0.0),
                    name=f"f[{pair}][{'-'.join(path)}]",
                )
                self._path_vars[(pair, path)] = var
                dem_cols.append(var.index)
                for lag in topology.lags_on_path(path):
                    per_lag[lag.key].append(var.index)
                    entry_path.append(len(rank))
                    entry_lag.append(lag_index[lag.key])
                pair_first.append(first)
                rank.append(max(j - dp.num_primary + 1, 0))
            if len(dem_cols) > dem_indptr[-1]:
                dem_indptr.append(len(dem_cols))
                dem_rhs.append(volume)
        if dem_rhs:
            model.add_constrs_batch(
                dem_indptr, dem_cols, rhs=dem_rhs, name="dem"
            )
        self._cap_rows: list[int] = []
        cap_row_lag: list[int] = []
        if per_lag:
            lag_cols: list[int] = []
            lag_indptr: list[int] = [0]
            lag_rhs: list[float] = []
            for key, cols_on_lag in per_lag.items():
                lag_cols.extend(cols_on_lag)
                lag_indptr.append(len(lag_cols))
                lag_rhs.append(caps[key])
                cap_row_lag.append(lag_index[key])
            self._cap_rows = list(model.add_constrs_batch(
                lag_indptr, lag_cols, rhs=lag_rhs, name="cap"
            ))
        model.set_objective(
            LinExpr.from_arrays(
                np.fromiter(
                    (v.index for v in self._path_vars.values()),
                    dtype=np.intp,
                    count=len(self._path_vars),
                ),
                np.ones(len(self._path_vars)),
            ),
            sense="max",
        )
        self._model = model

        # Link columns in the canonical LAG/link order, so per-LAG sums
        # add surviving capacities in the same order as
        # residual_capacities().
        failure_model = FailureModel(topology)
        self._link_col = failure_model.index
        self._num_lags = len(topology.lags)
        self._link_lag = np.asarray(failure_model.lag_of, dtype=np.intp)
        self._link_cap = np.asarray(
            [link.capacity for link in failure_model.physical],
            dtype=np.float64)
        self._lag_links = np.bincount(self._link_lag,
                                      minlength=self._num_lags)
        self._cap_row_lag = np.asarray(cap_row_lag, dtype=np.intp)
        self._entry_path = np.asarray(entry_path, dtype=np.intp)
        self._entry_lag = np.asarray(entry_lag, dtype=np.intp)
        self._pair_first = np.asarray(pair_first, dtype=np.intp)
        self._rank = np.asarray(rank, dtype=np.intp)

    def delivered(self, scenario: FailureScenario) -> float:
        """Total traffic routed under ``scenario``.

        Uses the compiled model's incremental re-solve; if that fails
        (solver error, or a chaos-injected ``resolver.resolve`` fault),
        falls back to a fresh :func:`simulate_failed_network`-style solve
        of the scenario rather than silently reporting 0.0 delivered --
        an all-paths-down answer would skew every availability statistic
        downstream.  (A genuinely infeasible scenario delivers 0.0 from
        the fallback too, which is the correct value, not a guess.)
        """
        scenario.validate_for(self.topology)
        failed = np.zeros(self._link_lag.size, dtype=bool)
        failed[[self._link_col[link] for link in scenario.failed_links]] \
            = True
        # Residual capacity per LAG: its surviving links' sum.
        residual = np.bincount(
            self._link_lag, weights=np.where(failed, 0.0, self._link_cap),
            minlength=self._num_lags,
        )
        # Eq. 3: a LAG is down when all its links are; Eq. 4: a path is
        # down when any LAG on it is.
        lag_down = np.bincount(
            self._link_lag[failed], minlength=self._num_lags
        ) == self._lag_links
        path_down = np.bincount(
            self._entry_path[lag_down[self._entry_lag]],
            minlength=self._rank.size,
        ) > 0
        # Eq. 5: the r-th backup is allowed once r earlier paths of its
        # pair are down -- a running count of down flags in path order.
        down_before = np.cumsum(path_down) - path_down
        down_before -= down_before[self._pair_first]
        # Path variables are the model's columns, in path order.
        pinned = np.flatnonzero((self._rank > 0) & (down_before < self._rank))
        rhs_overrides = dict(zip(
            self._cap_rows, residual[self._cap_row_lag].tolist()
        ))
        bound_overrides = dict.fromkeys(pinned.tolist(), 0.0)
        failure = None
        if maybe_fire("resolver.resolve", key=repr(scenario)):
            failure = "chaos-injected resolver failure"
        else:
            try:
                result = self._model.resolve_with(
                    rhs_overrides=rhs_overrides,
                    bound_overrides=bound_overrides,
                )
            except Exception as exc:
                failure = f"{type(exc).__name__}: {exc}"
            else:
                if result.status.ok and result.x is not None:
                    return float(result.objective)
                if result.status.value == "infeasible":
                    # A real infeasibility (demands cannot be routed at
                    # all) delivers nothing; no fallback needed.
                    return 0.0
                failure = f"re-solve ended with {result.status.value}"
        metrics().counter("resolver.fallbacks").inc()
        logger.warning(
            "scenario resolver failed (%s); falling back to a fresh solve "
            "for this scenario", failure,
        )
        return self._delivered_fresh(scenario)

    def _delivered_fresh(self, scenario: FailureScenario) -> float:
        """The non-incremental answer: rebuild and solve from scratch."""
        from repro.failures.scenario import simulate_failed_network

        outcome = simulate_failed_network(
            self.topology, self.demands, self.paths, scenario
        )
        return float(outcome.total_flow) if outcome.feasible else 0.0


def estimate_availability(
    topology: Topology,
    demands: dict[Pair, float],
    paths: PathSet,
    samples: int = 200,
    degradation_threshold: float = 0.0,
    seed: int = 0,
) -> AvailabilityEstimate:
    """Monte Carlo estimate of expected degradation and availability.

    Args:
        topology: The WAN (all failable links need probabilities).
        demands: Offered traffic.
        paths: Configured primary/backup paths.
        samples: Scenario draws.
        degradation_threshold: The exceedance statistic's threshold
            (same units as demands).
        seed: RNG seed.
    """
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    rng = np.random.default_rng(seed)
    with current_tracer().span("montecarlo", samples=samples) as span:
        healthy = TotalFlowTE(primary_only=True).solve(
            topology, demands, paths
        )
        healthy_flow = healthy.total_flow

        resolver = ScenarioResolver(topology, demands, paths)
        degradations: list[float] = []
        worst = -float("inf")
        worst_scenario = FailureScenario()
        cache: dict[FailureScenario, float] = {}
        for _ in range(samples):
            scenario = sample_scenario(topology, rng)
            if scenario in cache:
                degradation = cache[scenario]
            else:
                degradation = healthy_flow - resolver.delivered(scenario)
                cache[scenario] = degradation
            degradations.append(degradation)
            if degradation > worst:
                worst = degradation
                worst_scenario = scenario
        span.set(distinct_scenarios=len(cache))

    array = np.asarray(degradations)
    availability = (
        float(np.mean((healthy_flow - array) / healthy_flow))
        if healthy_flow > 0 else 1.0
    )
    return AvailabilityEstimate(
        expected_degradation=float(array.mean()),
        availability=availability,
        exceedance_probability=float(
            np.mean(array > degradation_threshold)
        ),
        worst_sampled=float(array.max()),
        worst_scenario=worst_scenario,
        samples=samples,
        healthy_flow=healthy_flow,
        degradations=[float(d) for d in degradations],
        distinct_scenarios=len(cache),
        fresh_solves=len(cache),
    )
