"""The Section 5 MILP encodings: modeling the unhealthy network.

This module creates, inside a host model, the *outer* variables and
constraints that let a convex inner problem describe the network under
failure -- the paper's central trick ("we extract the non-convexity into
the outer problem"):

* per-link failure binaries ``u_le`` (with SRLG fate-sharing);
* variable LAG capacities ``c_e = sum_l c_le (1 - u_le)``;
* LAG-down binaries via Eq. 3 (``N_e u_e + aux = sum u_le``);
* path-down binaries via Eq. 4 (``N_kp u_kp >= sum_{e in p} u_e``);
* backup activation indicators and path-extension capacities via Eq. 5
  (``C_kpj = d_k * I(sum_{i<j} u_kpi >= j - n_kp + 1)``);
* the Section 5.1 constraint library: probability thresholds (in log
  form), failure-count limits, connected-enforcement.

**Failability.** Which links may fail, which share a binary and what
the threshold row charges for them is read from the topology's
:class:`~repro.failures.model.FailureModel`, the same one the Monte Carlo
sampler and scenario pricing use.  On top of it, the links of every LAG
in ``non_failable_lags`` never fail -- this is how virtual gateway LAGs
(Section 9) and "cannot fail" capacity augments (Figure 17/18) are
modeled.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from math import log

from repro.core.config import RahaConfig
from repro.failures.model import FailureModel
from repro.failures.scenario import FailureScenario
from repro.network.demand import Pair
from repro.network.topology import LagKey, Topology, lag_key
from repro.paths.pathset import PathSet
from repro.solver.expr import LinExpr, Var, quicksum
from repro.solver.linearize import indicator_geq, product_binary_bounded
from repro.solver.model import Model
from repro.solver.result import SolveResult


@dataclass
class FailureEncoding:
    """Outer failure variables and the expressions built on them.

    Attributes:
        model: Host model everything is posted to.
        topology: The WAN.
        paths: Configured paths per demand.
        config: Analysis knobs.
        non_failable_lags: LAGs whose links may never fail.
    """

    model: Model
    topology: Topology
    paths: PathSet
    config: RahaConfig
    non_failable_lags: frozenset[LagKey] = frozenset()

    #: The topology's failure model, shared with sampling and pricing.
    failure_model: FailureModel = field(init=False, repr=False)
    #: (lag key, link idx) -> binary Var, or 0.0 for non-failable links.
    link_down: dict = field(default_factory=dict, init=False)
    #: lag key -> binary Var, or 0.0 when the LAG can never fully fail.
    lag_down: dict = field(default_factory=dict, init=False)
    #: lag key -> LinExpr: the variable capacity c_e.
    lag_capacity: dict = field(default_factory=dict, init=False)
    #: (pair, path idx) -> binary Var or 0.0: path-down u_kp.
    path_down: dict = field(default_factory=dict, init=False)
    #: (pair, path idx) -> binary Var or constant: backup active a_kpj
    #: (primaries map to the constant 1.0).
    path_active: dict = field(default_factory=dict, init=False)

    def __post_init__(self):
        self.failure_model = FailureModel(self.topology)
        self._build_link_variables()
        self._build_lag_down()
        self._build_path_down()
        self._build_activation()
        self._add_scenario_constraints()

    # -- failability --------------------------------------------------------
    def link_is_failable(self, key: LagKey, link_index: int) -> bool:
        """Whether the failure search may bring this link down."""
        return self.failure_model.failable(
            self.failure_model.index[(lag_key(*key), link_index)],
            self.config.probability_threshold, self.non_failable_lags)

    # -- construction ---------------------------------------------------------
    def _build_link_variables(self) -> None:
        fm = self.failure_model
        group_var: dict[int, Var] = {}
        for pos, key in enumerate(fm.links):
            if not self.link_is_failable(*key):
                self.link_down[key] = 0.0
                continue
            gid = fm.srlg_of[pos]
            if gid is not None:
                # SRLG members share one binary (fate-sharing).
                if gid not in group_var:
                    group_var[gid] = self.model.add_var(
                        binary=True, name=f"u_srlg[{gid}]"
                    )
                self.link_down[key] = group_var[gid]
            else:
                self.link_down[key] = self.model.add_var(
                    binary=True, name=f"u[{key[0]}#{key[1]}]"
                )
        # Variable LAG capacities: c_e = sum c_le (1 - u_le).
        for lag in self.topology.lags:
            expr = LinExpr()
            for i, link in enumerate(lag.links):
                u = self.link_down[(lag.key, i)]
                if isinstance(u, Var):
                    expr = expr + link.capacity * (1 - u.to_expr())
                else:
                    expr = expr + link.capacity
            self.lag_capacity[lag.key] = expr

    def _build_lag_down(self) -> None:
        """Eq. 3: a LAG is down only when all of its links are down."""
        for lag in self.topology.lags:
            us = [self.link_down[(lag.key, i)] for i in range(lag.num_links)]
            if any(not isinstance(u, Var) for u in us):
                # Some link can never fail, so the LAG can never be down.
                self.lag_down[lag.key] = 0.0
                continue
            n = lag.num_links
            u_e = self.model.add_var(binary=True, name=f"lagdown[{lag.key}]")
            aux = self.model.add_var(lb=0.0, ub=n - 1, name=f"aux[{lag.key}]")
            self.model.add_constr(
                n * u_e.to_expr() + aux == quicksum(us),
                name=f"eq3[{lag.key}]",
            )
            self.lag_down[lag.key] = u_e

    def _build_path_down(self) -> None:
        """Eq. 4: a path is down when any of its LAGs is down."""
        for pair, dp in self.paths.items():
            for j, path in enumerate(dp.paths):
                lag_downs = [
                    self.lag_down[lag.key]
                    for lag in self.topology.lags_on_path(path)
                ]
                down_vars = [u for u in lag_downs if isinstance(u, Var)]
                if not down_vars:
                    self.path_down[(pair, j)] = 0.0
                    continue
                u_kp = self.model.add_var(
                    binary=True, name=f"pathdown[{pair}][{j}]"
                )
                n = len(lag_downs)
                total = quicksum(down_vars)
                self.model.add_constr(
                    n * u_kp.to_expr() >= total, name=f"eq4[{pair}][{j}]"
                )
                if self.config.exact_path_down:
                    self.model.add_constr(
                        u_kp.to_expr() <= total, name=f"eq4x[{pair}][{j}]"
                    )
                self.path_down[(pair, j)] = u_kp

    def _build_activation(self) -> None:
        """Eq. 5's indicator: the r-th backup needs r higher-priority downs."""
        for pair, dp in self.paths.items():
            for j in range(len(dp.paths)):
                if j < dp.num_primary:
                    self.path_active[(pair, j)] = 1.0
                    continue
                higher = [
                    self.path_down[(pair, i)] for i in range(j)
                ]
                higher_vars = [u for u in higher if isinstance(u, Var)]
                needed = j - dp.num_primary + 1
                if len(higher_vars) < needed:
                    # Not enough failable higher-priority paths: the
                    # activation condition can never hold.
                    self.path_active[(pair, j)] = 0.0
                    continue
                self.path_active[(pair, j)] = indicator_geq(
                    self.model,
                    quicksum(higher_vars),
                    needed,
                    expr_lb=0,
                    expr_ub=len(higher_vars),
                    name=f"active[{pair}][{j}]",
                )

    def _add_scenario_constraints(self) -> None:
        """Section 5.1: probability threshold, failure count, CE."""
        config = self.config
        if config.probability_threshold is not None:
            self._add_probability_constraint(config.probability_threshold)
        if config.max_failures is not None:
            failable = [
                u for u in self.link_down.values() if isinstance(u, Var)
            ]
            # Deduplicate SRLG-shared binaries but count each member link.
            counted = quicksum(failable)
            self.model.add_constr(
                counted <= config.max_failures, name="max_failures"
            )
        if config.connected_enforced:
            for pair, dp in self.paths.items():
                downs = [
                    self.path_down[(pair, j)] for j in range(len(dp.paths))
                ]
                down_vars = [u for u in downs if isinstance(u, Var)]
                if len(down_vars) == len(dp.paths):
                    self.model.add_constr(
                        quicksum(down_vars) <= len(dp.paths) - 1,
                        name=f"ce[{pair}]",
                    )

    def _add_probability_constraint(self, threshold: float) -> None:
        """log(prod pi^u (1-pi)^(1-u)) >= log T, linearized per Section 5.1.

        Each failure-model event contributes one term, driven by the
        binary of its first failable link: a priced SRLG once for all
        its members, every other link on its own probability.
        """
        fm = self.failure_model
        expr = LinExpr()
        priced: set[int] = set()
        for pos, key in enumerate(fm.links):
            u = self.link_down[key]
            if not isinstance(u, Var):
                continue  # non-failable: stays up, contributes log(1)~0
            event = fm.event_of[pos]
            if event in priced:
                continue
            priced.add(event)
            pi = fm.events[event].probability
            # u*log(pi) + (1-u)*log(1-pi)
            expr = expr + log(pi) * u.to_expr()
            expr = expr + log(1.0 - pi) * (1 - u.to_expr())
        self.model.add_constr(expr >= log(threshold), name="probability")

    # -- extraction ---------------------------------------------------------
    def extract_scenario(self, result: SolveResult) -> FailureScenario:
        """Read the failure scenario off a solved host model."""
        failed = []
        for (key, i), u in self.link_down.items():
            if isinstance(u, Var) and result.value(u) > 0.5:
                failed.append((key, i))
        return FailureScenario(failed)

    def down_path_indices(self, result: SolveResult) -> dict[Pair, list[int]]:
        """Which path indices the solution marks as down, per pair."""
        out: dict[Pair, list[int]] = {}
        for (pair, j), u in self.path_down.items():
            if isinstance(u, Var) and result.value(u) > 0.5:
                out.setdefault(pair, []).append(j)
        return out


def build_path_extension_caps(
    model: Model,
    encoding: FailureEncoding,
    demand_exprs: Mapping[Pair, object],
    demand_uppers: Mapping[Pair, float],
    kill_down_paths: bool = False,
) -> dict[tuple[Pair, int], object]:
    """Eq. 5's path-extension capacities ``C_kpj``.

    For each demand pair and path index ``j`` this returns:

    * ``None`` for paths with no cap (primaries under the total-flow
      objective -- their flow is already limited by the demand constraint
      and the variable LAG capacities);
    * a number or expression otherwise: the artificial LAG's capacity,
      equal to ``d_k`` when the path may carry traffic and 0 when not.

    Args:
        model: Host model.
        encoding: The failure encoding providing activation/down binaries.
        demand_exprs: Demand per pair -- a Var (joint mode) or float.
        demand_uppers: Finite upper bound per pair (the McCormick big-M).
        kill_down_paths: Also zero the capacity of *down* paths.  Needed
            for MLU (Appendix A), where LAG capacity constraints are not
            part of the model and path extensions are the only mechanism
            that stops traffic from crossing a dead LAG.
    """
    caps: dict[tuple[Pair, int], object] = {}
    for pair, dp in encoding.paths.items():
        d_expr = demand_exprs[pair]
        d_hi = demand_uppers[pair]
        for j in range(len(dp.paths)):
            active = encoding.path_active[(pair, j)]
            down = encoding.path_down[(pair, j)]

            usable = _usable_indicator(model, active, down, kill_down_paths,
                                       name=f"usable[{pair}][{j}]")
            if usable is None:
                # Unconditionally usable: no artificial cap needed.
                caps[(pair, j)] = None
                continue
            if isinstance(usable, float):
                caps[(pair, j)] = usable * d_expr if usable else 0.0
                continue
            if isinstance(d_expr, (int, float)):
                # Fixed demand: C = d * usable is a plain scaling.
                caps[(pair, j)] = float(d_expr) * usable.to_expr()
            else:
                caps[(pair, j)] = product_binary_bounded(
                    model, usable, d_expr, factor_ub=d_hi,
                    name=f"C[{pair}][{j}]",
                )
    return caps


def _usable_indicator(model: Model, active, down, kill_down_paths: bool,
                      name: str):
    """Combine activation and down-ness into one usability signal.

    Returns ``None`` when the path is unconditionally usable (constant
    active, and down-ness is irrelevant or constantly up), a float 0/1
    when usability is constant, or a binary Var otherwise.
    """
    if not kill_down_paths:
        # Usability = activation only (LAG capacities handle down paths).
        if isinstance(active, float):
            return None if active == 1.0 else 0.0
        return active
    # Usability = active AND NOT down.
    if isinstance(active, float) and active == 0.0:
        return 0.0
    if isinstance(down, float):  # never down
        if isinstance(active, float):
            return None if active == 1.0 else 0.0
        return active
    if isinstance(active, float):  # always active (primary)
        w = model.add_var(binary=True, name=name)
        model.add_constr(w.to_expr() == 1 - down.to_expr(), name=f"{name}:def")
        return w
    w = model.add_var(binary=True, name=name)
    model.add_constr(w.to_expr() <= active.to_expr(), name=f"{name}:a")
    model.add_constr(w.to_expr() <= 1 - down.to_expr(), name=f"{name}:d")
    model.add_constr(
        w.to_expr() >= active.to_expr() - down.to_expr(), name=f"{name}:ad"
    )
    return w


def add_naive_failover_constraints(
    model: Model,
    paths: PathSet,
    healthy_flow: Mapping[tuple[Pair, int], Var],
    failed_flow: Mapping[tuple[Pair, int], Var],
) -> None:
    """Section 5.1's naive fail-over coupling.

    ``f_{k, p_{n_kp + r}} <= f^o_{k, p_r}``: the r-th backup may carry at
    most what the healthy network put on the r-th primary, and every
    primary's failed flow may not exceed its healthy flow.  Backups beyond
    the primary count are capped at zero (no healthy counterpart).
    """
    for pair, dp in paths.items():
        n = dp.num_primary
        for j in range(len(dp.paths)):
            f_var = failed_flow.get((pair, j))
            if f_var is None:
                continue
            if j < n:
                source = healthy_flow.get((pair, j))
            else:
                r = j - n
                source = healthy_flow.get((pair, r)) if r < n else None
            if source is None:
                model.add_constr(f_var <= 0.0, name=f"naive0[{pair}][{j}]")
            else:
                model.add_constr(
                    f_var <= source.to_expr(), name=f"naive[{pair}][{j}]"
                )


def failable_link_keys(
    topology: Topology,
    config: RahaConfig,
    non_failable_lags: Iterable[LagKey] = (),
) -> list[tuple[LagKey, int]]:
    """The links a :class:`FailureEncoding` would let fail (for reports)."""
    model = FailureModel(topology)
    banned = {lag_key(*k) for k in non_failable_lags}
    return [key for pos, key in enumerate(model.links)
            if model.failable(pos, config.probability_threshold, banned)]
