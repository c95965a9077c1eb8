"""Direct tests for the Section 5 encodings."""

import pytest

from repro import RahaConfig, Srlg
from repro.core.encodings import FailureEncoding, failable_link_keys
from repro.network.builder import from_edges
from repro.network.srlg import attach_srlg
from repro.network.topology import Link
from repro.paths import PathSet
from repro.solver import Model, quicksum
from repro.solver.expr import Var


@pytest.fixture
def topo():
    return from_edges([
        ("a", "b", 10, 2), ("b", "d", 10), ("a", "c", 6), ("c", "d", 6),
    ], failure_probability=0.1)


@pytest.fixture
def paths(topo):
    return PathSet.k_shortest(topo, [("a", "d")], num_primary=1,
                              num_backup=1)


def make_encoding(topo, paths, **config_kwargs):
    config_kwargs.setdefault("demand_bounds", {("a", "d"): (0.0, 20.0)})
    config = RahaConfig(**config_kwargs)
    model = Model("enc")
    return model, FailureEncoding(
        model=model, topology=topo, paths=paths, config=config
    )


class TestLinkVariables:
    def test_all_probabilistic_links_failable(self, topo, paths):
        _, enc = make_encoding(topo, paths)
        vars_ = [u for u in enc.link_down.values() if isinstance(u, Var)]
        assert len(vars_) == topo.num_links

    def test_non_failable_lag_pinned(self, topo, paths):
        config = RahaConfig(demand_bounds={("a", "d"): (0.0, 20.0)})
        model = Model("enc")
        enc = FailureEncoding(
            model=model, topology=topo, paths=paths, config=config,
            non_failable_lags=frozenset({("a", "b")}),
        )
        assert enc.link_down[(("a", "b"), 0)] == 0.0
        assert enc.lag_down[("a", "b")] == 0.0

    def test_cannot_fail_link_pinned(self, paths):
        topo = from_edges([
            ("a", "b", 10, 2), ("b", "d", 10), ("a", "c", 6), ("c", "d", 6),
        ], failure_probability=0.1)
        lag = topo.require_lag("b", "d")
        lag.links = [Link(capacity=10, failure_probability=0.1,
                          can_fail=False)]
        _, enc = make_encoding(topo, paths)
        assert enc.link_down[(("b", "d"), 0)] == 0.0

    def test_probability_free_link_pinned_under_threshold(self, paths):
        topo = from_edges([
            ("a", "b", 10, 2), ("b", "d", 10), ("a", "c", 6), ("c", "d", 6),
        ], failure_probability=0.1)
        # Strip one LAG's probability.
        lag = topo.require_lag("a", "c")
        lag.links = [Link(capacity=6)]
        _, enc = make_encoding(topo, paths, probability_threshold=1e-3)
        assert enc.link_down[(("a", "c"), 0)] == 0.0

    def test_probability_free_link_failable_without_threshold(self, paths):
        topo = from_edges([
            ("a", "b", 10, 2), ("b", "d", 10), ("a", "c", 6), ("c", "d", 6),
        ], failure_probability=0.1)
        lag = topo.require_lag("a", "c")
        lag.links = [Link(capacity=6)]
        _, enc = make_encoding(topo, paths, max_failures=2)
        assert isinstance(enc.link_down[(("a", "c"), 0)], Var)


class TestLagSemantics:
    def _force_and_read(self, model, enc, assignments, expr):
        """Pin link binaries and return min/max of an expression."""
        for key, value in assignments.items():
            u = enc.link_down[key]
            model.add_constr(u.to_expr() == value)
        free = [u for u in enc.link_down.values()
                if isinstance(u, Var)]
        model.add_constr(quicksum(free) <= sum(assignments.values()))
        model.set_objective(expr, sense="max")
        hi = model.solve().require_ok().value(expr)
        model.set_objective(expr, sense="min")
        lo = model.solve().require_ok().value(expr)
        return lo, hi

    def test_lag_capacity_expression(self, topo, paths):
        model, enc = make_encoding(topo, paths)
        lo, hi = self._force_and_read(
            model, enc, {(("a", "b"), 0): 1, (("a", "b"), 1): 0},
            enc.lag_capacity[("a", "b")],
        )
        assert lo == pytest.approx(5.0)
        assert hi == pytest.approx(5.0)

    def test_lag_down_requires_all_links(self, topo, paths):
        model, enc = make_encoding(topo, paths)
        lag_down = enc.lag_down[("a", "b")]
        lo, hi = self._force_and_read(
            model, enc, {(("a", "b"), 0): 1, (("a", "b"), 1): 0},
            lag_down.to_expr(),
        )
        assert (lo, hi) == (0.0, 0.0)

    def test_lag_down_when_all_links_fail(self, topo, paths):
        model, enc = make_encoding(topo, paths)
        lag_down = enc.lag_down[("a", "b")]
        lo, hi = self._force_and_read(
            model, enc, {(("a", "b"), 0): 1, (("a", "b"), 1): 1},
            lag_down.to_expr(),
        )
        assert (lo, hi) == (1.0, 1.0)

    def test_path_down_exact_both_directions(self, topo, paths):
        model, enc = make_encoding(topo, paths)
        # Path 0 of (a, d) is a-b-d; fail all of a-b.
        down = enc.path_down[(("a", "d"), 0)]
        lo, hi = self._force_and_read(
            model, enc, {(("a", "b"), 0): 1, (("a", "b"), 1): 1},
            down.to_expr(),
        )
        assert (lo, hi) == (1.0, 1.0)

    def test_path_up_when_links_survive(self, topo, paths):
        model, enc = make_encoding(topo, paths)
        down = enc.path_down[(("a", "d"), 0)]
        lo, hi = self._force_and_read(
            model, enc, {(("a", "b"), 0): 1}, down.to_expr()
        )
        assert (lo, hi) == (0.0, 0.0)

    def test_backup_activation_follows_primary(self, topo, paths):
        model, enc = make_encoding(topo, paths)
        active = enc.path_active[(("a", "d"), 1)]
        lo, hi = self._force_and_read(
            model, enc, {(("a", "b"), 0): 1, (("a", "b"), 1): 1},
            active.to_expr(),
        )
        assert (lo, hi) == (1.0, 1.0)

    def test_backup_inactive_without_failures(self, topo, paths):
        model, enc = make_encoding(topo, paths)
        active = enc.path_active[(("a", "d"), 1)]
        lo, hi = self._force_and_read(model, enc, {}, active.to_expr())
        assert (lo, hi) == (0.0, 0.0)

    def test_primary_always_active_constant(self, topo, paths):
        _, enc = make_encoding(topo, paths)
        assert enc.path_active[(("a", "d"), 0)] == 1.0


class TestSrlgEncoding:
    def test_srlg_links_share_fate(self, paths):
        topo = from_edges([
            ("a", "b", 10, 2), ("b", "d", 10), ("a", "c", 6), ("c", "d", 6),
        ], failure_probability=0.1)
        srlg = Srlg(name="conduit")
        srlg.add("a", "b", 0)
        srlg.add("c", "d", 0)
        attach_srlg(topo, srlg)
        _, enc = make_encoding(topo, paths)
        assert enc.link_down[(("a", "b"), 0)] is enc.link_down[(("c", "d"), 0)]

    def test_link_in_two_srlgs_rejected(self, paths):
        from repro.exceptions import TopologyError

        topo = from_edges([
            ("a", "b", 10, 2), ("b", "d", 10), ("a", "c", 6), ("c", "d", 6),
        ], failure_probability=0.1)
        groups = []
        for name in ("g1", "g2"):
            srlg = Srlg(name=name)
            srlg.add("a", "b", 0)
            srlg.add("b", "d", 0)
            groups.append(srlg)
        attach_srlg(topo, groups[0])
        # Rejected where the topology is built ...
        with pytest.raises(TopologyError, match="already belongs"):
            attach_srlg(topo, groups[1])
        # ... and by the failure model when the list is appended to
        # directly, before any binary is created.
        topo.srlgs.append(groups[1])
        with pytest.raises(TopologyError, match="multiple SRLGs"):
            make_encoding(topo, paths)


class TestScenarioExtraction:
    def test_extract_scenario_roundtrip(self, topo, paths):
        model, enc = make_encoding(topo, paths, max_failures=2)
        model.add_constr(enc.link_down[(("a", "c"), 0)].to_expr() == 1)
        model.set_objective(
            quicksum(u for u in enc.link_down.values() if isinstance(u, Var)),
            sense="min",
        )
        result = model.solve().require_ok()
        scenario = enc.extract_scenario(result)
        assert scenario.is_failed(("a", "c"), 0)
        assert scenario.num_failed_links == 1


class TestFailableLinkKeys:
    def test_counts(self, topo):
        config = RahaConfig(demand_bounds={("a", "d"): (0.0, 1.0)})
        keys = failable_link_keys(topo, config)
        assert len(keys) == topo.num_links

    def test_excluded_lag(self, topo):
        config = RahaConfig(demand_bounds={("a", "d"): (0.0, 1.0)})
        keys = failable_link_keys(topo, config,
                                  non_failable_lags=[("a", "b")])
        assert all(key != ("a", "b") for key, _ in keys)


class TestSrlgGroupProbabilityFailability:
    def test_probability_free_member_failable_via_group(self, paths):
        """A link without its own probability may still fail under a
        threshold when its SRLG carries a group probability."""
        topo = from_edges([
            ("a", "b", 10, 2), ("b", "d", 10), ("a", "c", 6), ("c", "d", 6),
        ], failure_probability=0.1)
        # Strip the probability from one link, then put it in a priced SRLG.
        lag = topo.require_lag("c", "d")
        lag.links = [Link(capacity=6)]
        srlg = Srlg(name="conduit", failure_probability=0.05)
        srlg.add("c", "d", 0)
        srlg.add("a", "c", 0)
        attach_srlg(topo, srlg)
        _, enc = make_encoding(topo, paths, probability_threshold=1e-3)
        assert isinstance(enc.link_down[(("c", "d"), 0)], Var)
        # And it shares the group's binary with the other member.
        assert enc.link_down[(("c", "d"), 0)] is enc.link_down[(("a", "c"), 0)]
