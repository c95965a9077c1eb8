"""The failure model: one decision for sampling, pricing, the MILP and
enumeration.

Every consumer reads :class:`repro.failures.model.FailureModel`, so the
cross-consumer property test at the bottom is the contract: the sampler
replays the serial reference, the encoding's binaries are exactly the
failable links, and scenario pricing equals the threshold row.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PathSet, RahaConfig, Srlg
from repro.core.analyzer import RahaAnalyzer
from repro.core.encodings import FailureEncoding, failable_link_keys
from repro.exceptions import TopologyError
from repro.failures.availability import ScenarioSampler
from repro.failures.enumeration import enumerate_scenarios
from repro.failures.model import FailureModel
from repro.failures.montecarlo import estimate_availability, sample_scenario
from repro.failures.probability import (
    scenario_log_probability,
    scenario_probability,
)
from repro.failures.scenario import FailureScenario
from repro.network import serialization as ser
from repro.network.builder import from_edges
from repro.network.srlg import attach_srlg
from repro.network.topology import Link
from repro.solver import Model
from repro.solver.expr import Var


def diamond(p=0.1):
    return from_edges([
        ("a", "b", 10), ("b", "d", 10), ("a", "c", 6), ("c", "d", 6),
    ], failure_probability=p)


def make_immune(topo, u, v, p):
    topo.require_lag(u, v).links = [
        Link(capacity=10, failure_probability=p, can_fail=False)
    ]


def srlg(name, members, p=None):
    group = Srlg(name=name, failure_probability=p)
    for u, v, i in members:
        group.add(u, v, i)
    return group


class TestEvents:
    def test_priced_srlgs_first_then_ungrouped_links(self):
        topo = diamond()
        attach_srlg(topo, srlg("g", [("a", "c", 0), ("c", "d", 0)], 0.05))
        model = FailureModel(topo)
        assert [(e.probability, e.srlg) for e in model.events] == [
            (0.05, 0), (0.1, None), (0.1, None)]
        ac, cd = model.index[(("a", "c"), 0)], model.index[(("c", "d"), 0)]
        assert model.events[0].links == [ac, cd]
        assert model.event_of[ac] == model.event_of[cd] == 0

    def test_unpriced_srlg_members_keep_their_own_events(self):
        topo = diamond()
        attach_srlg(topo, srlg("g", [("a", "c", 0), ("c", "d", 0)]))
        model = FailureModel(topo)
        assert len(model.events) == 4
        assert all(e.srlg is None for e in model.events)
        assert model.srlg_of[model.index[(("c", "d"), 0)]] == 0

    def test_immune_link_has_no_event(self):
        topo = diamond()
        make_immune(topo, "b", "d", 0.9)
        attach_srlg(topo, srlg("g", [("a", "b", 0), ("b", "d", 0)], 0.05))
        model = FailureModel(topo)
        bd = model.index[(("b", "d"), 0)]
        assert model.event_of[bd] is None
        assert bd not in model.events[0].links
        assert not model.failable(bd)


class TestSrlgBoundary:
    """A link may belong to at most one SRLG, wherever it comes from."""

    def _two_groups(self):
        return (srlg("g1", [("a", "b", 0), ("c", "d", 0)]),
                srlg("g2", [("c", "d", 0), ("a", "c", 0)], 0.05))

    def test_attach_rejects_second_group(self):
        topo = diamond()
        first, second = self._two_groups()
        attach_srlg(topo, first)
        with pytest.raises(TopologyError, match="already belongs to SRLG"):
            attach_srlg(topo, second)
        assert topo.srlgs == [first]

    def test_deserialization_rejects_second_group(self):
        topo = diamond()
        first, second = self._two_groups()
        attach_srlg(topo, first)
        doc = ser.topology_to_dict(topo)
        doc["srlgs"].append({
            "name": second.name,
            "members": [{"u": u, "v": v, "link": i}
                        for (u, v), i in second.members],
            "failure_probability": second.failure_probability,
        })
        with pytest.raises(TopologyError, match="already belongs to SRLG"):
            ser.topology_from_dict(doc)

    def test_estimate_availability_rejects_appended_overlap(self):
        topo = diamond()
        first, second = self._two_groups()
        attach_srlg(topo, first)
        topo.srlgs.append(second)  # bypasses the boundary check
        paths = PathSet.k_shortest(topo, [("a", "d")], num_primary=2,
                                   num_backup=0)
        with pytest.raises(TopologyError, match="multiple SRLGs"):
            estimate_availability(topo, {("a", "d"): 4.0}, paths,
                                  samples=5)
        with pytest.raises(TopologyError, match="multiple SRLGs"):
            scenario_log_probability(topo, FailureScenario())


class TestImmuneLinks:
    """Immune links never fail and cost nothing."""

    def test_reported_probability_meets_the_threshold(self):
        topo = diamond()
        make_immune(topo, "b", "d", 0.9)
        paths = PathSet.k_shortest(topo, [("a", "d")], num_primary=1,
                                   num_backup=1)
        config = RahaConfig(fixed_demands={("a", "d"): 12.0},
                            probability_threshold=0.05)
        result = RahaAnalyzer(topo, paths, config).analyze()
        assert result.scenario.num_failed_links > 0
        assert result.scenario_probability >= 0.05

    def test_fired_group_with_immune_member_priced_once(self):
        topo = diamond()
        make_immune(topo, "b", "d", 0.1)
        attach_srlg(topo, srlg("g", [("a", "b", 0), ("b", "d", 0)], 0.05))
        scenario = FailureScenario([(("a", "b"), 0)])
        assert scenario_probability(topo, scenario) == pytest.approx(
            0.05 * 0.9 * 0.9, rel=1e-12)

    def test_enumeration_never_fails_an_immune_link(self):
        topo = diamond()
        make_immune(topo, "b", "d", 0.9)
        scenarios = list(enumerate_scenarios(topo, 3, relevant_only=False))
        assert len(scenarios) == 3 + 3 + 1
        assert not any(s.is_failed(("b", "d"), 0) for s in scenarios)

    def test_failable_link_keys_matches_the_encoding(self):
        topo = diamond()
        make_immune(topo, "b", "d", 0.9)
        topo.require_lag("c", "d").links = [Link(capacity=6)]
        attach_srlg(topo, srlg("g", [("a", "c", 0), ("c", "d", 0)], 0.05))
        config = RahaConfig(fixed_demands={("a", "d"): 1.0},
                            probability_threshold=1e-3)
        assert failable_link_keys(topo, config) == [
            (("a", "b"), 0), (("a", "c"), 0), (("c", "d"), 0)]


# -- cross-consumer agreement ------------------------------------------------

SKELETON = [("a", "b", 2), ("b", "d", 1), ("a", "c", 1), ("c", "d", 2),
            ("b", "c", 1)]
NUM_LINKS = sum(n for _, _, n in SKELETON)
THRESHOLD = 1e-3

probabilities = st.one_of(st.none(), st.floats(min_value=0.02,
                                                max_value=0.6))


@st.composite
def failure_topologies(draw):
    """The skeleton with random probabilities, immune links and SRLGs."""
    topo = from_edges([(u, v, 10 * n) for u, v, n in SKELETON])
    links = []
    for u, v, n in SKELETON:
        lag = topo.require_lag(u, v)
        lag.links = [
            Link(capacity=10.0, failure_probability=draw(probabilities),
                 can_fail=draw(st.sampled_from([True, True, True, False])))
            for _ in range(n)
        ]
        links += [(lag.key, i) for i in range(n)]
    labels = draw(st.lists(st.sampled_from([None, 0, 1]),
                           min_size=NUM_LINKS, max_size=NUM_LINKS))
    for gid in (0, 1):
        members = [key for key, label in zip(links, labels) if label == gid]
        if len(members) >= 2:
            group = Srlg(name=f"g{gid}", members=members,
                         failure_probability=draw(probabilities))
            attach_srlg(topo, group)
    return topo


def encode(topo, threshold):
    paths = PathSet.k_shortest(topo, [("a", "d")], num_primary=1,
                               num_backup=1)
    config = RahaConfig(fixed_demands={("a", "d"): 5.0},
                        probability_threshold=threshold)
    model = Model("agreement")
    return model, config, FailureEncoding(model=model, topology=topo,
                                          paths=paths, config=config)


def threshold_row_value(model, encoding, scenario) -> float:
    """The threshold row's log-probability at the scenario's binaries."""
    x = {}
    for key, u in encoding.link_down.items():
        if isinstance(u, Var):
            x[u.index] = 1.0 if key in scenario.failed_links else 0.0
    (row,) = [c for c in model.constraints if c.name == "probability"]
    expr = row.expr
    return (sum(coef * x[index] for index, coef in expr.terms.items())
            + expr.constant + math.log(THRESHOLD))


def splits_unpriced_srlg(topo, scenario) -> bool:
    model = FailureModel(topo)
    groups: dict[int, set[bool]] = {}
    for pos, key in enumerate(model.links):
        gid = model.srlg_of[pos]
        if gid is not None and model.can_fail[pos] \
                and topo.srlgs[gid].failure_probability is None:
            groups.setdefault(gid, set()).add(key in scenario.failed_links)
    return any(len(states) > 1 for states in groups.values())


class TestCrossConsumerAgreement:
    @settings(max_examples=60, deadline=None)
    @given(topo=failure_topologies(), seed=st.integers(0, 2**16))
    def test_consumers_agree(self, topo, seed):
        # Failability: the encoding's binaries are failable_link_keys.
        for threshold in (None, THRESHOLD):
            model, config, enc = encode(topo, threshold)
            with_binary = [key for key, u in enc.link_down.items()
                           if isinstance(u, Var)]
            assert with_binary == failable_link_keys(topo, config)

        # Sampling: the vectorized sampler replays the serial reference.
        try:
            sampler = ScenarioSampler(topo)
        except TopologyError:
            with pytest.raises(TopologyError):
                sample_scenario(topo, np.random.default_rng(seed))
            return
        serial = np.random.default_rng(seed)
        matrix = sampler.sample(np.random.default_rng(seed), 40)
        scenarios = [sampler.scenario_for(row) for row in matrix]
        assert scenarios == [sample_scenario(topo, serial)
                             for _ in scenarios]

        # Pricing: scenario_log_probability is the threshold row.
        model, _, enc = encode(topo, THRESHOLD)
        for scenario in scenarios:
            if splits_unpriced_srlg(topo, scenario):
                continue
            assert scenario_log_probability(topo, scenario) == \
                pytest.approx(threshold_row_value(model, enc, scenario),
                              rel=1e-9, abs=1e-9)
