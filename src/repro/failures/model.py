"""The failure model: which links can fail, which fail together, at what odds.

Section 5.1 prices a scenario as a product over links in which a priced
SRLG counts as one event.  The Monte Carlo sampler, scenario pricing, the
MILP encoding and k-failure enumeration all read that distribution from
one :class:`FailureModel` (the rules, one line each, are in
``docs/formulation.md``).  Immune links (``can_fail=False``) never fail
and cost nothing, even inside an SRLG.

Known difference, left for a later change: an SRLG *without* a group
probability gives its members one shared binary in the MILP, while the
sampler and :meth:`FailureModel.log_probability` treat the members as
independent links, so a Monte Carlo draw can fail part of the group.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.exceptions import TopologyError
from repro.failures.scenario import FailedLink, FailureScenario
from repro.network.topology import LagKey, Topology, lag_key


@dataclass
class FailureEvent:
    """One priced Bernoulli draw: a priced SRLG (``srlg`` is its position
    in ``topology.srlgs``) or one link's own probability (``srlg=None``).
    ``links`` are the failable links it takes down, as positions in
    :attr:`FailureModel.links`."""

    probability: float
    srlg: int | None = None
    links: list[int] = field(default_factory=list)


class FailureModel:
    """The failure distribution of one topology, decided once.

    Per-link lists follow :attr:`links`, the canonical LAG/link order:
    ``lag_of`` (the LAG's position), ``physical`` (the ``Link``),
    ``can_fail``, ``srlg_of`` (position in ``topology.srlgs``) and
    ``event_of`` (the event that fails the link; ``None`` for immune and
    probability-free links).  :attr:`events` are in the serial sampler's
    draw order: one per priced SRLG, in ``topology.srlgs`` order, then one
    per ungrouped failable link with its own probability.
    """

    def __init__(self, topology: Topology):
        self.topology = topology
        member_of: dict[FailedLink, int] = {}
        for gid, srlg in enumerate(topology.srlgs):
            for key, idx in srlg.members:
                member = (lag_key(*key), idx)
                if member in member_of:
                    raise TopologyError(
                        f"link {member[0]}#{idx} belongs to multiple SRLGs")
                member_of[member] = gid
        self.events = [FailureEvent(srlg.failure_probability, gid)
                       for gid, srlg in enumerate(topology.srlgs)
                       if srlg.failure_probability is not None]
        group_event = {event.srlg: k for k, event in enumerate(self.events)}

        self.links: list[FailedLink] = []
        self.lag_of: list[int] = []
        self.physical = []
        self.can_fail: list[bool] = []
        self.srlg_of: list[int | None] = []
        self.event_of: list[int | None] = []
        for lag_pos, lag in enumerate(topology.lags):
            for i, link in enumerate(lag.links):
                pos, key = len(self.links), (lag.key, i)
                gid = member_of.get(key)
                event = group_event.get(gid) if link.can_fail else None
                if event is None and link.can_fail \
                        and link.failure_probability is not None:
                    event = len(self.events)
                    self.events.append(FailureEvent(link.failure_probability))
                if event is not None:
                    self.events[event].links.append(pos)
                self.links.append(key)
                self.lag_of.append(lag_pos)
                self.physical.append(link)
                self.can_fail.append(bool(link.can_fail))
                self.srlg_of.append(gid)
                self.event_of.append(event)
        self.index = {key: pos for pos, key in enumerate(self.links)}

    def failable(self, pos: int, threshold: float | None = None,
                 banned: Iterable[LagKey] = frozenset()) -> bool:
        """Whether the failure search may bring link ``pos`` down: it can
        fail, its LAG is not ``banned``, and under a probability
        ``threshold`` some event prices it."""
        return (self.can_fail[pos] and self.links[pos][0] not in banned
                and (threshold is None or self.event_of[pos] is not None))

    def log_probability(self, scenario: FailureScenario) -> float:
        """Natural log of the scenario's probability (full assignment).

        A priced SRLG whose failable members agree contributes
        ``log(p_g)`` or ``log(1 - p_g)`` once.  A scenario failing only
        part of one contradicts fate-sharing; its members are then priced
        on their own probabilities as a conservative fallback.
        """
        scenario.validate_for(self.topology)
        failed = scenario.failed_links
        total = 0.0
        priced: set[int] = set()
        for pos, key in enumerate(self.links):
            if not self.can_fail[pos]:
                continue  # immune: probability 1
            k = self.event_of[pos]
            if k is not None and self.events[k].srlg is not None:
                event = self.events[k]
                if len({self.links[m] in failed for m in event.links}) == 1:
                    if k not in priced:
                        priced.add(k)
                        total += (math.log(event.probability)
                                  if key in failed
                                  else math.log1p(-event.probability))
                    continue
            pi = self.physical[pos].failure_probability
            if pi is None:
                raise TopologyError(
                    f"link {key[1]} of LAG {key[0]} has no failure "
                    "probability; assign probabilities (e.g. "
                    "assign_zoo_probabilities) or use <= k failure "
                    "analysis instead")
            total += math.log(pi) if key in failed else math.log1p(-pi)
        return total
