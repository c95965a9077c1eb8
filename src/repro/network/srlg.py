"""Shared risk link groups (SRLGs).

The paper notes Raha "can model partial failures ... and shared risk
groups (SRLGs)".  An SRLG names a set of physical links that fail together
(e.g. fibers in the same conduit cut by the same seismic event).  In the
MILP encoding (:mod:`repro.failures.model`) every link of an SRLG shares
one failure binary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import TopologyError
from repro.network.topology import LagKey, Topology, lag_key


@dataclass
class Srlg:
    """A shared risk link group.

    Attributes:
        name: Identifier for reports.
        members: ``(lag_key, link_index)`` pairs that share fate.
        failure_probability: Probability the whole group fails together.
            When set, it overrides the individual links' probabilities in
            the probability-threshold constraint (the group is one event).
    """

    name: str
    members: list[tuple[LagKey, int]] = field(default_factory=list)
    failure_probability: float | None = None

    def add(self, u: str, v: str, link_index: int) -> None:
        """Add link ``link_index`` of the LAG between ``u`` and ``v``."""
        self.members.append((lag_key(u, v), link_index))

    def validate(self, topology: Topology) -> None:
        """Check every member exists and belongs to no other SRLG."""
        if len(self.members) < 2:
            raise TopologyError(f"SRLG {self.name!r} needs at least two members")
        seen = set()
        for key, link_index in self.members:
            lag = topology.lag_between(*key)
            if lag is None:
                raise TopologyError(f"SRLG {self.name!r}: no LAG {key}")
            if not (0 <= link_index < lag.num_links):
                raise TopologyError(
                    f"SRLG {self.name!r}: LAG {key} has no link {link_index}"
                )
            member = (key, link_index)
            if member in seen:
                raise TopologyError(
                    f"SRLG {self.name!r}: duplicate member {member}"
                )
            seen.add(member)
        taken = {(lag_key(*key), idx): other.name
                 for other in topology.srlgs if other is not self
                 for key, idx in other.members}
        for key, idx in self.members:
            owner = taken.get((lag_key(*key), idx))
            if owner is not None:
                raise TopologyError(
                    f"SRLG {self.name!r}: link {lag_key(*key)}#{idx} "
                    f"already belongs to SRLG {owner!r}"
                )
        p = self.failure_probability
        if p is not None and not (0.0 < p < 1.0):
            raise TopologyError(
                f"SRLG {self.name!r}: probability must be in (0, 1), got {p}"
            )


def attach_srlg(topology: Topology, srlg: Srlg) -> None:
    """Validate an SRLG against a topology and register it."""
    srlg.validate(topology)
    topology.srlgs.append(srlg)
