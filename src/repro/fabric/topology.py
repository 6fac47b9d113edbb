"""Declarative fabric topologies: N guests, counterparties, links, routes.

A :class:`TopologyConfig` names every chain in the deployment, wires
them with links and layers named multi-hop routes on top — the whole
§IV deployment generalised from "one guest, one counterparty" to an
arbitrary star/chain/mesh of guests sharing one host.  The builder in
:mod:`repro.fabric.deployment` consumes a validated config; everything
here is pure data plus :meth:`TopologyConfig.validate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.counterparty.chain import CounterpartyConfig
from repro.crypto.simsig import SimSigScheme
from repro.errors import SimulationError
from repro.guest.config import GuestConfig
from repro.host.chain import HostConfig
from repro.relayer.relayer import RelayerConfig


@dataclass(frozen=True)
class GuestSpec:
    """One guest contract in the fabric; ``name`` is its chain id."""

    name: str
    config: GuestConfig = field(default_factory=GuestConfig)
    validators: int = 4
    #: Install the packet-forwarding middleware (needed on every
    #: intermediate chain of a multi-hop route).
    forwarding: bool = True
    cranker_poll_seconds: float = 2.0


@dataclass(frozen=True)
class CounterpartySpec:
    """One counterparty chain; ``name`` becomes its chain id."""

    name: str
    config: Optional[CounterpartyConfig] = None


@dataclass(frozen=True)
class LinkSpec:
    """An IBC link between two named chains (order is cosmetic)."""

    a: str
    b: str
    port: str = "transfer"

    @property
    def ends(self) -> frozenset:
        return frozenset((self.a, self.b))


@dataclass(frozen=True)
class RouteSpec:
    """A named path across the fabric: chain names, endpoints included.

    ``hops=("cp-a", "g0", "g1", "cp-b")`` is the 2-intermediate route
    cp-a → g0 → g1 → cp-b; every consecutive pair must be linked and
    every intermediate must be a forwarding guest.
    """

    name: str
    hops: tuple[str, ...]


@dataclass
class TopologyConfig:
    """Everything one multi-guest fabric deployment needs."""

    guests: tuple[GuestSpec, ...]
    counterparties: tuple[CounterpartySpec, ...] = ()
    links: tuple[LinkSpec, ...] = ()
    routes: tuple[RouteSpec, ...] = ()
    seed: int = 7
    run_duration: float = 3600.0
    host: HostConfig = field(default_factory=HostConfig)
    relayer: RelayerConfig = field(default_factory=RelayerConfig)
    #: Per-hop timeout the forwarding middleware stamps on onward sends.
    hop_timeout_seconds: float = 600.0
    scheme_factory: type = SimSigScheme
    tracing: bool = False

    # ------------------------------------------------------------------

    def guest_names(self) -> set[str]:
        return {g.name for g in self.guests}

    def counterparty_names(self) -> set[str]:
        return {c.name for c in self.counterparties}

    def validate(self) -> None:
        """Reject ill-formed topologies with a precise complaint."""
        if not self.guests:
            raise SimulationError("a fabric needs at least one guest")
        names: list[str] = [g.name for g in self.guests]
        names += [c.name for c in self.counterparties]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise SimulationError(f"duplicate chain names: {sorted(dupes)}")
        known = set(names)
        guests = self.guest_names()
        cps = self.counterparty_names()

        seen_links: set[frozenset] = set()
        cp_links_per_guest: dict[str, int] = {}
        for link in self.links:
            for end in (link.a, link.b):
                if end not in known:
                    raise SimulationError(f"link references unknown chain {end!r}")
            if link.a == link.b:
                raise SimulationError(f"link {link.a!r} cannot be a self-loop")
            if link.ends in seen_links:
                raise SimulationError(
                    f"duplicate link {link.a!r}-{link.b!r}")
            seen_links.add(link.ends)
            if link.a in cps and link.b in cps:
                raise SimulationError(
                    "counterparty-to-counterparty links are out of scope: "
                    f"{link.a!r}-{link.b!r}"
                )
            for end, other in ((link.a, link.b), (link.b, link.a)):
                if end in guests and other in cps:
                    count = cp_links_per_guest.get(end, 0) + 1
                    cp_links_per_guest[end] = count
                    if count > 1:
                        # One Tendermint client per contract (the legacy
                        # wiring); lift this when contracts grow N.
                        raise SimulationError(
                            f"guest {end!r} may link to at most one counterparty"
                        )

        forwarding = {g.name for g in self.guests if g.forwarding}
        route_names: set[str] = set()
        for route in self.routes:
            if route.name in route_names:
                raise SimulationError(f"duplicate route name {route.name!r}")
            route_names.add(route.name)
            if len(route.hops) < 2:
                raise SimulationError(
                    f"route {route.name!r} needs at least two chains")
            for hop in route.hops:
                if hop not in known:
                    raise SimulationError(
                        f"route {route.name!r} references unknown chain {hop!r}")
            for left, right in zip(route.hops, route.hops[1:]):
                if frozenset((left, right)) not in seen_links:
                    raise SimulationError(
                        f"route {route.name!r} hop {left!r}->{right!r} "
                        "has no link"
                    )
            for middle in route.hops[1:-1]:
                if middle in cps:
                    raise SimulationError(
                        f"route {route.name!r} cannot transit counterparty "
                        f"{middle!r} (no forwarding there)"
                    )
                if middle not in forwarding:
                    raise SimulationError(
                        f"route {route.name!r} transits {middle!r}, which "
                        "has forwarding disabled"
                    )

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------

    @staticmethod
    def star(num_guests: int, counterparty: str = "picasso-1",
             **overrides) -> "TopologyConfig":
        """Hub-and-spoke: N guests, each linked to one counterparty —
        the shape the ``topology-sweep`` experiment scales."""
        guests = tuple(GuestSpec(name=f"guest-{i}") for i in range(num_guests))
        links = tuple(LinkSpec(a=g.name, b=counterparty) for g in guests)
        return TopologyConfig(
            guests=guests,
            counterparties=(CounterpartySpec(name=counterparty),),
            links=links,
            **overrides,
        )

    @staticmethod
    def chain_of(chains: tuple[str, ...], route_name: str = "path",
                 **overrides) -> "TopologyConfig":
        """A linear path (cp? - guest - ... - guest - cp?) with one named
        route spanning it end to end."""
        guests = tuple(GuestSpec(name=n) for n in chains
                       if not n.startswith("cp"))
        cps = tuple(CounterpartySpec(name=n) for n in chains
                    if n.startswith("cp"))
        links = tuple(LinkSpec(a=left, b=right)
                      for left, right in zip(chains, chains[1:]))
        return TopologyConfig(
            guests=guests, counterparties=cps, links=links,
            routes=(RouteSpec(name=route_name, hops=tuple(chains)),),
            **overrides,
        )
