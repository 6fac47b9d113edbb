"""Build a whole fabric from a :class:`TopologyConfig`.

One host chain, N guest contracts (per-guest accounts, validator
cohorts, crankers — fee and compute isolation comes free from distinct
namespaces), M counterparty chains, one
:class:`~repro.relayer.relayer.Relayer` per link (over a guest and a
counterparty end, or over two guest ends) and a
:class:`~repro.relayer.routing.RouteTable` resolving the named
multi-hop routes.  ``establish_all`` runs every link's handshakes
concurrently (the fabric is linked up once its slowest link is);
``send_along`` then originates a transfer down any named route.

The deployment is duck-compatible with the single-guest
:class:`repro.deployment.Deployment` where the chaos machinery expects
it (``sim``/``host``/``gossip``/``validators``/``contract``/``cranker``/
``relayer``/``validator_keypair``), so :class:`repro.chaos.ChaosInjector`
drives fabric experiments unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional

from repro.counterparty.chain import CounterpartyChain, CounterpartyConfig
from repro.crypto.keys import Keypair, SignatureScheme
from repro.deployment import (
    ProvisionedGuest, open_transfer_links, provision_guest, validator_keypair,
    wire_link,
)
from repro.errors import SimulationError
from repro.fabric.conservation import ConservationChecker
from repro.fabric.topology import LinkSpec, TopologyConfig
from repro.guest.api import GuestApi
from repro.host.accounts import Address
from repro.host.chain import HostChain
from repro.ibc.identifiers import ChannelId, PortId
from repro.observability import Tracer
from repro.relayer.endpoint import GuestEnd
from repro.relayer.relayer import Relayer
from repro.relayer.routing import Hop, RouteTable
from repro.sim.gossip import GossipNetwork
from repro.sim.kernel import Simulation
from repro.units import sol_to_lamports
from repro.validators.profiles import simple_profiles


@dataclass
class FabricLink:
    """One established link and the relayer serving it."""

    spec: LinkSpec
    relayer: Relayer
    #: Payer addresses this link's relayer burns fees from, for the
    #: per-guest fee-partition accounting of the topology sweep.
    payers: tuple[Address, ...] = ()
    #: chain name -> that chain's channel end (set by establish_all).
    #: The only way to a link's channel ids: links open concurrently,
    #: so ids on a shared chain are not in link order.
    channels: dict = field(default_factory=dict)
    #: Simulated time the link's channel opened (set by establish_all).
    established_at: Optional[float] = None


class FabricDeployment:
    """N guests on one host, wired per a validated topology."""

    def __init__(self, config: TopologyConfig) -> None:
        config.validate()
        self.config = config
        self.sim = Simulation(
            seed=config.seed,
            tracer=Tracer() if config.tracing else None,
        )
        self.scheme: SignatureScheme = config.scheme_factory()
        self.host = HostChain(self.sim, self.scheme, config.host)
        self.gossip = GossipNetwork(self.sim)

        self.counterparties: dict[str, CounterpartyChain] = {}
        for spec in config.counterparties:
            cp_config = replace(spec.config or CounterpartyConfig(),
                                chain_id=spec.name)
            self.counterparties[spec.name] = CounterpartyChain(
                self.sim, self.scheme, cp_config)

        # Which counterparty each guest links to (validated: at most 1).
        cp_of_guest: dict[str, str] = {}
        for link in config.links:
            for end, other in ((link.a, link.b), (link.b, link.a)):
                if end in config.guest_names() and other in self.counterparties:
                    cp_of_guest[end] = other
        default_cp = next(iter(self.counterparties), "picasso-1")

        self.guests: dict[str, ProvisionedGuest] = {}
        self.user: dict[str, Address] = {}
        self.user_api: dict[str, GuestApi] = {}
        for index, spec in enumerate(config.guests):
            provisioned = provision_guest(
                self.sim, self.host, self.scheme, spec.config,
                cp_of_guest.get(spec.name, default_cp),
                simple_profiles(spec.validators), config.run_duration,
                namespace=spec.name, label_prefix=f"{spec.name}-",
                cranker_poll_seconds=spec.cranker_poll_seconds,
                key_salt=index,
            )
            if spec.forwarding:
                provisioned.contract.install_forwarding(
                    config.hop_timeout_seconds)
            self.guests[spec.name] = provisioned
            user = Address.derive(f"{spec.name}-user")
            self.host.airdrop(user, sol_to_lamports(1_000.0))
            self.user[spec.name] = user
            self.user_api[spec.name] = GuestApi(
                self.host, provisioned.contract, user)

        self.links: list[FabricLink] = [
            self._wire_link(link) for link in config.links]
        #: Where the chaos injector's relayer faults land: the first
        #: guest↔counterparty link unless a test points it elsewhere.
        self.relayer = next(
            (fl.relayer for fl in self.links
             if not fl.spec.ends <= set(self.guests)),
            self.links[0].relayer if self.links else None)

        self.routes = RouteTable()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def _wire_link(self, link: LinkSpec) -> FabricLink:
        if link.a in self.guests and link.b in self.guests:
            return self._wire_sibling_link(link)
        guest_name, cp_name = ((link.a, link.b) if link.a in self.guests
                               else (link.b, link.a))
        relayer = wire_link(
            self.sim, self.host, self.scheme,
            self.guests[guest_name].contract, self.counterparties[cp_name],
            f"{guest_name}-{cp_name}-relayer-payer", self.config.relayer,
        )
        return FabricLink(spec=link, relayer=relayer,
                          payers=(relayer.a.api.payer,))

    def _wire_sibling_link(self, link: LinkSpec) -> FabricLink:
        """Two guests on this host: each registers a host-verified
        client of the other, and each end gets its own fee payer."""
        ends = []
        for name, peer in ((link.a, link.b), (link.b, link.a)):
            contract = self.guests[name].contract
            client = contract.register_sibling(self.guests[peer].contract)
            payer = Address.derive(f"{link.a}-{link.b}-sibling-payer-{name}")
            self.host.airdrop(payer, sol_to_lamports(10_000.0))
            ends.append(GuestEnd(
                contract, GuestApi(self.host, contract, payer), client))
        relayer = Relayer(self.sim, self.host, ends[0], ends[1],
                          self.config.relayer,
                          retry_label=f"sibling-relayer:{link.a}:{link.b}")
        return FabricLink(spec=link, relayer=relayer,
                          payers=tuple(end.api.payer for end in ends))

    # ------------------------------------------------------------------
    # Handshakes and routes
    # ------------------------------------------------------------------

    def establish_all(self, max_seconds_per_link: float = 3_600.0) -> None:
        """Open every link at once (each relayer has its own payer and
        clients and consumes only the handshake steps of its own
        datagrams, so links sharing a chain do not interfere), then
        resolve the route table.  Handshakes start in ``config.links``
        order at one simulated instant; ``max_seconds_per_link`` is each
        link's budget from that instant."""
        opened = open_transfer_links(
            self.sim,
            [(link.relayer, link.spec.port) for link in self.links],
            max_seconds_per_link)
        for link, (a_channel, b_channel, opened_at) in zip(self.links, opened):
            link.channels.update({link.relayer.a.chain_id: a_channel,
                                  link.relayer.b.chain_id: b_channel})
            link.established_at = opened_at
        for route in self.config.routes:
            self.routes.add(route.name, [
                self._egress_hop(chain, nxt)
                for chain, nxt in zip(route.hops, route.hops[1:])
            ])

    def link_between(self, a: str, b: str) -> FabricLink:
        wanted = frozenset((a, b))
        for fabric_link in self.links:
            if fabric_link.spec.ends == wanted:
                return fabric_link
        raise KeyError(f"no link between {a!r} and {b!r}")

    def _egress_hop(self, chain: str, next_chain: str) -> Hop:
        fabric_link = self.link_between(chain, next_chain)
        channel = fabric_link.channels.get(chain)
        if channel is None:
            raise SimulationError(
                f"link {chain}-{next_chain} has no channel yet "
                "(establish_all not run?)"
            )
        return Hop(chain=chain, port=fabric_link.spec.port, channel=str(channel))

    # ------------------------------------------------------------------
    # Routed sends (the origination half of the routing relayer)
    # ------------------------------------------------------------------

    def send_along(self, route_name: str, sender: str, receiver: str,
                   denom: str, amount: int,
                   timeout_timestamp: float = 0.0) -> None:
        """Originate one transfer down a named route: dial the route's
        first hop, encode the rest into the ``fwd:`` receiver chain."""
        hop = self.routes.first_hop(route_name)
        encoded = self.routes.receiver_for(route_name, receiver)
        if hop.chain in self.counterparties:
            counterparty = self.counterparties[hop.chain]
            counterparty.submit(partial(
                counterparty.send_transfer, ChannelId(hop.channel), denom,
                amount, sender, encoded, timeout_timestamp, PortId(hop.port)))
            return
        contract = self.guests[hop.chain].contract
        payload = contract.transfer.make_payload(
            ChannelId(hop.channel), denom, amount,
            sender=sender, receiver=encoded,
        )
        self.user_api[hop.chain].send_packet(
            hop.port, hop.channel, payload, timeout_timestamp)

    # ------------------------------------------------------------------
    # Accounting and chaos-injector compatibility
    # ------------------------------------------------------------------

    def banks(self) -> dict[str, "object"]:
        """Every chain's bank, keyed by chain name (conservation input)."""
        out = {name: g.contract.bank for name, g in self.guests.items()}
        out.update({name: cp.bank for name, cp in self.counterparties.items()})
        return out

    def conservation_checker(self) -> ConservationChecker:
        return ConservationChecker(self.banks())

    def cohort_addresses(self, guest_name: str) -> tuple[Address, ...]:
        """Every host account a guest's operational cohort pays from —
        the denominator of the per-guest fee-partition metric."""
        provisioned = self.guests[guest_name]
        addresses = [provisioned.deployer, provisioned.cranker_payer,
                     self.user[guest_name], provisioned.contract.treasury]
        addresses += [node.api.payer for node in provisioned.validators]
        for fabric_link in self.links:
            if guest_name in fabric_link.spec.ends:
                addresses.extend(fabric_link.payers)
        return tuple(dict.fromkeys(addresses))

    def run_for(self, seconds: float) -> None:
        self.sim.run_until(self.sim.now + seconds)

    @property
    def first_guest(self) -> ProvisionedGuest:
        return self.guests[self.config.guests[0].name]

    @property
    def contract(self):
        return self.first_guest.contract

    @property
    def cranker(self):
        return self.first_guest.cranker

    @property
    def validators(self):
        return [node for g in self.guests.values() for node in g.validators]

    def validator_keypair(self, index: int) -> Keypair:
        return validator_keypair(self.first_guest.validators, index)


def build_fabric(config: TopologyConfig,
                 establish: bool = True) -> FabricDeployment:
    """Build (and by default link up) a fabric deployment."""
    deployment = FabricDeployment(config)
    if establish:
        deployment.establish_all()
    return deployment
