"""Deployment builder: the whole system wired on one event loop.

``Deployment.build`` assembles what the paper deployed (§IV): the host
chain, the Guest Contract with its 10 MiB state account, the validator
set (genesis validators bonded, late joiners staking mid-run), the
counterparty chain, the cranker, the relayer and — optionally — a
fisherman with a gossip layer.  ``establish_link`` then runs the real
ICS-03/ICS-04 handshakes through the relayer, after which both
directions of ICS-20 transfer work end to end.

Tests, examples and every experiment build on this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple, Optional, Sequence

from repro.counterparty.chain import CounterpartyChain, CounterpartyConfig
from repro.crypto.keys import Keypair, SignatureScheme
from repro.crypto.simsig import SimSigScheme
from repro.errors import SimulationError
from repro.fisherman.fisherman import Fisherman
from repro.guest.api import GuestApi
from repro.guest.config import GuestConfig
from repro.guest.contract import GuestContract
from repro.host.accounts import Address
from repro.host.chain import HostChain, HostConfig
from repro.ibc.channel import ChannelState
from repro.ibc.connection import ConnectionState
from repro.ibc.identifiers import ChannelId, PortId
from repro.lightclient.guest_client import GuestLightClient
from repro.observability import TraceReport, Tracer
from repro.relayer.cranker import Cranker
from repro.relayer.endpoint import CounterpartyEnd, GuestEnd
from repro.relayer.relayer import Relayer, RelayerConfig
from repro.sim.gossip import GossipNetwork
from repro.sim.kernel import Simulation
from repro.units import sol_to_lamports
from repro.validators.node import ValidatorNode
from repro.validators.profiles import ValidatorProfile, simple_profiles


@dataclass
class DeploymentConfig:
    """Everything one simulated deployment needs."""

    seed: int = 7
    #: Simulated run length; validator join windows scale to it.
    run_duration: float = 3600.0
    guest: GuestConfig = field(default_factory=GuestConfig)
    host: HostConfig = field(default_factory=HostConfig)
    counterparty: CounterpartyConfig = field(default_factory=CounterpartyConfig)
    relayer: RelayerConfig = field(default_factory=RelayerConfig)
    profiles: Optional[list[ValidatorProfile]] = None
    cranker_poll_seconds: float = 2.0
    with_fisherman: bool = False
    #: Signature-scheme factory.  Defaults to the fast simulation scheme;
    #: pass repro.crypto.ed25519.Ed25519Scheme for real curve arithmetic
    #: (DESIGN.md SS2 documents the substitution).
    scheme_factory: type = SimSigScheme
    #: Enable the observability layer (docs/OBSERVABILITY.md): spans,
    #: counters and histograms recorded in simulated time, queryable
    #: afterwards via ``deployment.trace_report()``.  Off by default —
    #: a disabled tracer reduces every probe to a no-op.
    tracing: bool = False


@dataclass
class ProvisionedGuest:
    """One guest contract with its operational cohort, ready to link."""

    contract: GuestContract
    deployer: Address
    validators: list[ValidatorNode]
    cranker: Cranker
    cranker_payer: Address
    genesis_bonded: int


def provision_guest(sim: Simulation, host: HostChain, scheme: SignatureScheme,
                    guest_config: GuestConfig, counterparty_chain_id: str,
                    profiles: list[ValidatorProfile], run_duration: float,
                    *, namespace: str = "guest", label_prefix: str = "",
                    cranker_poll_seconds: float = 2.0,
                    key_salt: int = 0) -> ProvisionedGuest:
    """Deploy one guest contract and everything that keeps it alive.

    The per-guest half of what ``Deployment.__init__`` used to inline:
    the contract with its 10 MiB state account (§V-D's deposit), the
    validator cohort (genesis joiners bonded, late joiners staking
    mid-run), genesis, and a cranker.  The topology builder calls this
    once per guest with a distinct ``namespace``/``label_prefix`` so
    accounts, fees and validator keys never collide across guests; the
    legacy single-guest path uses the defaults, which reproduce the
    original addresses and key seeds byte for byte.
    """
    contract = GuestContract(guest_config, counterparty_chain_id,
                             namespace=namespace)
    host.deploy(contract)

    deployer = Address.derive(f"{label_prefix}deployer")
    host.airdrop(deployer, sol_to_lamports(10_000.0))
    host.accounts.allocate(
        deployer, contract.state_account,
        guest_config.state_account_bytes, contract.program_id,
    )

    validators: list[ValidatorNode] = []
    genesis_bonded = 0
    for profile in profiles:
        payer = Address.derive(f"{label_prefix}validator-payer-{profile.index}")
        host.airdrop(payer, sol_to_lamports(100.0))
        keypair = scheme.keypair_from_seed(
            bytes([1]) + profile.index.to_bytes(4, "big")
            + key_salt.to_bytes(4, "big") + bytes(23)
        )
        api = GuestApi(host, contract, payer)
        node = ValidatorNode(
            sim=sim, chain=host, contract=contract,
            api=api, keypair=keypair, profile=profile,
            run_duration=run_duration,
        )
        validators.append(node)
        if profile.join_fraction == 0.0:
            contract.staking.bond(keypair.public_key, profile.stake)
            genesis_bonded += profile.stake
        else:
            sim.schedule(node.join_time, api.stake, keypair.public_key,
                         profile.stake)
            host.airdrop(payer, profile.stake)
    # Genesis bonds never passed through STAKE transactions, so fund
    # the treasury directly to keep withdrawals solvent.
    host.airdrop(contract.treasury, genesis_bonded)

    contract.initialize(ctx_slot=0, ctx_time=0.0)

    cranker_payer = Address.derive(f"{label_prefix}cranker-payer")
    host.airdrop(cranker_payer, sol_to_lamports(1_000.0))
    cranker = Cranker(
        sim, contract, GuestApi(host, contract, cranker_payer),
        poll_seconds=cranker_poll_seconds,
    )
    return ProvisionedGuest(
        contract=contract, deployer=deployer, validators=validators,
        cranker=cranker, cranker_payer=cranker_payer,
        genesis_bonded=genesis_bonded,
    )


def wire_link(sim: Simulation, host: HostChain, scheme: SignatureScheme,
              contract: GuestContract, counterparty: CounterpartyChain,
              payer_label: str,
              config: Optional[RelayerConfig] = None) -> Relayer:
    """Wire one guest↔counterparty link: the guest's light client on
    the counterparty, a funded fee payer on the host, and the relayer
    over the two ends.  Shared by the single-guest deployment and the
    fabric topology builder."""
    assert contract.current_epoch is not None
    guest_client = GuestLightClient(scheme, contract.current_epoch,
                                    chain_id=contract.chain_id)
    guest_client_id_on_cp = counterparty.ibc.create_client(guest_client)
    payer = Address.derive(payer_label)
    host.airdrop(payer, sol_to_lamports(10_000.0))
    return Relayer(
        sim, host,
        GuestEnd(contract, GuestApi(host, contract, payer),
                 contract.counterparty_client_id),
        CounterpartyEnd(counterparty, guest_client_id_on_cp),
        config,
    )


class OpenedLink(NamedTuple):
    """One link's outcome of :func:`open_transfer_links`."""

    a_channel: ChannelId
    b_channel: ChannelId
    #: Simulated time the channel handshake's last step landed.
    opened_at: float


def handshake_step(relayer: Relayer, port: str) -> str:
    """The datagram an unfinished link handshake is waiting on
    (``ConnOpenTry``, ``ChanOpenAck``, ...), read off the two chains:
    each of the four steps either creates one end or opens one."""
    a, b = relayer.a, relayer.b
    if a.connection_id is None:
        dance, is_open = "Conn", ConnectionState.OPEN
        ends = [conn for end in (a, b) for conn in end.ibc.connections.values()
                if conn.client_id == end.client_id]
    else:
        dance, is_open = "Chan", ChannelState.OPEN
        ends = [chan for end in (a, b) for key, chan in end.ibc.channels.items()
                if chan.connection_id == end.connection_id
                and key[0] == port and key not in end.channels]
    # Four once the Confirm has executed but the relayer has yet to
    # observe it: still waiting on the Confirm.
    step = min(3, len(ends) + sum(end.state == is_open for end in ends))
    return f"{dance}Open{('Init', 'Try', 'Ack', 'Confirm')[step]}"


def open_transfer_links(sim: Simulation, links: Sequence[tuple[Relayer, str]],
                        max_seconds: float = 3_600.0) -> list[OpenedLink]:
    """Drive the ICS-03 + ICS-04 handshakes of every ``(relayer, port)``
    in ``links`` to completion, all at once.

    Each relayer opens a connection and then a channel over it
    (``port`` on both ends); a relayer whose connection is already open
    gets one more channel over it (§III-A multiplexing).  Every chain
    starts at the same simulated instant, in ``links`` order, and the
    kernel is stepped until none is pending, so N links take as long as
    the slowest one.  ``max_seconds`` is each link's budget, counted
    from that common start; when it runs out the error names every link
    still pending and the step it is waiting on.  A link whose retries
    run out raises its own :class:`~repro.errors.HandshakeError` out of
    the loop.  The one establish loop for every link kind and count:
    ``Deployment.establish_link`` is its one-element call, the fabric's
    ``establish_all`` its N-element call.
    """
    opened: dict[int, OpenedLink] = {}
    for index, (relayer, port) in enumerate(links):
        sim.trace.begin("fabric.establish", key=_link_name(relayer))
        open_channel = partial(_open_channel, opened, index, relayer, port)
        if relayer.a.connection_id is None:
            relayer.open_connection(open_channel)
        else:
            open_channel()
    deadline = sim.now + max_seconds
    while len(opened) < len(links):
        if sim.now >= deadline or not sim.step():
            pending = ", ".join(
                f"{_link_name(relayer)} "
                f"(waiting on {handshake_step(relayer, port)})"
                for index, (relayer, port) in enumerate(links)
                if index not in opened)
            raise SimulationError(
                f"link establishment incomplete after {sim.now:.0f} s: "
                f"{pending}")
    return [opened[index] for index in range(len(links))]


def _link_name(relayer: Relayer) -> str:
    return f"{relayer.a.chain_id}-{relayer.b.chain_id}"


def _open_channel(opened: dict[int, OpenedLink], index: int,
                  relayer: Relayer, port: str, *_connections) -> None:
    """Link ``index``'s connection is open (``_connections``, when given,
    are its ids on the two ends): open its channel."""
    relayer.open_channel(PortId(port), PortId(port),
                         partial(_channel_open, opened, index, relayer))


def _channel_open(opened: dict[int, OpenedLink], index: int,
                  relayer: Relayer, a_chan: ChannelId, b_chan: ChannelId) -> None:
    sim = relayer.sim
    sim.trace.finish("fabric.establish", key=_link_name(relayer))
    opened[index] = OpenedLink(a_chan, b_chan, sim.now)


def validator_keypair(validators: list[ValidatorNode], index: int) -> Keypair:
    """The signing key of the cohort member with profile ``index``."""
    for node in validators:
        if node.profile.index == index:
            return node.keypair
    raise KeyError(f"no validator with index {index}")


class Deployment:
    """A fully wired guest-blockchain deployment."""

    def __init__(self, config: DeploymentConfig) -> None:
        self.config = config
        self.sim = Simulation(
            seed=config.seed,
            tracer=Tracer() if config.tracing else None,
        )
        self.scheme: SignatureScheme = config.scheme_factory()
        self.host = HostChain(self.sim, self.scheme, config.host)
        self.counterparty = CounterpartyChain(self.sim, self.scheme, config.counterparty)

        profiles = config.profiles if config.profiles is not None else simple_profiles(4)
        provisioned = provision_guest(
            self.sim, self.host, self.scheme, config.guest,
            config.counterparty.chain_id, profiles, config.run_duration,
            cranker_poll_seconds=config.cranker_poll_seconds,
        )
        self.contract = provisioned.contract
        self.deployer = provisioned.deployer
        self.validators = provisioned.validators
        self.cranker = provisioned.cranker
        self.cranker_payer = provisioned.cranker_payer

        self.relayer = wire_link(
            self.sim, self.host, self.scheme, self.contract,
            self.counterparty, "relayer-payer", config.relayer,
        )
        self.relayer_api = self.relayer.a.api
        self.relayer_payer = self.relayer_api.payer
        # Light client of the guest, hosted on the counterparty.
        self.guest_client_id_on_cp = self.relayer.b.client_id
        self.guest_client = self.relayer.b.client

        self.gossip = GossipNetwork(self.sim)
        self.fisherman: Optional[Fisherman] = None
        if config.with_fisherman:
            fisherman_payer = Address.derive("fisherman-payer")
            self.host.airdrop(fisherman_payer, sol_to_lamports(100.0))
            self.fisherman = Fisherman(
                self.sim, self.gossip, self.contract,
                GuestApi(self.host, self.contract, fisherman_payer),
                guest_client=self.guest_client,
            )

        # User accounts for workloads and examples.
        self.user = Address.derive("guest-user")
        self.host.airdrop(self.user, sol_to_lamports(1_000.0))
        self.user_api = GuestApi(self.host, self.contract, self.user)

    # ------------------------------------------------------------------
    # Link establishment (the real handshakes)
    # ------------------------------------------------------------------

    def establish_link(self, max_seconds: float = 3_600.0,
                       port: str = "transfer") -> tuple[ChannelId, ChannelId]:
        """Open a connection and a transfer channel end to end.

        Runs the simulation until both four-step handshakes complete;
        raises if they do not finish within ``max_seconds``.  Called
        again, it opens one more channel over the same connection.
        """
        (link,) = open_transfer_links(self.sim, [(self.relayer, port)],
                                      max_seconds)
        return link.a_channel, link.b_channel

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def run_for(self, seconds: float) -> None:
        self.sim.run_until(self.sim.now + seconds)

    def trace_report(self) -> TraceReport:
        """Snapshot of everything the tracer recorded so far (empty
        when the deployment was built without ``tracing=True``)."""
        return self.sim.trace.report()

    def validator_keypair(self, index: int) -> Keypair:
        return validator_keypair(self.validators, index)


def build(config: Optional[DeploymentConfig] = None) -> Deployment:
    """Build a deployment (default: 4 homogeneous validators, fast)."""
    return Deployment(config or DeploymentConfig())
