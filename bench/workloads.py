"""The five benchmark workloads.

Each workload drives the system through its public entry points only
(``Deployment``, ``build_fabric``, ``WorkloadEngine``, ``EvaluationRun``,
``ChaosInjector``, ``ProvableStore``) and exposes the same three steps
to the runner:

* ``build(seed, tracing)`` — set-up: construct the world and run the
  real handshakes (what ``setup_s`` times);
* ``run(world)`` — the timed section behind ``wall_norm``;
* ``harvest(world)`` — untimed: read the metrics off the world and check
  every invariant, raising :class:`BenchFailure` on a violated one.

All load is generated in-process on the simulated clock, so open-loop
generators are never late; ``OpenLoop`` asserts that instead of
reporting it.  Why each workload exists is in ``bench/README.md``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.chaos import ChaosInjector
from repro.deployment import Deployment, DeploymentConfig
from repro.experiments.chaos import ChaosSoakConfig, storm_plan
from repro.experiments.evaluation import EvaluationConfig, EvaluationRun
from repro.experiments.profiling import SoakConfig
from repro.fabric import (
    CounterpartySpec, GuestSpec, LinkSpec, RouteSpec, TopologyConfig,
    build_fabric,
)
from repro.errors import SealedNodeError
from repro.guest.config import GuestConfig
from repro.host.chain import HostConfig
from repro.ibc import commitment as paths
from repro.ibc.identifiers import ChannelId, PortId
from repro.metrics.stats import percentile
from repro.relayer.relayer import Relayer, RelayerConfig
from repro.state.scheduler import scheduler_from_name
from repro.trie.proof import (
    MembershipProof, NonMembershipProof, verify_membership,
    verify_non_membership,
)
from repro.trie.store import seq_key
from repro.units import (
    RENT_LAMPORTS_PER_BYTE_YEAR, lamports_to_cents, lamports_to_usd,
)
from repro.validators.profiles import simple_profiles
from repro.workload import WorkloadEngine, WorkloadSpec

from observe import Observer


class BenchFailure(Exception):
    """An invariant the benchmark checks does not hold."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise BenchFailure(message)


@dataclass
class World:
    """One freshly built system plus the probes attached to it."""

    sim: Any
    host: Any
    observer: Observer
    #: The guest store the read phase proves against, and the IBC
    #: module that owns it.
    store: Any
    guest_ibc: Any
    #: Classic relayers (chunked Tendermint light-client updates).
    relayers: list
    #: Host accounts every relayer pays its fees from.
    payers: list
    #: Simulated time at which every link was open.
    established_at: float
    parts: dict = field(default_factory=dict)
    spent_before: int = 0
    events_before: int = 0
    bytes_samples_before: int = 0
    traffic_started_at: float = 0.0


@dataclass
class Outcome:
    """What one run of a workload measured, all on the simulated clock."""

    #: Simulated-clock end-to-end metrics (exact for a seed).
    sim: dict[str, float]
    #: Operation counts for the contract's attempted/failed line.
    attempted: int
    failed: int
    events_dispatched: int
    #: Layer counters read off public attributes (tracer not needed).
    counters: dict[str, float]
    #: Sample counts behind the percentiles, printed beside them.
    samples: dict[str, int]


def _spent(world: World) -> int:
    """Lamports the relayers' payer accounts hold (fees drain them)."""
    return sum(world.host.accounts.balance(payer) for payer in world.payers)


def begin_traffic(world: World) -> None:
    world.spent_before = _spent(world)
    world.events_before = world.sim.dispatched_events()
    world.bytes_samples_before = len(world.observer.live_bytes)
    world.traffic_started_at = world.sim.now


class OpenLoop:
    """Fire ``action(index)`` ``count`` times, ``interval`` simulated
    seconds apart, regardless of what the system does with them."""

    def __init__(self, sim, count: int, interval: float,
                 action: Callable[[int], None], offset: float = 0.0) -> None:
        self.sim = sim
        self.count = count
        self.interval = interval
        self.action = action
        self.fired = 0
        self._origin = sim.now + offset
        if count > 0:
            sim.schedule(offset, self._fire)

    def _fire(self) -> None:
        due = self._origin + self.fired * self.interval
        # Load is generated on the simulated clock: lateness is exactly 0.
        require(abs(self.sim.now - due) < 1e-6,
                f"open-loop generator late by {self.sim.now - due} s")
        self.action(self.fired)
        self.fired += 1
        if self.fired < self.count:
            # Absolute deadlines, so float residue never accumulates.
            self.sim.schedule_at(
                self._origin + self.fired * self.interval, self._fire)


def _p(values: list[float], fraction: float) -> float:
    return percentile(sorted(values), fraction)


def flow_metrics(world: World, latencies: list[float], last_receive: float
                 ) -> tuple[dict[str, float], dict[str, int]]:
    """The packet-flow metrics every kernel workload reports alike, from
    one latency per delivered transfer."""
    require(bool(latencies), "no packet was delivered")
    delivered = len(latencies)
    finality, unfinalised = world.observer.finality_latencies()
    require(unfinalised == 0,
            f"{unfinalised} guest writes never reached a finalised block")
    require(bool(finality), "no guest write was observed")
    fig2, _ = world.observer.finality_latencies(sends_only=True)
    updates = [update for relayer in world.relayers
               for update in relayer.metrics.lc_updates if update.success]
    require(bool(updates), "no light-client update completed")
    elapsed = last_receive - world.traffic_started_at
    fees = world.spent_before - _spent(world)
    live_bytes = world.observer.live_bytes[world.bytes_samples_before:]
    # Per packet and per direction (hops of a routed transfer count
    # singly): what the relayer's stage spans decompose.
    to_guest = [d.latency for d in world.observer.deliveries
                if d.destination not in world.observer.counterparties]
    to_counterparty = [d.latency for d in world.observer.deliveries
                       if d.destination in world.observer.counterparties]
    require(bool(live_bytes), "no guest block was generated under traffic")
    sim = {
        "send_latency_p50_s": _p(finality, 0.50),
        "send_latency_p95_s": _p(finality, 0.95),
        "fig2_send_latency_p50_s": _p(fig2, 0.50) if fig2 else 0.0,
        "e2e_latency_p50_s": _p(latencies, 0.50),
        "e2e_latency_p99_s": _p(latencies, 0.99),
        "e2e_to_guest_p50_s": _p(to_guest, 0.50) if to_guest else 0.0,
        "e2e_to_counterparty_p50_s": (_p(to_counterparty, 0.50)
                                      if to_counterparty else 0.0),
        "sustained_pps": delivered / elapsed,
        "fee_usd_per_packet": lamports_to_usd(fees / delivered),
        "lc_update_txs_mean": (sum(u.transaction_count for u in updates)
                               / len(updates)),
        "lc_update_cents_mean": (sum(lamports_to_cents(u.total_fee)
                                     for u in updates) / len(updates)),
        "establish_sim_s": world.established_at,
        "service_gap_max_s": world.observer.longest_service_gap(),
        "live_bytes_mean": sum(live_bytes) / len(live_bytes),
        "live_bytes_final": float(world.store.storage_bytes()),
    }
    samples = {"send_latency": len(finality), "fig2_send_latency": len(fig2),
               "e2e_latency": len(latencies), "lc_updates": len(updates)}
    return sim, samples


def ibc_counters(guests: list, counterparties: list) -> dict:
    """Protocol counts summed over every chain of the world."""
    out = {"ibc.packets_sent": 0, "ibc.packets_received": 0,
           "ibc.packets_acknowledged": 0, "ibc.packets_timed_out": 0}
    for module in ([g.ibc for g in guests] + [c.ibc for c in counterparties]):
        counters = module.counters
        out["ibc.packets_sent"] += counters.packets_sent
        out["ibc.packets_received"] += counters.packets_received
        out["ibc.packets_acknowledged"] += counters.packets_acknowledged
        out["ibc.packets_timed_out"] += counters.packets_timed_out
    return out


def relayer_counters(world: World) -> dict:
    metrics = [relayer.metrics for relayer in world.relayers]
    deliveries = [d for m in metrics for d in m.deliveries if d.success]
    packets = sum(d.packet_count for d in deliveries)
    return {
        "relayer.to_guest": sum(m.packets_relayed_to_guest for m in metrics),
        "relayer.to_counterparty": sum(
            m.packets_relayed_to_counterparty for m in metrics),
        "relayer.lc_updates": sum(len(m.lc_updates) for m in metrics),
        "relayer.retries": sum(m.retries for m in metrics),
        "relayer.redeliveries": sum(m.redeliveries for m in metrics),
        "relayer.delivery_txs_per_packet": (
            sum(d.transaction_count for d in deliveries) / packets
            if packets else 0.0),
    }


def trie_counters(store) -> dict:
    recount = store.trie.recount_aggregates()
    cached = (store.storage_bytes(), store.node_count(),
              store.trie.sealed_count())
    require(cached == recount,
            f"trie aggregates {cached} differ from a recount {recount}")
    return {"trie.live_nodes_final": store.node_count(),
            "trie.sealed_final": store.trie.sealed_count()}


def _open_channel_peers(guest_name: str, cp_name: str, channels) -> dict:
    peers = {}
    for guest_channel, cp_channel in channels:
        peers[(guest_name, str(guest_channel))] = cp_name
        peers[(cp_name, str(cp_channel))] = guest_name
    return peers


def _observe_deployment(dep: Deployment) -> tuple[Observer, dict]:
    peers: dict = {}
    name = dep.counterparty.config.chain_id
    observer = Observer(dep.sim, dep.host, {name: dep.counterparty}, peers,
                        store=dep.contract.store,
                        store_guest=dep.contract.chain_id)
    return observer, peers


def calm_host() -> HostConfig:
    """Benchmark weather: baseline and diurnal congestion, no spikes.

    ``HostConfig`` makes each hour a congestion spike with probability
    0.04, drawn from the seed.  A workload shorter than an hour sits
    either wholly inside one or wholly outside: on 9 of seeds 0-149 hour
    0 is a spike and every workload establishes 2.5x and delivers 3.5x
    slower, so two such seeds among ten put the third quartile of every
    latency metric in the other regime.  Seeds vary the sample, not the
    weather."""
    return HostConfig(spike_probability=0.0)


def _linked_world(seed: int, tracing: bool, *, guest: GuestConfig,
                  relayer: RelayerConfig, validators: int, channels: int,
                  with_fisherman: bool = False) -> World:
    """One guest<->counterparty deployment with its link and ``channels``
    transfer channels open, observed from before the first handshake
    (the shape of ``experiments.profiling.build_soak`` and
    ``experiments.chaos.build_chaos_deployment``, which fix the host's
    config and the tracer and attach no probes)."""
    dep = Deployment(DeploymentConfig(
        seed=seed, guest=guest, host=calm_host(), relayer=relayer,
        profiles=simple_profiles(validators), with_fisherman=with_fisherman,
        tracing=tracing,
    ))
    observer, peers = _observe_deployment(dep)
    opened = [dep.establish_link()]
    while len(opened) < channels:
        extra: dict = {}
        dep.relayer.open_channel(
            PortId("transfer"), PortId("transfer"),
            lambda g, c: extra.update(guest=g, cp=c))
        deadline = dep.sim.now + 3_600.0
        while "cp" not in extra and dep.sim.now < deadline:
            dep.sim.step()
        require("cp" in extra, "extra channel failed to open")
        opened.append((extra["guest"], extra["cp"]))
    peers.update(_open_channel_peers(
        dep.contract.chain_id, dep.counterparty.config.chain_id, opened))
    return World(
        sim=dep.sim, host=dep.host, observer=observer,
        store=dep.contract.store, guest_ibc=dep.contract.ibc,
        relayers=[dep.relayer], payers=[dep.relayer_payer],
        established_at=dep.sim.now, parts={"dep": dep, "channels": opened},
    )


def _conservation_failures(dep: Deployment, channels, denom: str) -> list[str]:
    """Escrowed on the counterparty == vouchers circulating on the guest."""
    failures = []
    for guest_channel, cp_channel in channels:
        escrow = dep.counterparty.transfer.escrow_address(cp_channel)
        voucher = dep.contract.transfer.voucher_denom(guest_channel, denom)
        escrowed = dep.counterparty.bank.balance(escrow, denom)
        circulating = dep.contract.bank.total_supply(voucher)
        if escrowed != circulating:
            failures.append(f"{cp_channel}: escrowed {escrowed} != "
                            f"vouchers {circulating}")
    return failures


def _engine_outcome(world: World, dep: Deployment, engine: WorkloadEngine,
                    channels, extra_counters: Optional[dict] = None) -> Outcome:
    """Harvest a ``WorkloadEngine`` run (counterparty -> guest traffic)."""
    report = engine.report()
    deliveries = world.observer.deliveries
    failures = _conservation_failures(dep, channels, engine.spec.denom)
    require(not failures, f"conservation broken: {failures}")
    require(world.observer.undelivered() == 0 and engine.outstanding() == 0,
            f"{engine.outstanding()} packets never delivered")
    require(len(deliveries) == engine.delivered == engine.committed,
            f"observer saw {len(deliveries)} deliveries, engine "
            f"{engine.delivered} of {engine.committed} committed")
    require(dep.contract.ibc.counters.packets_received == engine.committed,
            "guest received a different number of packets than were sent")
    sim, samples = flow_metrics(
        world, [d.latency for d in deliveries],
        max(d.received_at for d in deliveries))
    # The engine times the same packets independently, from their commit.
    from_commit = _p([d.received_at - d.committed_at for d in deliveries], 0.50)
    require(abs(from_commit - report.latency_p50) < 1e-6,
            "observer and WorkloadEngine disagree on commit-to-receive latency")
    counters = {
        "workload.sent": engine.sent,
        "workload.committed": engine.committed,
        "workload.delivered": engine.delivered,
        "workload.send_failures": engine.send_failures,
        **ibc_counters([dep.contract], [dep.counterparty]),
        **relayer_counters(world),
        **trie_counters(world.store),
        **(extra_counters or {}),
    }
    failed = engine.send_failures + (engine.committed - engine.delivered)
    return Outcome(
        sim=sim, attempted=engine.sent, failed=failed,
        events_dispatched=world.sim.dispatched_events() - world.events_before,
        counters=counters, samples=samples,
    )


def _scaled(count: int, scale: float, floor: int = 1) -> int:
    return max(floor, round(count * scale))


class Workload:
    """Shared shape of the five workloads (see the module docstring)."""

    name: str
    default_seed: int

    def __init__(self, scale: float = 1.0) -> None:
        #: 1.0 is the recorded size; ``--smoke`` runs at 0.1.
        self.scale = scale

    def read_plan(self, world: World, proofs: int) -> "ReadPlan":
        return chain_read_plan(world.store, world.guest_ibc, proofs)


# ----------------------------------------------------------------------
# link_soak
# ----------------------------------------------------------------------

class LinkSoak(Workload):
    """One guest<->counterparty link under steady load (the shape of
    ``experiments.profiling.SoakConfig`` and ``BENCH_wallclock.json``)."""

    name = "link_soak"
    default_seed = 29
    packets = 5_000
    offered_pps = 20.0

    def build(self, seed: int, tracing: bool) -> World:
        config = SoakConfig(packets=_scaled(self.packets, self.scale, 200),
                            offered_pps=self.offered_pps)
        world = _linked_world(
            seed, tracing,
            guest=GuestConfig(delta_seconds=config.delta_seconds,
                              min_stake_lamports=1),
            relayer=RelayerConfig(
                batch_max_packets=config.batch_max_packets,
                batch_flush_seconds=config.batch_flush_seconds),
            validators=4, channels=config.channels)
        world.parts["engine"] = WorkloadEngine(
            world.parts["dep"], world.parts["channels"], WorkloadSpec(
                mode="open-constant", offered_pps=config.offered_pps,
                duration=config.duration, amount=config.amount,
                drain_seconds=config.drain_seconds))
        return world

    def run(self, world: World) -> None:
        begin_traffic(world)
        world.parts["engine"].run()

    def harvest(self, world: World) -> Outcome:
        return _engine_outcome(world, world.parts["dep"],
                               world.parts["engine"], world.parts["channels"])


# ----------------------------------------------------------------------
# paper_day
# ----------------------------------------------------------------------

class PaperDay(Workload):
    """The paper's evaluation deployment (Figs. 2-5) at low load."""

    name = "paper_day"
    default_seed = 2024
    #: EvaluationConfig scales the paper's month to 24 h by speeding the
    #: workloads and shortening the outage in proportion; the same rule
    #: applied once more fits the contract's time cap with the same
    #: number of sends and light-client updates.
    hours = 8.0
    late_drain_seconds = 1_800.0

    def build(self, seed: int, tracing: bool) -> World:
        base = EvaluationConfig()
        shrink = self.hours / 24.0
        run = EvaluationRun(EvaluationConfig(
            seed=seed,
            duration=self.hours * 3600.0 * self.scale,
            send_mean_gap=base.send_mean_gap * shrink,
            cp_send_mean_gap=base.cp_send_mean_gap * shrink,
            outage_seconds=base.outage_seconds * shrink * self.scale,
            epoch_length_slots=round(base.epoch_length_slots * shrink),
            tracing=tracing,
        ))
        dep = run.deployment
        # EvaluationRun fixes its host's config; nothing has asked for
        # the weather yet, so it can still be set.
        dep.host.config.spike_probability = calm_host().spike_probability
        observer, peers = _observe_deployment(dep)
        world = World(
            sim=dep.sim, host=dep.host, observer=observer,
            store=dep.contract.store, guest_ibc=dep.contract.ibc,
            relayers=[dep.relayer],
            payers=[dep.relayer_payer], established_at=0.0,
            parts={"dep": dep, "run": run, "peers": peers},
        )
        # EvaluationRun.execute() runs the handshakes itself, so they
        # fall inside the timed section (under 1 % of its simulated
        # span); the opening time is read off the counterparty's
        # channel table.
        dep.counterparty.on_block(lambda height: self._watch_open(world))
        return world

    @staticmethod
    def _watch_open(world: World) -> None:
        if world.established_at:
            return
        dep = world.parts["dep"]
        for (port, channel), end in dep.counterparty.ibc.channels.items():
            if end.state.name == "OPEN":
                world.established_at = world.sim.now
                world.parts["peers"].update(_open_channel_peers(
                    dep.contract.chain_id, dep.counterparty.config.chain_id,
                    [(end.counterparty_channel_id, channel)]))

    def run(self, world: World) -> None:
        begin_traffic(world)
        world.parts["results"] = world.parts["run"].execute()
        # execute() draws sends until its duration is up and then runs a
        # fixed grace period, inside which the last draw may still fall
        # (seed 32: 4 s before its end).  Run on until that one has landed
        # and the block holding its ack is final.
        deadline = world.sim.now + self.late_drain_seconds
        while world.sim.now < deadline and (
                world.observer.undelivered()
                or world.observer.finality_latencies()[1]):
            world.parts["dep"].run_for(60.0)

    def read_plan(self, world: World, proofs: int) -> "ReadPlan":
        """At this load the guest seals its store behind every packet:
        two entries are live at the end, and proving them 2 000 times
        each costs whatever the sealed stubs on their two paths happen to
        cost (4.4-5.9 refloops over ten seeds, in two clusters).  So the
        read phase proves against the counterparty's store instead, which
        seals nothing: 3 000 preloaded entries plus this run's receipts
        and acks, what a relayer proves every counterparty->guest packet
        against."""
        counterparty = world.parts["dep"].counterparty
        return chain_read_plan(counterparty.ibc.store, counterparty.ibc, proofs)

    def harvest(self, world: World) -> Outcome:
        dep = world.parts["dep"]
        results = world.parts["results"]
        deliveries = world.observer.deliveries
        sends = results.sends
        require(world.established_at > 0.0, "the link never opened")
        require(len(sends) >= 20 * self.scale,
                f"only {len(sends)} guest sends committed")
        cp_sent = len(dep.counterparty.sent_packets)
        guest_sent = dep.contract.ibc.counters.packets_sent
        attempted = guest_sent + cp_sent
        require(len(sends) == guest_sent,
                "EvaluationRun recorded a different number of guest sends")
        unfinalised = sum(1 for record in sends if record.latency is None)
        require(unfinalised == 0,
                f"{unfinalised} guest sends never finalised")
        require(world.observer.undelivered() == 0
                and len(deliveries) == attempted,
                f"{attempted - len(deliveries)} of {attempted} packets "
                "not delivered exactly once")
        sim, samples = flow_metrics(
            world, [d.latency for d in deliveries],
            max(d.received_at for d in deliveries))
        # Fig. 2 proper (SEND_PACKET commits only): EvaluationRun records
        # it from inside, the observer from outside; they must agree.
        fig2 = _p([record.latency for record in sends], 0.50)
        require(abs(fig2 - sim["fig2_send_latency_p50_s"]) < 1e-6,
                "observer and EvaluationRun disagree on Fig. 2 send latency")
        counters = {
            "workload.sent": attempted,
            "workload.committed": attempted,
            "workload.delivered": len(deliveries),
            "workload.send_failures": 0,
            **ibc_counters([dep.contract], [dep.counterparty]),
            **relayer_counters(world),
            **trie_counters(world.store),
        }
        return Outcome(
            sim=sim, attempted=attempted,
            failed=attempted - len(deliveries),
            events_dispatched=(world.sim.dispatched_events()
                               - world.events_before),
            counters=counters, samples=samples,
        )


# ----------------------------------------------------------------------
# fabric_mesh
# ----------------------------------------------------------------------

class FabricMesh(Workload):
    """Six guests on one host: four spokes plus a three-hop route."""

    name = "fabric_mesh"
    default_seed = 2024
    spokes = ("g2", "g3", "g4", "g5")
    route = ("cp-a", "g0", "g1", "cp-b")
    routed_transfers = 900
    routed_interval = 0.5           # 2 routed transfers per simulated s
    spoke_transfers = 120
    amount = 7
    drain_seconds = 1_200.0

    def build(self, seed: int, tracing: bool) -> World:
        guests = tuple(GuestSpec(name=f"g{i}") for i in range(6))
        # Links open in this order.  The sibling link goes last: its final
        # handshake step leaves a HandshakeStep event in flight on g1, and
        # a classic handshake started on g1 right after would take it for
        # its own (seed 1000 reproduces that with the route's natural
        # order; a latent race in src/, reported in bench/README.md).
        links = tuple(LinkSpec(a=name, b="cp-a") for name in self.spokes) + (
            LinkSpec(a="cp-a", b="g0"), LinkSpec(a="g1", b="cp-b"),
            LinkSpec(a="g0", b="g1"))
        dep = build_fabric(TopologyConfig(
            guests=guests,
            counterparties=(CounterpartySpec("cp-a"), CounterpartySpec("cp-b")),
            links=links,
            routes=(RouteSpec("path", self.route),),
            host=calm_host(), seed=seed, tracing=tracing,
        ))
        peers: dict = {}
        for link in dep.links:
            (a, chan_a), (b, chan_b) = link.channels.items()
            peers[(a, str(chan_a))] = b
            peers[(b, str(chan_b))] = a
        observer = Observer(dep.sim, dep.host, dep.counterparties, peers,
                            store=dep.guests["g0"].contract.store,
                            store_guest="g0")
        return World(
            sim=dep.sim, host=dep.host, observer=observer,
            store=dep.guests["g0"].contract.store,
            guest_ibc=dep.guests["g0"].contract.ibc,
            relayers=[link.relayer for link in dep.links
                      if isinstance(link.relayer, Relayer)],
            payers=[payer for link in dep.links for payer in link.payers],
            established_at=dep.sim.now,
            parts={"dep": dep},
        )

    def run(self, world: World) -> None:
        dep = world.parts["dep"]
        sim = world.sim
        cp_a = dep.counterparties["cp-a"]
        routed = _scaled(self.routed_transfers, self.scale, 40)
        per_spoke = _scaled(self.spoke_transfers, self.scale, 8)
        window = routed * self.routed_interval
        cp_a.bank.mint("alice", "uatom",
                       self.amount * (routed + per_spoke * len(self.spokes)))
        world.parts["checker"] = dep.conservation_checker()
        begin_traffic(world)

        def send_routed(index: int) -> None:
            dep.send_along("path", "alice", f"routed-{index}", "uatom",
                           self.amount)

        generators = [OpenLoop(sim, routed, self.routed_interval, send_routed)]
        for position, name in enumerate(self.spokes):
            link = dep.link_between(name, "cp-a")
            cp_channel = ChannelId(link.channels["cp-a"])

            def send_spoke(index: int, cp_channel=cp_channel,
                           user=str(dep.user[name])) -> None:
                def submit():
                    payload = cp_a.transfer.make_payload(
                        cp_channel, "uatom", self.amount,
                        sender="alice", receiver=user)
                    return cp_a.ibc.send_packet(
                        PortId("transfer"), cp_channel, payload, 0.0)
                cp_a.submit(submit)

            # Staggered so the spokes do not all hit the same host slot.
            generators.append(OpenLoop(
                sim, per_spoke, window / per_spoke, send_spoke,
                offset=position * window / per_spoke / len(self.spokes)))

        def send_returns(_index: int) -> None:
            # One guest-side SEND_PACKET per spoke: half a transfer's
            # worth of voucher goes home (the guest -> counterparty fee
            # path); the drain below leaves ample time for it to land.
            for name in self.spokes:
                link = dep.link_between(name, "cp-a")
                channel = ChannelId(link.channels[name])
                contract = dep.guests[name].contract
                voucher = f"transfer/{channel}/uatom"
                payload = contract.transfer.make_payload(
                    channel, voucher, self.amount // 2,
                    sender=str(dep.user[name]), receiver=f"{name}-return")
                dep.user_api[name].send_packet(
                    "transfer", str(channel), payload, 0.0)

        generators.append(OpenLoop(sim, 1, 1.0, send_returns,
                                   offset=window + 120.0))
        world.parts.update(generators=generators, routed=routed,
                           per_spoke=per_spoke)
        dep.run_for(window + 120.0 + self.drain_seconds)

    def harvest(self, world: World) -> Outcome:
        dep = world.parts["dep"]
        observer = world.observer
        routed = world.parts["routed"]
        per_spoke = world.parts["per_spoke"]
        spokes = len(self.spokes)
        for generator in world.parts["generators"]:
            require(generator.fired == generator.count,
                    "an open-loop generator did not finish")
        report = world.parts["checker"].check()
        require(report.ok, f"fabric conservation broken: {report.failures[:3]}")

        cp_b = dep.counterparties["cp-b"]
        landed = [index for index in range(routed)
                  if f"routed-{index}" in observer.tag_received]
        # Exactly once: every routed receiver holds exactly one transfer.
        balances = cp_b.bank.balances()
        credited = {address: amount for (address, _), amount in balances.items()
                    if address.startswith("routed-")}
        require(len(credited) == len(landed) and all(
            amount == self.amount for amount in credited.values()),
            "a routed transfer was credited other than exactly once")
        route_chains = set(self.route)
        spoke_deliveries = [
            d for d in observer.deliveries
            if not (d.source in route_chains and d.destination in route_chains)]
        attempted = routed + spokes * per_spoke + spokes
        delivered = len(landed) + len(spoke_deliveries)
        forwards = [dep.guests[name].contract.forward for name in ("g0", "g1")]
        require(sum(f.unwinds for f in forwards) == 0,
                "a routed transfer unwound")
        require(delivered == attempted and observer.undelivered() == 0,
                f"{attempted - delivered} of {attempted} transfers not "
                "delivered exactly once")

        routed_latencies = [
            observer.tag_received[f"routed-{index}"]
            - observer.tag_due[f"routed-{index}"] for index in landed]
        latencies = routed_latencies + [d.latency for d in spoke_deliveries]
        last = max(max(observer.tag_received[f"routed-{i}"] for i in landed),
                   max(d.received_at for d in spoke_deliveries))
        sim, samples = flow_metrics(world, latencies, last)
        samples["routed"] = len(routed_latencies)
        contracts = [g.contract for g in dep.guests.values()]
        counters = {
            "workload.sent": attempted,
            "workload.committed": attempted,
            "workload.delivered": delivered,
            "workload.send_failures": 0,
            "fabric.forwards_started": sum(f.forwards_started for f in forwards),
            "fabric.forwards_settled": sum(f.forwards_settled for f in forwards),
            "fabric.unwinds": sum(f.unwinds for f in forwards),
            "fabric.establish_sim_s_per_link": (world.established_at
                                                / len(dep.links)),
            **ibc_counters(contracts, list(dep.counterparties.values())),
            **relayer_counters(world),
            **trie_counters(world.store),
        }
        return Outcome(
            sim=sim, attempted=attempted, failed=attempted - delivered,
            events_dispatched=(world.sim.dispatched_events()
                               - world.events_before),
            counters=counters, samples=samples,
        )


# ----------------------------------------------------------------------
# chaos_storm
# ----------------------------------------------------------------------

class ChaosStorm(Workload):
    """The acceptance fault storm of ``experiments.chaos`` over an
    open-loop workload (storm run only; the twin is that experiment's)."""

    name = "chaos_storm"
    default_seed = 505
    offered_pps = 8.0
    duration = 600.0

    def build(self, seed: int, tracing: bool) -> World:
        # The storm's last fault ends 245 s after arming; sending never
        # stops before that, so every fault hits live traffic.
        config = ChaosSoakConfig(
            seed=seed, offered_pps=self.offered_pps,
            duration=max(260.0, self.duration * self.scale))
        world = _linked_world(
            seed, tracing,
            guest=GuestConfig(
                delta_seconds=config.delta_seconds,
                epoch_length_host_blocks=config.epoch_length_host_blocks,
                min_stake_lamports=1),
            relayer=RelayerConfig(
                batch_max_packets=config.batch_max_packets,
                batch_flush_seconds=config.batch_flush_seconds),
            validators=config.validators, channels=config.channels,
            with_fisherman=True)
        world.parts["config"] = config
        world.parts["engine"] = WorkloadEngine(
            world.parts["dep"], world.parts["channels"], WorkloadSpec(
                mode="open-constant", offered_pps=config.offered_pps,
                duration=config.duration,
                drain_seconds=config.drain_seconds))
        return world

    def run(self, world: World) -> None:
        dep = world.parts["dep"]
        begin_traffic(world)
        world.parts["injector"] = ChaosInjector(
            dep, storm_plan(world.parts["config"])).arm()
        world.parts["engine"].run()

    def harvest(self, world: World) -> Outcome:
        dep = world.parts["dep"]
        config = world.parts["config"]
        faults = world.parts["injector"].summary()["faults"]
        stuck = [f["kind"] for f in faults if not f["began"]]
        require(not stuck, f"faults never fired: {stuck}")
        unrecovered = [f["kind"] for f in faults
                       if f["recovered_after"] is None
                       or f["recovered_after"] < 0]
        require(not unrecovered, f"faults never recovered: {unrecovered}")
        offender = dep.validator_keypair(config.byzantine_validator).public_key
        require(dep.contract.staking.stake_of(offender) == 0,
                "equivocating validator kept its stake")
        epoch = dep.contract.current_epoch
        require(epoch is not None and not epoch.is_validator(offender),
                "equivocating validator still in the current epoch")
        slashes = dep.contract.accountability_slashes
        require(bool(slashes) and all(
            record["offender_stake"] * 3 >= record["total_stake"]
            for record in slashes),
            "quorum equivocation not attributed to >= 1/3 of the stake")
        recoveries = sorted(f["recovered_after"] for f in faults)
        extra = {
            "chaos.faults_armed": len(faults),
            "chaos.faults_recovered": len(faults) - len(unrecovered),
            "chaos.recovery_p50_s": percentile(recoveries, 0.50),
            "accountability.slashes": len(slashes),
            "fisherman.reports": len(dep.fisherman.accountability_reports),
        }
        return _engine_outcome(world, dep, world.parts["engine"],
                               world.parts["channels"], extra)


# ----------------------------------------------------------------------
# state_horizon
# ----------------------------------------------------------------------

_RECEIPTS = "receipts/ports/transfer/channels/channel-horizon"
_ACKS = "acks/ports/transfer/channels/channel-horizon"
_COMMITMENTS = "commitments/ports/transfer/channels/channel-horizon"


class StateHorizon(Workload):
    """Long-horizon state growth under the rent-aware scheduler.

    The timed section replays packet lifecycles straight against the
    guest's ``ProvableStore`` exactly as ``experiments.state.
    run_state_point`` does (no kernel).  The store is a live
    deployment's, so that afterwards a short probe link can run over
    the aged, mostly sealed store: that is where this workload's
    packet-flow metrics come from, and what shows whether state growth
    reaches latency and fees.
    """

    name = "state_horizon"
    default_seed = 2024
    lifecycles = 25_000
    ack_lag = 32
    seconds_per_packet = 0.5
    rent_budget_bytes = 262_144
    probe_packets = 2_000
    probe_pps = 5.0

    def build(self, seed: int, tracing: bool) -> World:
        world = _linked_world(
            seed, tracing,
            guest=GuestConfig(delta_seconds=120.0, min_stake_lamports=1),
            relayer=RelayerConfig(batch_max_packets=32,
                                  batch_flush_seconds=2.0),
            validators=4, channels=1)
        world.parts.update(
            seed=seed,
            lifecycles=_scaled(self.lifecycles, self.scale, 2_000),
            scheduler=scheduler_from_name(
                "rent-aware", annual_budget_lamports=round(
                    self.rent_budget_bytes * RENT_LAMPORTS_PER_BYTE_YEAR)))
        return world

    def run(self, world: World) -> None:
        """The write phase: 3 sets, 1 delete and 2 seal offers per
        lifecycle, mirroring ``IbcHost``'s op mix."""
        store = world.store
        scheduler = world.parts["scheduler"]
        value = hashlib.sha256(
            b"state-horizon-%d" % world.parts["seed"]).digest()
        rent_per_byte_second = (RENT_LAMPORTS_PER_BYTE_YEAR
                                / (365.25 * 24 * 3600.0))
        rent_paid = 0.0
        for n in range(world.parts["lifecycles"]):
            store.set_seq(_COMMITMENTS, n, value)
            store.set_seq(_RECEIPTS, n, b"\x01")
            store.set_seq(_ACKS, n, value)
            if n >= 1:
                scheduler.offer(_RECEIPTS, n - 1)
            acked = n - self.ack_lag
            if acked >= 0:
                store.delete_seq(_COMMITMENTS, acked)
                scheduler.offer(_ACKS, acked)
            while True:
                due = scheduler.drain(store)
                if not due:
                    break
                for prefix, sequence in due:
                    store.seal_seq(prefix, sequence)
            rent_paid += (store.storage_bytes() * rent_per_byte_second
                          * self.seconds_per_packet)
        world.parts["rent_paid"] = rent_paid

    def read_plan(self, world: World, proofs: int) -> "ReadPlan":
        """Live keys are the newest receipts and acks (offered to the
        scheduler, not yet released); absent keys are deleted
        commitments, evenly spread over the horizon."""
        lifecycles = world.parts["lifecycles"]
        half = proofs // 2
        live = (_live_entries(world.store, _ACKS, lifecycles - 1, half // 2)
                + _live_entries(world.store, _RECEIPTS, lifecycles - 1,
                                half - half // 2))
        deleted = lifecycles - self.ack_lag
        stride = max(1, deleted // half)
        absent = [(_COMMITMENTS, sequence)
                  for sequence in range(0, deleted, stride)][:half]
        return ReadPlan(world.store, live, absent, proofs)

    def harvest(self, world: World) -> Outcome:
        dep = world.parts["dep"]
        scheduler = world.parts["scheduler"]
        lifecycles = world.parts["lifecycles"]
        require(scheduler.offered
                == scheduler.sealed + scheduler.pending_count(),
                "scheduler lost a seal offer")
        store_counters = {
            "state.seals_offered": scheduler.offered,
            "state.seals_drained": scheduler.sealed,
            "state.pending_seals_final": scheduler.pending_count(),
            "state.rent_paid_lamports": world.parts["rent_paid"],
        }
        # The probe link over the aged store (untimed).
        probe = _scaled(self.probe_packets, self.scale, 300)
        engine = WorkloadEngine(dep, world.parts["channels"], WorkloadSpec(
            mode="open-constant", offered_pps=self.probe_pps,
            duration=probe / self.probe_pps, drain_seconds=900.0))
        begin_traffic(world)
        engine.run()
        outcome = _engine_outcome(world, dep, engine,
                                  world.parts["channels"], store_counters)
        # 3 sets and 2 offers per lifecycle, a delete once acks return.
        outcome.attempted += 6 * lifecycles - self.ack_lag - 1
        return outcome


# ----------------------------------------------------------------------
# The read phase every workload ends with
# ----------------------------------------------------------------------

def _live_entries(store, prefix: str, newest: int, limit: int) -> list:
    """The newest readable entries under ``prefix``, scanning down from
    ``newest`` until ``limit`` are found or the sealed region begins."""
    found = []
    for sequence in range(newest, -1, -1):
        try:
            present = store.contains_seq(prefix, sequence)
        except SealedNodeError:
            break
        if present:
            found.append((prefix, sequence, store.get_seq(prefix, sequence)))
            if len(found) >= limit:
                break
    return found


class ReadPlan:
    """Membership proofs on live keys and absence proofs on missing
    ones, each round-tripped through its wire format and verified.

    Proofs are taken from a fresh ``snapshot()`` per pass over the keys,
    the way relayers prove against per-height state views, so the trie's
    per-view proof memo never answers twice for one key.
    """

    def __init__(self, store, live: list, absent: list, proofs: int) -> None:
        require(bool(live) and bool(absent),
                "the guest store has nothing to prove")
        self.store = store
        self.live = live
        self.absent = absent
        self.proofs = proofs
        self.attempted = 0
        self.failed = 0
        self.proof_bytes: list[int] = []

    def run(self) -> None:
        failed = 0
        sizes = []
        while len(sizes) < self.proofs:
            view = self.store.snapshot()
            root = view.root_hash
            for prefix, sequence, value in self.live:
                wire = view.prove_seq(prefix, sequence).to_bytes()
                proof = MembershipProof.from_bytes(wire)
                sizes.append(len(wire))
                if not (proof.key == seq_key(prefix, sequence)
                        and proof.value == value
                        and verify_membership(root, proof)):
                    failed += 1
            for prefix, sequence in self.absent:
                wire = view.prove_seq_absence(prefix, sequence).to_bytes()
                proof = NonMembershipProof.from_bytes(wire)
                sizes.append(len(wire))
                if not (proof.key == seq_key(prefix, sequence)
                        and verify_non_membership(root, proof)):
                    failed += 1
        self.attempted = len(sizes)
        self.failed = failed
        self.proof_bytes = sizes


def chain_read_plan(store, ibc, proofs: int) -> ReadPlan:
    """A read plan over the final IBC store of one chain of a kernel
    workload: per channel, the newest live receipts, acks and
    commitments, and the sequence just past the newest one (never
    written, provably absent)."""
    counters = ibc.counters
    newest = counters.packets_received + counters.packets_sent
    live: list = []
    absent: list = []
    for port, channel in sorted(ibc.channels, key=str):
        for prefix in (paths.receipt_prefix(port, channel),
                       paths.ack_prefix(port, channel),
                       paths.commitment_prefix(port, channel)):
            entries = _live_entries(store, prefix, newest, limit=32)
            if entries:
                live.extend(entries)
                absent.append((prefix, entries[0][1] + 1))
    return ReadPlan(store, live, absent, proofs)


WORKLOADS = {cls.name: cls for cls in
             (LinkSoak, PaperDay, FabricMesh, StateHorizon, ChaosStorm)}
