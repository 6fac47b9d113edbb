"""Topology sweep: host-resource partitioning and multi-hop latency.

Two questions the fabric layer raises that the single-guest evaluation
cannot answer:

1. **Partitioning** — when N independent guests share one host, do
   host compute and fees partition cleanly per guest (no cross-guest
   bleed), and how does each guest's share scale with N?  The sweep
   builds a hub-and-spoke fabric for N ∈ {1, 2, 4, 8}, runs identical
   per-guest transfer workloads, and attributes every lamport of fees
   (via per-guest cohort accounts) and every compute unit (via
   ``GuestContract.compute_consumed``) to its guest.

2. **Multi-hop latency** — how does a routed transfer's end-to-end
   latency decompose per hop?  A 4-chain line (cp-a → g0 → g1 → cp-b)
   carries transfers over the 2-intermediate route; each forwarding
   hop's receive time comes from the guests' ``PacketReceived`` host
   events, the final delivery from the destination counterparty's
   ICS-20 callback.

``python -m repro.experiments topology-sweep`` writes
``BENCH_topology.json``; ``topology-smoke`` is the scaled-down
asserting variant CI runs (guests {1, 2} plus the 2-hop route).  Every
point records ``establish_seconds``; all links open concurrently, so
both variants gate the largest star's on staying within
``ESTABLISH_GROWTH_CEILING`` of the smallest's.  The smoke also builds
the route with its links listed in route order and with the
guest↔guest link last (the ``fabric-order`` case): g1 hosts two links
shaking hands at once, and each relayer must pick out the handshake
steps of its own datagrams.  Schema notes live in docs/FABRIC.md.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

from repro.fabric import TopologyConfig, build_fabric
from repro.ibc.identifiers import ChannelId

SCHEMA = "topology-sweep/v1"
#: The largest star may take this many times the smallest star's
#: ``establish_seconds`` (serial establishment made it 7.7 x at 8 guests).
ESTABLISH_GROWTH_CEILING = 1.5
#: Tokens moved by each transfer of the sweep.
TRANSFER_AMOUNT = 1_000
#: Simulated budget for one routed transfer to land end to end.
MULTIHOP_SETTLE_SECONDS = 1_200.0


@dataclass
class TopologySweepConfig:
    """Scale knobs for the sweep (the smoke variant shrinks them all)."""

    seed: int = 2024
    guest_counts: tuple[int, ...] = (1, 2, 4, 8)
    #: Counterparty → guest transfers per guest, plus one return
    #: transfer per guest (exercising both fee paths).
    transfers_per_guest: int = 8
    #: Simulated drain budget per sweep point after the last send.
    settle_seconds: float = 2_400.0
    multihop: bool = True
    multihop_transfers: int = 4


# ----------------------------------------------------------------------
# Part 1: the star sweep (fee/compute partitioning)
# ----------------------------------------------------------------------

def _cohort_lamports(dep, name: str) -> int:
    return sum(dep.host.accounts.balance(address)
               for address in dep.cohort_addresses(name))


def run_star_point(num_guests: int, config: TopologySweepConfig) -> dict:
    """One sweep point: N guests on one host, identical workloads."""
    dep = build_fabric(TopologyConfig.star(num_guests,
                                           seed=config.seed + num_guests))
    cp = dep.counterparties["picasso-1"]
    cp.bank.mint("sweep-sender", "uatom",
                 10 * num_guests * config.transfers_per_guest
                 * TRANSFER_AMOUNT)
    checker = dep.conservation_checker()
    established_at = dep.sim.now

    fees_before = {name: _cohort_lamports(dep, name) for name in dep.guests}
    compute_before = {name: g.contract.compute_consumed
                      for name, g in dep.guests.items()}

    voucher: dict[str, str] = {}
    for name in dep.guests:
        link = dep.link_between(name, "picasso-1")
        cp_channel = ChannelId(link.channels["picasso-1"])
        voucher[name] = f"transfer/{link.channels[name]}/uatom"
        for _ in range(config.transfers_per_guest):
            cp.submit(partial(cp.send_transfer, cp_channel, "uatom",
                              TRANSFER_AMOUNT, "sweep-sender",
                              str(dep.user[name])))

    def all_arrived() -> bool:
        return all(
            g.contract.bank.balance(str(dep.user[name]), voucher[name])
            >= config.transfers_per_guest * TRANSFER_AMOUNT
            for name, g in dep.guests.items()
        )

    deadline = dep.sim.now + config.settle_seconds
    while not all_arrived() and dep.sim.now < deadline:
        dep.run_for(30.0)
    delivered = {
        name: g.contract.bank.balance(str(dep.user[name]), voucher[name])
        // TRANSFER_AMOUNT
        for name, g in dep.guests.items()
    }

    # One return transfer per guest: user sends half a transfer's worth
    # of voucher back, exercising the guest-side SEND_PACKET fee path.
    returned = TRANSFER_AMOUNT // 2
    for name, g in dep.guests.items():
        link = dep.link_between(name, "picasso-1")
        channel = ChannelId(link.channels[name])
        payload = g.contract.transfer.make_payload(
            channel, voucher[name], returned,
            sender=str(dep.user[name]), receiver=f"{name}-return",
        )
        dep.user_api[name].send_packet("transfer", str(channel), payload, 0.0)

    def all_returned() -> bool:
        return all(
            cp.bank.balance(f"{name}-return", "uatom") >= returned
            for name in dep.guests
        )

    deadline = dep.sim.now + config.settle_seconds
    while not all_returned() and dep.sim.now < deadline:
        dep.run_for(30.0)
    dep.run_for(60.0)  # let trailing acks seal

    fees = {name: fees_before[name] - _cohort_lamports(dep, name)
            for name in dep.guests}
    compute = {name: g.contract.compute_consumed - compute_before[name]
               for name, g in dep.guests.items()}
    total_fees = sum(fees.values()) or 1
    total_compute = sum(compute.values()) or 1
    report = checker.check()
    return {
        "guests": num_guests,
        "establish_seconds": established_at,
        "traffic_seconds": dep.sim.now - established_at,
        "delivered": delivered,
        "returned": {
            name: cp.bank.balance(f"{name}-return", "uatom")
            for name in dep.guests
        },
        "expected_per_guest": config.transfers_per_guest,
        "expected_return": returned,
        "fees_lamports": fees,
        "fee_share": {name: fee / total_fees for name, fee in fees.items()},
        "compute_units": compute,
        "compute_share": {name: units / total_compute
                          for name, units in compute.items()},
        "conservation_ok": report.ok,
        "conservation_failures": report.failures,
    }


# ----------------------------------------------------------------------
# Part 2: multi-hop latency decomposition
# ----------------------------------------------------------------------

def run_multihop(config: TopologySweepConfig) -> dict:
    """Route transfers cp-a → g0 → g1 → cp-b; time every hop."""
    dep = build_fabric(TopologyConfig.chain_of(
        ("cp-a", "g0", "g1", "cp-b"), seed=config.seed))
    cp_a = dep.counterparties["cp-a"]
    cp_b = dep.counterparties["cp-b"]
    cp_a.bank.mint("alice", "uatom",
                   10 * config.multihop_transfers * TRANSFER_AMOUNT)
    checker = dep.conservation_checker()

    # Hop receive times.  Guests announce deliveries as PacketReceived
    # host events; the destination counterparty has no host presence, so
    # time its ICS-20 callback directly.
    recv_times: dict[str, list[float]] = {"g0": [], "g1": [], "cp-b": []}

    def on_guest_recv(event) -> None:
        name = event.payload.get("guest")
        if name in recv_times and event.payload.get("ack_success"):
            recv_times[name].append(event.time)

    dep.host.subscribe("PacketReceived", on_guest_recv)
    inner_recv = cp_b.transfer.on_recv

    def timed_recv(packet):
        ack = inner_recv(packet)
        if ack.success:
            recv_times["cp-b"].append(dep.sim.now)
        return ack

    cp_b.transfer.on_recv = timed_recv

    transfers = []
    for index in range(config.multihop_transfers):
        sent_at = dep.sim.now
        marks = {name: len(times) for name, times in recv_times.items()}
        dep.send_along("path", "alice", "bob", "uatom",
                       TRANSFER_AMOUNT)
        deadline = dep.sim.now + MULTIHOP_SETTLE_SECONDS
        while (len(recv_times["cp-b"]) == marks["cp-b"]
               and dep.sim.now < deadline):
            dep.run_for(10.0)
        stages = {}
        previous = sent_at
        for name in ("g0", "g1", "cp-b"):
            fresh = recv_times[name][marks[name]:]
            if not fresh:
                stages = None
                break
            stages[name] = fresh[0] - previous
            previous = fresh[0]
        transfers.append({
            "index": index,
            "sent_at": sent_at,
            "delivered": stages is not None,
            "per_hop_seconds": stages,
            "total_seconds": (previous - sent_at) if stages else None,
        })
        dep.run_for(30.0)  # space sends out; let acks unwind back

    dep.run_for(120.0)
    delivered = sum(1 for t in transfers if t["delivered"])
    report = checker.check()
    g0 = dep.guests["g0"].contract
    g1 = dep.guests["g1"].contract
    return {
        "route": ["cp-a", "g0", "g1", "cp-b"],
        "hops": 3,
        "transfers": transfers,
        "delivered": delivered,
        "expected": config.multihop_transfers,
        "received_amount": sum(
            amount for (address, _), amount in cp_b.bank.balances().items()
            if address == "bob"
        ),
        "forward_counters": {
            "g0": {"started": g0.forward.forwards_started,
                   "settled": g0.forward.forwards_settled,
                   "unwinds": g0.forward.unwinds},
            "g1": {"started": g1.forward.forwards_started,
                   "settled": g1.forward.forwards_settled,
                   "unwinds": g1.forward.unwinds},
        },
        "conservation_ok": report.ok,
        "conservation_failures": report.failures,
    }


def run_link_orders(config: TopologySweepConfig) -> list[dict]:
    """The ``fabric-order`` case: the 2-hop route at ``TopologyConfig``'s
    default seed, once per link order, one routed transfer each."""
    base = TopologyConfig.chain_of(("cp-a", "g0", "g1", "cp-b"))
    first, sibling, last = base.links
    cases = []
    for order, links in (("route-order", (first, sibling, last)),
                         ("sibling-last", (first, last, sibling))):
        dep = build_fabric(replace(base, links=links))
        dep.counterparties["cp-a"].bank.mint(
            "alice", "uatom", TRANSFER_AMOUNT)
        dep.send_along("path", "alice", "bob", "uatom", TRANSFER_AMOUNT)
        dep.run_for(MULTIHOP_SETTLE_SECONDS)
        cases.append({
            "order": order,
            "links": [[link.a, link.b] for link in links],
            "establish_seconds": max(
                link.established_at for link in dep.links),
            "received_amount": sum(
                amount for (address, _), amount
                in dep.counterparties["cp-b"].bank.balances().items()
                if address == "bob"),
        })
    return cases


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def run_topology_sweep(config: TopologySweepConfig | None = None) -> dict:
    config = config or TopologySweepConfig()
    record = {
        "schema": SCHEMA,
        "seed": config.seed,
        "guest_counts": list(config.guest_counts),
        "transfers_per_guest": config.transfers_per_guest,
        "points": [run_star_point(n, config) for n in config.guest_counts],
    }
    if config.multihop:
        record["multihop"] = run_multihop(config)
    return record


def run_topology_smoke(seed: int = 2024) -> dict:
    """The CI-scale sweep: guests {1, 2}, the 2-hop route, and that
    route built in either link order."""
    config = TopologySweepConfig(
        seed=seed, guest_counts=(1, 2), transfers_per_guest=4,
        settle_seconds=1_200.0, multihop_transfers=2,
    )
    record = run_topology_sweep(config)
    record["link_orders"] = run_link_orders(config)
    return record


def check_topology(record: dict) -> list[str]:
    """Assertions both the smoke job and the full sweep must satisfy."""
    failures: list[str] = []
    if record.get("schema") != SCHEMA:
        failures.append(f"schema is {record.get('schema')!r}, want {SCHEMA!r}")
    for point in record.get("points", ()):
        n = point["guests"]
        for name, count in point["delivered"].items():
            if count < point["expected_per_guest"]:
                failures.append(
                    f"N={n}: {name} delivered {count}/"
                    f"{point['expected_per_guest']} transfers")
        for name, amount in point["returned"].items():
            if amount < point["expected_return"]:
                failures.append(
                    f"N={n}: {name} return transfer landed {amount}/"
                    f"{point['expected_return']}")
        if not point["conservation_ok"]:
            failures.append(
                f"N={n}: conservation violated: "
                f"{point['conservation_failures'][:3]}")
        share_sum = sum(point["fee_share"].values())
        if point["fee_share"] and abs(share_sum - 1.0) > 1e-9:
            failures.append(f"N={n}: fee shares sum to {share_sum}")
        for name, share in point["fee_share"].items():
            if share <= 0.0:
                failures.append(f"N={n}: {name} burnt no fees ({share})")
        for name, units in point["compute_units"].items():
            if units <= 0:
                failures.append(f"N={n}: {name} consumed no compute")
    points = record.get("points") or ()
    if points:
        # Links open concurrently: a star is linked up when its slowest
        # link is, however many guests it has.
        smallest = min(points, key=lambda point: point["guests"])
        largest = max(points, key=lambda point: point["guests"])
        if (largest["establish_seconds"]
                > ESTABLISH_GROWTH_CEILING * smallest["establish_seconds"]):
            failures.append(
                f"N={largest['guests']}: established in "
                f"{largest['establish_seconds']:.0f} s, over "
                f"{ESTABLISH_GROWTH_CEILING} x the "
                f"{smallest['establish_seconds']:.0f} s of "
                f"N={smallest['guests']}")
    multihop = record.get("multihop")
    if multihop is not None:
        if multihop["delivered"] < multihop["expected"]:
            failures.append(
                f"multihop: {multihop['delivered']}/{multihop['expected']} "
                "routed transfers landed")
        for transfer in multihop["transfers"]:
            if not transfer["delivered"]:
                continue
            for hop, seconds in transfer["per_hop_seconds"].items():
                if seconds <= 0.0:
                    failures.append(
                        f"multihop transfer {transfer['index']}: hop {hop} "
                        f"latency {seconds} not positive")
        if not multihop["conservation_ok"]:
            failures.append(
                f"multihop: conservation violated: "
                f"{multihop['conservation_failures'][:3]}")
    for case in record.get("link_orders", ()):
        if case["received_amount"] <= 0:
            failures.append(
                f"fabric-order: links in {case['order']} carried no "
                "routed transfer")
    return failures


def render_topology(record: dict) -> str:
    """Human-readable summary block for the CLI."""
    lines = ["topology sweep (host partitioning across N guests)",
             f"  {'N':>2}  {'guest':<10} {'fee share':>10} "
             f"{'compute share':>14} {'delivered':>10}"]
    for point in record["points"]:
        for name in sorted(point["fee_share"]):
            lines.append(
                f"  {point['guests']:>2}  {name:<10} "
                f"{point['fee_share'][name]:>10.3f} "
                f"{point['compute_share'][name]:>14.3f} "
                f"{point['delivered'][name]:>10}")
    lines.append("  all links open after " + ", ".join(
        f"{point['establish_seconds']:.0f} s (N={point['guests']})"
        for point in record["points"]))
    multihop = record.get("multihop")
    if multihop is not None:
        lines.append("")
        lines.append(f"multi-hop route {' -> '.join(multihop['route'])}: "
                     f"{multihop['delivered']}/{multihop['expected']} landed")
        for transfer in multihop["transfers"]:
            if transfer["delivered"]:
                hops = ", ".join(f"{hop} {seconds:.1f}s" for hop, seconds
                                 in transfer["per_hop_seconds"].items())
                lines.append(f"  transfer {transfer['index']}: "
                             f"{transfer['total_seconds']:.1f}s ({hops})")
            else:
                lines.append(f"  transfer {transfer['index']}: NOT DELIVERED")
    for case in record.get("link_orders", ()):
        lines.append(f"fabric-order {case['order']}: established in "
                     f"{case['establish_seconds']:.0f} s, "
                     f"{case['received_amount']} uatom landed")
    return "\n".join(lines)
