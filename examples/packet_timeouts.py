"""Packet timeouts: proving that a packet was *never* delivered.

IBC's timeout path is why the guest needs Δ (§III-A): the counterparty
must observe fresh guest timestamps to decide that a packet's deadline
passed, and vice versa.  This example sends a transfer with a deadline
that expires before delivery, shows the receiving side rejecting the
late packet, and then cancels it on the sender with a *non-membership
proof* of the receipt — refunding the escrowed tokens.

Run:  python examples/packet_timeouts.py
"""

from repro import Deployment, DeploymentConfig
from repro.guest.config import GuestConfig
from repro.ibc import commitment as paths
from repro.relayer.updates import LC_UPDATE_PLANS
from repro.validators.profiles import simple_profiles


def main() -> None:
    deployment = Deployment(DeploymentConfig(
        seed=17,
        guest=GuestConfig(delta_seconds=60.0, min_stake_lamports=1),
        profiles=simple_profiles(4),
    ))
    guest_channel, cp_channel = deployment.establish_link()
    contract = deployment.contract
    counterparty = deployment.counterparty

    contract.bank.mint("alice", "GUEST", 500)
    deadline = deployment.sim.now + 5.0  # expires long before relay
    print(f"alice sends 200 GUEST with a deadline {deadline - deployment.sim.now:.0f} s away "
          "(far less than one relay round trip)...")
    payload = contract.transfer.make_payload(guest_channel, "GUEST", 200, "alice", "bob")
    deployment.user_api.send_packet(
        "transfer", str(guest_channel), payload, timeout_timestamp=deadline,
    )
    deployment.run_for(120.0)

    print(f"  alice balance while the packet is in flight: "
          f"{contract.bank.balance('alice', 'GUEST')} GUEST (200 escrowed)")
    print(f"  counterparty received packets: "
          f"{counterparty.ibc.counters.packets_received} "
          "(the relayer's delivery was rejected as expired)")

    # The sender cancels: it needs (1) a counterparty consensus state
    # whose timestamp is past the deadline — the guest's light client
    # already tracks those — and (2) a proof that no receipt exists.
    packet = contract.packets_in_block(1)[0] if contract.packets_in_block(1) else None
    if packet is None:
        for height in range(1, contract.head.height + 1):
            if contract.packets_in_block(height):
                packet = contract.packets_in_block(height)[0]
                break
    assert packet is not None

    # The guest can only time the packet out against a counterparty
    # timestamp it has *verified* — this is exactly why Δ-style header
    # freshness matters (§III-A).  Push one chunked light-client update
    # carrying a header whose time is past the deadline.
    stale_height = contract.counterparty_client.latest_height()
    stale_time = contract.counterparty_client.consensus_timestamp(stale_height)
    print(f"\nGuest's verified counterparty time is stale: {stale_time:.0f} s "
          f"(deadline {deadline:.0f} s) — relaying a fresh header...")
    done = []
    for _attempt in range(3):
        # About one commit in a hundred carries under 2/3 of the voting
        # power: the client refuses it and a relayer ships a later one.
        deployment.relayer_api.submit_lc_update(
            counterparty.light_client_update(),
            window=LC_UPDATE_PLANS["quorum"].window,
            on_done=done.append,
        )
        deployment.run_for(120.0)
        if done[-1].success:
            break
    assert done[-1].success

    lc_height = contract.counterparty_client.latest_height()
    lc_time = contract.counterparty_client.consensus_timestamp(lc_height)
    print(f"  verified counterparty time now {lc_time:.0f} s at height {lc_height} "
          f"({done[-1].transaction_count} chunk transactions)")

    store = counterparty.store_at(lc_height)
    absence = store.prove_seq_absence(
        paths.receipt_prefix(packet.destination_port, packet.destination_channel),
        packet.sequence,
    )
    print("Submitting the timeout with the non-membership proof "
          f"({len(absence.to_bytes())} bytes, chunked over host transactions)...")
    outcome = []
    deployment.relayer_api.timeout_packet(
        packet, absence, lc_height, on_done=outcome.append,
    )
    deployment.run_for(60.0)

    result = outcome[-1]
    print(f"  timeout executed: success={result.success} "
          f"({result.transaction_count} transactions in one bundle)")
    print(f"  alice refunded: {contract.bank.balance('alice', 'GUEST')} GUEST")
    print(f"  guest counters: timed_out={contract.ibc.counters.packets_timed_out}")
    assert contract.bank.balance("alice", "GUEST") == 500
    print("Done.")


if __name__ == "__main__":
    main()
