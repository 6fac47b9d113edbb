"""Packet timeouts: proving that a packet was *never* delivered.

IBC's timeout path is why the guest needs Δ (§III-A): the counterparty
must observe fresh guest timestamps to decide that a packet's deadline
passed, and vice versa.  This example sends a transfer with a deadline
that expires before delivery, shows the receiving side rejecting the
late packet and the relayer cancelling it on the sender with a
*non-membership proof* of the receipt — refunding the escrowed tokens —
and checks that proof the way the guest did.

Run:  python examples/packet_timeouts.py
"""

from repro import Deployment, DeploymentConfig
from repro.guest.config import GuestConfig
from repro.ibc import commitment as paths
from repro.trie.store import seq_key
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

    # What the relayer hands the guest to cancel a packet: the packet,
    # the proof of its receipt's absence and the counterparty height it
    # is proven at.  (The chains keep only what their relayer can still
    # reach, so it is read here, as it lands.)
    proven = []
    timeout_packet = contract.ibc.timeout_packet

    def watched_timeout(packet, proof, proof_height):
        timeout_packet(packet, proof, proof_height)
        proven.append((packet, proof, proof_height))

    contract.ibc.timeout_packet = watched_timeout
    contract.bank.mint("alice", "GUEST", 500)
    deadline = deployment.sim.now + 5.0  # expires long before relay
    print(f"alice sends 200 GUEST with a deadline {deadline - deployment.sim.now:.0f} s away "
          "(far less than one relay round trip)...")
    payload = contract.transfer.make_payload(guest_channel, "GUEST", 200, "alice", "bob")
    deployment.user_api.send_packet(
        "transfer", str(guest_channel), payload, timeout_timestamp=deadline,
    )
    deployment.run_for(120.0)

    relayer = deployment.relayer
    print(f"  counterparty received packets: "
          f"{counterparty.ibc.counters.packets_received} "
          "(the relayer's delivery was rejected as expired)")
    print(f"  the relayer cancelled it itself: "
          f"{relayer.metrics.timeouts_cancelled} timeout, "
          f"guest timed_out={contract.ibc.counters.packets_timed_out}")
    print(f"  alice refunded: {contract.bank.balance('alice', 'GUEST')} GUEST")

    # What the relayer proved: the counterparty's first block past the
    # deadline holds no receipt.  The guest checked that against a
    # counterparty consensus state it had *verified* — its timestamp past
    # the deadline — which is why Δ-style header freshness matters
    # (§III-A): the relayer brought the guest's light client there first.
    (packet, absence, height), = proven
    client = contract.counterparty_client
    key = seq_key(paths.receipt_prefix(packet.destination_port,
                                       packet.destination_channel),
                  packet.sequence)
    print(f"\nThe guest's client verifies counterparty height {height} "
          f"(time {client.consensus_timestamp(height):.0f} s, deadline "
          f"{deadline:.0f} s); a {len(absence.to_bytes())}-byte non-membership "
          f"proof of the receipt there checks out: "
          f"{client.verify_key_absence(height, key, absence)}")
    assert contract.bank.balance("alice", "GUEST") == 500
    assert contract.ibc.counters.packets_timed_out == 1
    print("Done.")


if __name__ == "__main__":
    main()
