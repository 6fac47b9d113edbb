"""Relayer operations: costs, outages and fee escalation.

The operator's view of running a relayer (§V-B):

1. drive traffic and read the spend ledger — where the lamports go
   (spoiler: the chunked light-client updates dominate, as the paper's
   cost analysis shows);
2. crash the relayer mid-traffic and restart it: it keeps nothing the
   chains do not, so packets are delayed, never lost (§III-C's
   untrusted-relayer property);
3. use the escalating fee policy on a congested chain: start cheap,
   pay up only when a transaction has actually waited.

Run:  python examples/relayer_operations.py
"""

from repro import Deployment, DeploymentConfig
from repro.guest.config import GuestConfig
from repro.relayer.strategy import EscalatingFeePolicy
from repro.units import lamports_to_usd
from repro.validators.profiles import simple_profiles


def main() -> None:
    deployment = Deployment(DeploymentConfig(
        seed=77,
        guest=GuestConfig(delta_seconds=120.0, min_stake_lamports=1),
        profiles=simple_profiles(4),
    ))
    guest_chan, cp_chan = deployment.establish_link()
    relayer = deployment.relayer
    print(f"Link open; the handshake alone cost the relayer "
          f"{relayer.ledger.total_usd():.4f} USD\n")

    # --- 1. traffic and the spend ledger -------------------------------------
    print("Relaying five transfers each way...")
    deployment.contract.bank.mint("alice", "GUEST", 10 ** 6)
    deployment.counterparty.bank.mint("carol", "PICA", 10 ** 6)
    for _ in range(5):
        payload = deployment.contract.transfer.make_payload(
            guest_chan, "GUEST", 10, "alice", "bob",
        )
        deployment.user_api.send_packet("transfer", str(guest_chan), payload)

        def send() -> None:
            data = deployment.counterparty.transfer.make_payload(
                cp_chan, "PICA", 10, "carol", "dave",
            )
            deployment.counterparty.ibc.send_packet(
                deployment.counterparty.transfer_port, cp_chan, data, 0.0,
            )
        deployment.counterparty.submit(send)
        deployment.run_for(200.0)
    deployment.run_for(200.0)

    print("\n" + relayer.ledger.summary())
    updates = relayer.metrics.lc_updates
    print(f"  ({len(updates)} chunked light-client updates, "
          f"{sum(u.transaction_count for u in updates)} transactions, "
          f"{sum(u.signature_count for u in updates)} signatures verified)")

    # --- 2. outage and recovery ----------------------------------------------
    print("\nCrashing the relayer and sending a transfer anyway...")
    relayer.crash()
    payload = deployment.contract.transfer.make_payload(
        guest_chan, "GUEST", 77, "alice", "bob",
    )
    deployment.user_api.send_packet("transfer", str(guest_chan), payload)
    deployment.run_for(240.0)
    voucher = deployment.counterparty.transfer.voucher_denom(cp_chan, "GUEST")
    stuck = deployment.counterparty.bank.balance("bob", voucher)
    print(f"  bob's balance while the relayer is down: {stuck} "
          "(the packet waits, finalised on the guest)")

    relayer.restart()   # re-reads what the chains still owe
    deployment.run_for(240.0)
    print(f"  after the restart: {deployment.counterparty.bank.balance('bob', voucher)} "
          "(delayed, not lost)")

    # --- 3. escalating fees ----------------------------------------------------
    print("\nFee escalation policy on a congested chain:")
    policy = EscalatingFeePolicy(escalate_after=8.0)
    for waited in (0.0, 5.0, 9.0, 20.0, 60.0):
        strategy = policy.strategy_for(waited)
        cost = strategy.fee(1, 0, 1_400_000)
        print(f"  waited {waited:5.1f} s -> {type(strategy).__name__:<12} "
              f"({lamports_to_usd(cost):.4f} USD per transaction)")
    print("\nDone.")


if __name__ == "__main__":
    main()
