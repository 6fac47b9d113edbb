"""Host portability: the same guest blockchain on three host designs.

§VI-D argues the guest blockchain applies to "most modern blockchains,
provided they offer basic smart contract functionality".  This example
deploys the *identical* Guest Contract on three differently-shaped
hosts — Solana-like (tiny transactions, sub-second slots), NEAR-like
(roomy transactions, ~1 s blocks) and TRON-like (3 s blocks) — opens a
link on each, makes a transfer, and compares how the host's envelope
shapes the measured quantities (especially the chunked light-client
update counts of Fig. 4).

Run:  python examples/host_portability.py
"""

from repro import Deployment, DeploymentConfig
from repro.guest.config import GuestConfig
from repro.host.profiles import HOST_PROFILES
from repro.metrics.table import format_table
from repro.validators.profiles import simple_profiles


def run_on(profile_name: str) -> dict:
    host_config = HOST_PROFILES[profile_name]()
    deployment = Deployment(DeploymentConfig(
        seed=5,
        guest=GuestConfig(delta_seconds=120.0, min_stake_lamports=1),
        host=host_config,
        profiles=simple_profiles(4),
    ))
    guest_chan, cp_chan = deployment.establish_link()
    link_time = deployment.sim.now

    deployment.contract.bank.mint("alice", "GUEST", 100)
    payload = deployment.contract.transfer.make_payload(
        guest_chan, "GUEST", 75, "alice", "bob",
    )
    deployment.user_api.send_packet("transfer", str(guest_chan), payload)
    deployment.run_for(300.0)

    voucher = deployment.counterparty.transfer.voucher_denom(cp_chan, "GUEST")
    updates = deployment.relayer.metrics.lc_updates
    return {
        "host": profile_name,
        "slot (s)": f"{host_config.slot_seconds:g}",
        "tx cap (B)": str(host_config.max_transaction_bytes),
        "link time (s)": f"{link_time:.0f}",
        "txs / LC update": f"{sum(u.transaction_count for u in updates) / len(updates):.1f}",
        "transfer ok": str(deployment.counterparty.bank.balance("bob", voucher) == 75),
    }


def main() -> None:
    print("Deploying the identical Guest Contract on three host designs...\n")
    rows = [run_on(name) for name in ("solana", "near-like", "tron-like")]
    headers = list(rows[0].keys())
    print(format_table(headers, [[row[h] for h in headers] for row in rows],
                       title="SVI-D - one guest blockchain, three hosts"))
    print(
        "\nReading the table: the Fig. 4 transaction counts are purely a\n"
        "consequence of the host's transaction-size cap — a NEAR-sized\n"
        "envelope swallows a whole light-client update in a couple of\n"
        "transactions, while Solana's 1232-byte cap forces ~36.  The\n"
        "protocol itself is untouched across all three deployments."
    )


if __name__ == "__main__":
    main()
