"""End-to-end run under real RFC 8032 Ed25519.

The large simulations use the fast SimSig scheme (DESIGN.md §2); this
test validates that nothing in the protocol depends on SimSig's quirks
by running a complete link-establishment and transfer with the genuine
curve arithmetic.  Scaled down (4 guest validators, 12 counterparty
validators) because pure-Python Ed25519 costs milliseconds per
signature.
"""

import pytest

from repro.counterparty.chain import CounterpartyConfig
from repro.crypto.ed25519 import Ed25519Scheme
from repro.deployment import Deployment, DeploymentConfig
from repro.guest.config import GuestConfig
from repro.validators.profiles import simple_profiles


@pytest.fixture(scope="module")
def real_deployment():
    return Deployment(DeploymentConfig(
        seed=88,
        guest=GuestConfig(delta_seconds=120.0, min_stake_lamports=1),
        counterparty=CounterpartyConfig(validator_count=12),
        profiles=simple_profiles(4),
        scheme_factory=Ed25519Scheme,
    ))


class TestRealEd25519EndToEnd:
    def test_scheme_is_real(self, real_deployment):
        assert isinstance(real_deployment.scheme, Ed25519Scheme)

    def test_link_establishes(self, real_deployment):
        guest_chan, cp_chan = real_deployment.establish_link(max_seconds=3_600.0)
        assert str(guest_chan) == "channel-0"
        # The chunked updates verified real curve signatures.  (With a
        # 12-validator counterparty an individual update can transiently
        # miss the 2/3-power threshold and be retried by the relayer —
        # what matters is that verified updates carried the handshake.)
        updates = real_deployment.relayer.metrics.lc_updates
        successes = [u for u in updates if u.success]
        assert successes
        assert sum(u.signature_count for u in successes) > 10

    def test_transfer_round_trip(self, real_deployment):
        dep = real_deployment
        (_, guest_chan), = dep.relayer.a.channels
        (_, cp_chan), = dep.relayer.b.channels
        dep.contract.bank.mint("alice", "GUEST", 100)
        payload = dep.contract.transfer.make_payload(guest_chan, "GUEST", 40, "alice", "bob")
        dep.user_api.send_packet("transfer", str(guest_chan), payload)
        dep.run_for(240.0)
        voucher = dep.counterparty.transfer.voucher_denom(cp_chan, "GUEST")
        assert dep.counterparty.bank.balance("bob", voucher) == 40
        assert dep.contract.ibc.counters.packets_acknowledged == 1

    def test_forged_signature_rejected_on_chain(self, real_deployment):
        """A signature over the right message by the wrong key must fail
        the host's precompile under the real scheme too."""
        dep = real_deployment
        from repro.guest import instructions as ins
        from repro.host.fees import BaseFee
        from repro.host.transaction import Instruction, SigVerify, Transaction

        forger = dep.scheme.keypair_from_seed(bytes([77]) * 32)
        victim = dep.validators[0].keypair
        head = dep.contract.head
        message = head.header.sign_message()
        forged = forger.sign(message)

        results = []
        tx = Transaction(
            payer=dep.user,
            instructions=(Instruction(
                dep.contract.program_id,
                (dep.contract.state_account,),
                ins.sign_block(head.height, victim.public_key, forged),
            ),),
            fee_strategy=BaseFee(),
            sig_verifies=(SigVerify(victim.public_key, message, forged),),
        )
        dep.host.submit(tx, on_result=results.append)
        dep.run_for(30.0)
        assert results and not results[0].success
        assert "signature verification failed" in results[0].error
