"""The validator actor (Alg. 2, upper half).

Listens for ``NewBlock`` events, signs the block's sign-message after its
profile-drawn latency, and submits the signature through a Sign
transaction paying the profile's fixed fee — exactly the behaviour
Table I characterises.  Economic realism: a validator checks whether the
block already reached quorum before paying for a signature, and skips it
if so (which is why Table I's signature counts differ so widely).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from repro.crypto.keys import Keypair
from repro.errors import HostUnavailableError
from repro.guest.api import GuestApi
from repro.guest.contract import GuestContract
from repro.host.chain import HostChain
from repro.host.events import HostEvent
from repro.host.fees import BaseFee, FeeStrategy, PriorityFee
from repro.host.transaction import TxReceipt
from repro.sim.kernel import Simulation
from repro.validators.profiles import SIGN_TX_COMPUTE_BUDGET, ValidatorProfile


@dataclass
class SignRecord:
    """One submitted signature, for the Table I statistics."""

    height: int
    #: Seconds between block generation and our signature landing.
    latency: float
    fee_paid: int
    success: bool


@dataclass
class ValidatorNode:
    """One validator: keypair, behaviour profile, metrics."""

    sim: Simulation
    chain: HostChain
    contract: GuestContract
    api: GuestApi
    keypair: Keypair
    profile: ValidatorProfile
    run_duration: float
    records: list[SignRecord] = field(default_factory=list)

    #: Period of the catch-up sweep over unfinalised blocks.
    sweep_seconds: float = 45.0

    def __post_init__(self) -> None:
        self._rng = self.sim.rng.fork(f"validator-{self.profile.index}")
        #: Heights whose SIGN_BLOCK is submitted and has no receipt yet.
        #: ``block.signers`` only shows a signature once it executed, so
        #: without this the sweep and the NewBlock path would each pay
        #: for one and the second would fail ``already signed``.
        self._signing: set[int] = set()
        self.join_time = self.profile.join_fraction * self.run_duration
        self._outages = [
            (start_frac * self.run_duration,
             start_frac * self.run_duration + duration)
            for start_frac, duration in self.profile.outages
        ]
        self.chain.subscribe("NewBlock", self._on_new_block)
        if not self.profile.silent:
            self.sim.schedule(self.sweep_seconds * self._rng.uniform(0.5, 1.5),
                              self._sweep)

    # ------------------------------------------------------------------
    # Behaviour
    # ------------------------------------------------------------------

    def fee_strategy(self) -> FeeStrategy:
        price = self.profile.compute_unit_price()
        if price == 0:
            return BaseFee()
        return PriorityFee(compute_unit_price=price)

    def _outage_end_after(self, time: float) -> Optional[float]:
        for start, end in self._outages:
            if start <= time < end:
                return end
        return None

    def _on_new_block(self, event: HostEvent) -> None:
        if event.payload.get("guest", self.contract.chain_id) \
                != self.contract.chain_id:
            return  # a sibling guest's block (multi-guest fabric)
        if self.profile.silent:
            return
        if self.sim.now < self.join_time:
            return
        if not self._rng.bernoulli(self.profile.online_probability):
            return
        height = event.payload["height"]
        delay = self._rng.lognormal_quantiles(
            self.profile.latency_median, self.profile.latency_q3,
        )
        outage_end = self._outage_end_after(self.sim.now)
        if outage_end is not None:
            # Operator error (§V-C): the node is down; it signs whatever
            # it missed once it comes back.
            delay += outage_end - self.sim.now
        self.sim.schedule(delay, self._sign, height)

    def _sweep(self) -> None:
        """Catch-up pass: sign the head if it is stuck unfinalised.

        A validator that was offline (or whose NewBlock notification was
        lost) would otherwise never contribute; this sweep is what ends
        the §V-C stall once the operator error is fixed, and it is where
        the long straggler latencies of Fig. 2 / Table I come from.
        """
        self.sim.schedule(self.sweep_seconds * self._rng.uniform(0.8, 1.2), self._sweep)
        if self.sim.now < self.join_time or self._outage_end_after(self.sim.now) is not None:
            return
        if not self.contract.initialized:
            return
        head = self.contract.head
        if head.finalised or self.keypair.public_key in head.signers:
            return
        self._sign(head.height)

    def _sign(self, height: int) -> None:
        if height in self._signing:
            return
        try:
            block = self.contract.block_at(height)
        except Exception:
            return
        epoch = self.contract.epochs.get(block.header.epoch_id)
        if epoch is None or not epoch.is_validator(self.keypair.public_key):
            return  # not in this block's validator set
        if self.keypair.public_key in block.signers:
            return
        if block.finalised:
            return  # quorum already reached; save the fee
        message = block.header.sign_message()
        self._signing.add(height)
        try:
            self.api.sign_block(
                height, self.keypair, message,
                fee=self.fee_strategy(),
                on_result=partial(self._signed, height, block.generated_at),
            )
        except HostUnavailableError:
            self._signing.discard(height)
            # RPC blackout (chaos): retry after a beat.  If the block
            # finalises meanwhile the retry returns early above, and the
            # periodic sweep backstops any missed height regardless.
            self.sim.trace.count("chaos.validator.sign_deferred")
            self.sim.schedule(5.0, self._sign, height)

    def _signed(self, height: int, generated_at: float,
                receipt: TxReceipt) -> None:
        self._signing.discard(height)
        self.records.append(SignRecord(
            height=height,
            latency=receipt.time - generated_at,
            fee_paid=receipt.fee_paid,
            success=receipt.success,
        ))

    # ------------------------------------------------------------------
    # Metrics helpers (Table I columns)
    # ------------------------------------------------------------------

    def successful_records(self) -> list[SignRecord]:
        return [record for record in self.records if record.success]

    def signature_count(self) -> int:
        return len(self.successful_records())

    def latencies(self) -> list[float]:
        return [record.latency for record in self.successful_records()]
