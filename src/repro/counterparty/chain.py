"""The Tendermint-like counterparty chain actor.

Produces a block every ``block_seconds``: the header commits to the IBC
store's root (``app_hash``), the current validator set and the next one;
the commit carries signatures from the validators that participated this
round.  Participation and validator-set churn are drawn from the seeded
RNG — their distributions are the calibration knobs behind the Fig. 4/5
transaction counts (see EXPERIMENTS.md).

Transactions "on" the counterparty are modelled as function calls
executed at the next block boundary; the paper explicitly excludes the
counterparty's costs and latencies from its evaluation (§V: "we do not
evaluate the cost or latency involved in calling the counterparty
blockchain"), so no fee machinery is needed here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.crypto.keys import Keypair, PublicKey, SignatureScheme
from repro.errors import ReproError, UnknownBlockError
from repro.ibc.apps.transfer import Bank, TransferApp
from repro.ibc.host import IbcHost
from repro.ibc.identifiers import ChannelId, PortId
from repro.lightclient.tendermint import (
    CometHeader,
    Commit,
    LightClientUpdate,
    ValidatorSet,
)
from repro.sim.kernel import Simulation
from repro.trie.store import ProvableStore
from repro.units import COUNTERPARTY_BLOCK_SECONDS


@dataclass
class CounterpartyConfig:
    """Tunables of the counterparty model."""

    chain_id: str = "picasso-1"
    block_seconds: float = COUNTERPARTY_BLOCK_SECONDS
    #: Validator-set size.  Cosmos hubs run 100–200 validators; the
    #: commit size this produces drives the Fig. 4 transaction counts.
    validator_count: int = 190
    #: Mean and stddev of per-block commit participation.
    participation_mean: float = 0.85
    participation_std: float = 0.06
    #: Participation never drops below 2/3 (the chain would halt).
    participation_floor: float = 0.70
    #: Probability per block that a validator's power changes (stake
    #: delegation churn), rotating ``next_validators_hash``.
    valset_churn_probability: float = 0.35
    #: Synthetic entries pre-loaded into the IBC store.  A production
    #: chain's store holds many thousands of commitments, which is what
    #: gives membership proofs their realistic depth — and packet
    #: deliveries on the guest their 4–5-transaction size (§V-A).
    store_preload_entries: int = 0


@dataclass
class _BlockRecord:
    header: CometHeader
    validator_set: ValidatorSet
    store_view: ProvableStore
    #: Commit signatures are produced lazily — only for the heights a
    #: relayer actually requests — so week-long simulations do not pay
    #: for ~160 signatures per 6-second block.  Participant selection is
    #: seeded per height, so laziness never perturbs determinism.
    commit: Optional[Commit] = None


class CounterpartyChain:
    """The counterparty actor on the simulation kernel."""

    def __init__(self, sim: Simulation, scheme: SignatureScheme,
                 config: Optional[CounterpartyConfig] = None) -> None:
        self.sim = sim
        self.scheme = scheme
        self.config = config or CounterpartyConfig()
        self._rng = sim.rng.fork("counterparty")
        self._participant_seed = self._rng.randint(0, (1 << 60) - 1)

        keypairs = [
            scheme.keypair_from_seed(
                bytes([2]) + index.to_bytes(4, "big") + bytes(27))
            for index in range(self.config.validator_count)
        ]
        #: Who signs never changes; only voting power does (churn).
        self._keypairs: dict[PublicKey, Keypair] = {
            keypair.public_key: keypair for keypair in keypairs}
        # Power follows a mild skew: a few heavyweights, a long tail.
        self._valset = ValidatorSet(members=tuple(
            (keypair.public_key, 1_000_000 // (1 + index // 10))
            for index, keypair in enumerate(keypairs)
        ))

        self.height = 0
        #: Block records from ``ibc.kept_from`` on: what a relayer can
        #: still prove at, update a client to or read the clock of.
        self.blocks: dict[int, _BlockRecord] = {}
        self._pending_calls: list[tuple[Callable[[], Any], Optional[Callable[[Any, int], None]]]] = []
        self._block_listeners: list[Callable[[int], None]] = []
        #: (packet, height committed) for every packet this chain sent —
        #: the ``send`` writes of ``ibc.writes`` again, kept only because
        #: the benchmark harness (``bench/``) reads it.
        self.sent_packets: list[tuple[Any, int]] = []

        self.bank = Bank()
        self.ibc = IbcHost(self.config.chain_id, store=ProvableStore(),
                           write_height=self._write_height, clock=self._now)
        self.transfer_port = PortId("transfer")
        self.transfer = TransferApp(self.bank, self.transfer_port)
        self.ibc.bind_port(self.transfer_port, self.transfer)
        self._valset_hash_history: set[bytes] = {
            bytes(self.validator_set().canonical_hash())
        }
        self.ibc.self_client_validator = self._validate_claim_about_us
        if self.config.store_preload_entries:
            self._preload_store(self.config.store_preload_entries)
        self._producing = False
        self.ibc.on_send = self._record_send

        sim.schedule(self.config.block_seconds, self._produce_block)

    def _preload_store(self, count: int) -> None:
        """Fill the IBC store with synthetic commitments so membership
        proofs have production-scale depth."""
        import hashlib
        trie = self.ibc.store.trie
        for index in range(count):
            key = hashlib.sha256(b"preload" + index.to_bytes(8, "big")).digest()
            trie.set(key, key)

    # ------------------------------------------------------------------
    # Consensus model
    # ------------------------------------------------------------------

    def validator_set(self) -> ValidatorSet:
        return self._valset

    def _maybe_churn(self) -> None:
        if self._rng.bernoulli(self.config.valset_churn_probability):
            members = self._valset.members
            index = self._rng.randint(0, len(members) - 1)
            _, power = members[index]
            delta = max(1, power // 100)
            power = power + delta if self._rng.bernoulli(0.5) else max(1, power - delta)
            self._valset = self._valset.replacing_power(index, power)
            self._valset_hash_history.add(bytes(self._valset.canonical_hash()))

    def _participants(self, height: int, valset: ValidatorSet) -> list[int]:
        """Deterministic per-height participant indices (lazy commits)."""
        rng = self.sim.rng.__class__(self._participant_seed ^ height)
        rate = rng.gauss(self.config.participation_mean, self.config.participation_std)
        rate = min(1.0, max(self.config.participation_floor, rate))
        count = max(1, round(rate * len(valset)))
        indices = list(range(len(valset)))
        rng.shuffle(indices)
        return sorted(indices[:count])

    def _build_commit(self, record: "_BlockRecord", height: int) -> Commit:
        sign_bytes = record.header.sign_bytes()
        signatures = []
        for index in self._participants(height, record.validator_set):
            public_key, _ = record.validator_set.members[index]
            signatures.append(
                (public_key, self._keypairs[public_key].sign(sign_bytes)))
        return Commit(signatures=tuple(signatures))

    def _produce_block(self) -> None:
        self.height += 1
        self._producing = True
        current_set = self.validator_set()

        # Execute queued transactions against this block's state.
        calls, self._pending_calls = self._pending_calls, []
        results: list[tuple[Optional[Callable[[Any, int], None]], Any]] = []
        for fn, on_result in calls:
            try:
                value: Any = fn()
            except (ReproError, ValueError) as exc:
                value = exc  # failed txs surface their error to the caller
            results.append((on_result, value))
        self._producing = False

        self._maybe_churn()
        next_set = self.validator_set()
        header = CometHeader(
            chain_id=self.config.chain_id,
            height=self.height,
            time=self.sim.now,
            app_hash=self.ibc.store.root_hash,
            validators_hash=current_set.canonical_hash(),
            next_validators_hash=next_set.canonical_hash(),
        )
        self.blocks[self.height] = _BlockRecord(
            header=header,
            validator_set=current_set,
            store_view=self.ibc.store.snapshot(),
        )
        for on_result, value in results:
            if on_result is not None:
                on_result(value, self.height)
        for listener in self._block_listeners:
            listener(self.height)
        for height in self.ibc.forget():
            self.blocks.pop(height, None)
        self.sim.schedule(self.config.block_seconds, self._produce_block)

    def _now(self) -> float:
        return self.sim.now

    def _record_send(self, packet) -> None:
        self.sent_packets.append((packet, self._write_height()))

    def _write_height(self) -> int:
        """Writes inside block execution commit at the current height;
        direct writes land in the next produced block."""
        return self.height if self._producing else self.height + 1

    def _validate_claim_about_us(self, claimed_bytes) -> None:
        """ICS-03 validate_self_client for the counterparty side."""
        from repro.ibc.self_client import SelfClientState, validate_self_client
        claimed = SelfClientState.from_bytes(claimed_bytes)
        validate_self_client(
            claimed,
            our_chain_id=self.config.chain_id,
            our_height=self.height,
            known_set_hashes=frozenset(self._valset_hash_history),
        )

    # ------------------------------------------------------------------
    # Interfaces used by relayers and workloads
    # ------------------------------------------------------------------

    def on_block(self, listener: Callable[[int], None]) -> None:
        """Register a callback fired (synchronously) at each new height."""
        self._block_listeners.append(listener)

    def submit(self, fn: Callable[[], Any],
               on_result: Optional[Callable[[Any, int], None]] = None) -> None:
        """Queue a state-changing call for the next block.

        ``on_result(value, height)`` fires after the block commits, with
        the call's return value and the height it executed at — relayers
        use the height to know from when the result becomes provable.
        """
        self._pending_calls.append((fn, on_result))

    def send_transfer(self, channel: ChannelId, denom: str, amount: int,
                      sender: str, receiver: str,
                      timeout_timestamp: float = 0.0,
                      port: Optional[PortId] = None):
        """Send an ICS-20 transfer from this chain: escrow (or burn) and
        commit the packet; returns it.  Queued with :meth:`submit`, this
        is a user's transfer landing in the next block."""
        payload = self.transfer.make_payload(channel, denom, amount,
                                             sender, receiver)
        return self.ibc.send_packet(port or self.transfer_port, channel,
                                    payload, timeout_timestamp)

    def light_client_update(self, height: Optional[int] = None) -> LightClientUpdate:
        """The update a relayer ships to the guest for ``height``."""
        resolved = height if height is not None else self.height
        record = self.block(resolved)
        if record.commit is None:
            record.commit = self._build_commit(record, resolved)
        return LightClientUpdate(
            header=record.header,
            commit=record.commit,
            validator_set=record.validator_set,
        )

    def block(self, height: int) -> _BlockRecord:
        """The record of the block at ``height``; one below what the
        chain's readers can still reach (``ibc.kept_from``) is gone."""
        record = self.blocks.get(height)
        if record is None:
            raise UnknownBlockError(
                f"no counterparty block at height {height} (kept from "
                f"{self.ibc.kept_from}, tip {self.height})")
        return record

    def store_at(self, height: int) -> ProvableStore:
        """Frozen store view whose root is that height's ``app_hash``."""
        return self.block(height).store_view

    def genesis_validator_set(self) -> ValidatorSet:
        """The set a guest-side light client should be initialised with
        before the first block arrives."""
        return self.validator_set()
