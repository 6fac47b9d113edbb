"""Shared test helpers."""

from __future__ import annotations

from typing import Optional

from repro.crypto.hashing import Hash
from repro.ibc.client import LightClient
from repro.trie.trie import SealableTrie


class StaticRootClient(LightClient):
    """A light client whose consensus states are injected directly.

    Unit tests for the IBC handlers use it to decouple protocol logic
    from header verification (the real clients are tested separately).
    """

    def __init__(self) -> None:
        super().__init__()
        self._states: dict[int, tuple[Hash, float]] = {}

    def set_state(self, height: int, root: Hash, timestamp: float = 0.0) -> None:
        self._states[height] = (root, timestamp)

    def latest_height(self) -> int:
        return max(self._states, default=0)

    def consensus_root(self, height: int) -> Optional[Hash]:
        entry = self._states.get(height)
        return entry[0] if entry else None

    def consensus_timestamp(self, height: int) -> Optional[float]:
        entry = self._states.get(height)
        return entry[1] if entry else None


# ======================================================================
# Protocol-level multi-chain fabric (no simulation kernel)
# ======================================================================

from repro.fabric.forward import ForwardMiddleware  # noqa: E402
from repro.ibc import commitment as paths  # noqa: E402
from repro.ibc.apps.transfer import Bank, TransferApp  # noqa: E402
from repro.ibc.channel import ChannelOrder  # noqa: E402
from repro.ibc.host import IbcHost  # noqa: E402
from repro.ibc.identifiers import ChannelId, PortId  # noqa: E402
from repro.state.scheduler import EagerScheduler  # noqa: E402


def bare_host(name: str, **kwargs) -> IbcHost:
    """An IbcHost outside any chain: every write is indexed at height 0,
    and it has no clock, so it refuses no deadline at send (tests clock
    the light clients instead)."""
    return IbcHost(name, write_height=lambda: 0,
                   clock=lambda: float("-inf"), **kwargs)


class ProtoChain:
    """One chain of a :class:`ProtoFabric`: an IbcHost, a bank, ICS-20,
    and (optionally) the forwarding middleware — everything needed to
    exercise multi-hop semantics without the event-loop stack."""

    def __init__(self, fabric: "ProtoFabric", name: str,
                 forwarding: bool = False,
                 hop_timeout_seconds: float = 600.0) -> None:
        self.fabric = fabric
        self.name = name
        self.host = bare_host(name, seal_scheduler=EagerScheduler())
        self.bank = Bank()
        self.port = PortId("transfer")
        self.app = TransferApp(self.bank, self.port)
        self.forward: Optional[ForwardMiddleware] = None
        if forwarding:
            self.forward = ForwardMiddleware(
                self.app, self._send_raw, lambda: fabric.now,
                hop_timeout_seconds,
            )
            self.host.bind_port(self.port, self.forward)
        else:
            self.host.bind_port(self.port, self.app)
        #: Committed packets awaiting relay (the fabric's pump drains it).
        self.outbox: list = []

    def _send_raw(self, port: str, channel: str, payload: bytes,
                  timeout_timestamp: float):
        packet = self.host.send_packet(PortId(port), ChannelId(channel),
                                       payload, timeout_timestamp)
        self.outbox.append(packet)
        return packet

    def send_transfer(self, channel: ChannelId, denom: str, amount: int,
                      sender: str, receiver: str,
                      timeout_timestamp: float = 0.0):
        payload = self.app.make_payload(channel, denom, amount,
                                        sender, receiver)
        return self._send_raw(str(self.port), str(channel), payload,
                              timeout_timestamp)


class ProtoFabric:
    """N IbcHosts linked pairwise through StaticRootClients.

    A shared logical clock (``now``) drives timeout semantics and the
    middleware's hop deadlines; ``sync()`` publishes every chain's
    current store root to every client at a fresh height, stamped with
    the clock.  ``pump()`` relays packets (and their acks) until the
    fabric is quiescent — the deterministic, instant stand-in for the
    full relayer stack.
    """

    def __init__(self) -> None:
        self.chains: dict[str, ProtoChain] = {}
        self.now = 0.0
        self.height = 0
        #: (holder chain, peer chain) -> client the holder runs of peer.
        self.clients: dict[tuple[str, str], StaticRootClient] = {}
        self.client_ids: dict[tuple[str, str], str] = {}
        #: (chain, channel str) -> peer chain name, for pump dispatch.
        self.channel_peer: dict[tuple[str, str], str] = {}
        #: (pair) -> this chain's channel to the peer.
        self.channels: dict[tuple[str, str], ChannelId] = {}

    def add_chain(self, name: str, forwarding: bool = False,
                  hop_timeout_seconds: float = 600.0) -> ProtoChain:
        chain = ProtoChain(self, name, forwarding, hop_timeout_seconds)
        self.chains[name] = chain
        return chain

    def sync(self) -> int:
        self.height += 1
        for (holder, peer), client in self.clients.items():
            client.set_state(self.height,
                             self.chains[peer].host.store.root_hash,
                             self.now)
        return self.height

    def link(self, a: str, b: str) -> tuple[ChannelId, ChannelId]:
        """Open a connection + transfer channel between two chains."""
        ca, cb = self.chains[a], self.chains[b]
        for holder, peer in ((a, b), (b, a)):
            client = StaticRootClient()
            self.clients[(holder, peer)] = client
            self.client_ids[(holder, peer)] = \
                self.chains[holder].host.create_client(client)
        conn_a = ca.host.conn_open_init(self.client_ids[(a, b)],
                                        self.client_ids[(b, a)])
        h = self.sync()
        proof = ca.host.store.prove(paths.connection_path(conn_a))
        conn_b = cb.host.conn_open_try(self.client_ids[(b, a)],
                                      self.client_ids[(a, b)],
                                      conn_a, proof, h)
        h = self.sync()
        proof = cb.host.store.prove(paths.connection_path(conn_b))
        ca.host.conn_open_ack(conn_a, conn_b, proof, h)
        h = self.sync()
        proof = ca.host.store.prove(paths.connection_path(conn_a))
        cb.host.conn_open_confirm(conn_b, proof, h)

        order = ChannelOrder.UNORDERED
        chan_a = ca.host.chan_open_init(ca.port, conn_a, cb.port, order)
        h = self.sync()
        proof = ca.host.store.prove(paths.channel_path(ca.port, chan_a))
        chan_b = cb.host.chan_open_try(cb.port, conn_b, ca.port, chan_a,
                                       order, proof, h)
        h = self.sync()
        proof = cb.host.store.prove(paths.channel_path(cb.port, chan_b))
        ca.host.chan_open_ack(ca.port, chan_a, chan_b, proof, h)
        h = self.sync()
        proof = ca.host.store.prove(paths.channel_path(ca.port, chan_a))
        cb.host.chan_open_confirm(cb.port, chan_b, proof, h)

        self.channels[(a, b)] = chan_a
        self.channels[(b, a)] = chan_b
        self.channel_peer[(a, str(chan_a))] = b
        self.channel_peer[(b, str(chan_b))] = a
        return chan_a, chan_b

    # ------------------------------------------------------------------
    # Relaying
    # ------------------------------------------------------------------

    def deliver(self, src: ProtoChain, packet) -> None:
        """Relay one packet and immediately return its ack."""
        dst = self.chains[self.channel_peer[(src.name,
                                             str(packet.source_channel))]]
        h = self.sync()
        proof = src.host.store.prove_seq(
            paths.commitment_prefix(packet.source_port,
                                    packet.source_channel),
            packet.sequence,
        )
        ack = dst.host.recv_packet(packet, proof, h, local_time=self.now)
        h = self.sync()
        ack_proof = dst.host.store.prove_seq(
            paths.ack_prefix(packet.destination_port,
                             packet.destination_channel),
            packet.sequence,
        )
        src.host.acknowledge_packet(packet, ack, ack_proof, h)

    def expire(self, src: ProtoChain, packet) -> None:
        """Time a packet out on its source (proves non-receipt)."""
        dst = self.chains[self.channel_peer[(src.name,
                                             str(packet.source_channel))]]
        h = self.sync()
        absence = dst.host.store.prove_seq_absence(
            paths.receipt_prefix(packet.destination_port,
                                 packet.destination_channel),
            packet.sequence,
        )
        src.host.timeout_packet(packet, absence, h)

    def pump(self, max_rounds: int = 64,
             drop=None) -> int:
        """Relay until quiescent.  ``drop(chain, packet)`` — when it
        returns True the packet is left committed but never delivered
        (the caller times it out later via :meth:`expire`).  Returns the
        number of packets delivered."""
        delivered = 0
        for _ in range(max_rounds):
            batch = []
            for chain in self.chains.values():
                while chain.outbox:
                    batch.append((chain, chain.outbox.pop(0)))
            if not batch:
                return delivered
            for src, packet in batch:
                if drop is not None and drop(src, packet):
                    continue
                self.deliver(src, packet)
                delivered += 1
        raise AssertionError(f"fabric still busy after {max_rounds} rounds")


# ======================================================================
# Derive-once audit: calls, distinct receivers, derivations
# ======================================================================

import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from functools import wraps  # noqa: E402


def audited_methods() -> tuple[tuple[type, str], ...]:
    """The zero-argument methods of immutable value types whose calls
    outnumbered their receivers at least two to one on some ledger
    workload (docs/PERFORMANCE.md, "Derive once")."""
    from repro.guest.block import GuestBlockHeader
    from repro.host.transaction import Transaction
    from repro.lightclient.tendermint import ValidatorSet
    return ((ValidatorSet, "canonical_hash"), (GuestBlockHeader, "fingerprint"),
            (Transaction, "unique_accounts"))


@dataclass
class DerivationCount:
    """What one audited method did while a :class:`DerivationAudit` ran."""

    #: Times the public method was called.
    calls: int = 0
    #: Times its body ran (equal to ``calls`` for an uncached method).
    derivations: int = 0
    #: Wall-clock seconds inside the public method, callees included.
    seconds: float = 0.0
    #: ``id -> receiver``, held so that no id is reused within the audit.
    receivers: dict = field(default_factory=dict, repr=False)

    @property
    def distinct(self) -> int:
        return len(self.receivers)


class DerivationAudit:
    """Count calls, distinct receivers and derivations of the given
    ``(class, method name)`` pairs for the duration of a ``with`` block.

    The body of a method cached with :func:`repro.derive.derive_once` is
    reached through ``__wrapped__`` and counted apart from the calls, so
    "derived once" reads ``derivations == distinct``; on a method with no
    cache the two counts are the same number and ``calls >= 2 x distinct``
    is the case for adding one.  ``counts`` is keyed ``"Class.method"``.
    """

    def __init__(self, methods=None) -> None:
        self.methods = tuple(methods or audited_methods())
        self.counts = {f"{owner.__name__}.{name}": DerivationCount()
                       for owner, name in self.methods}
        self._originals: list = []

    def __enter__(self) -> "DerivationAudit":
        for owner, name in self.methods:
            public = owner.__dict__[name]
            self._originals.append((owner, name, public))
            setattr(owner, name, self._counted(
                public, self.counts[f"{owner.__name__}.{name}"]))
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, name, public in self._originals:
            setattr(owner, name, public)
        self._originals.clear()

    @staticmethod
    def _counted(public, count: DerivationCount):
        body = getattr(public, "__wrapped__", public)

        @wraps(body)
        def derive(self):
            count.derivations += 1
            return body(self)

        if body is not public:
            # Cached: the same cache, around the counted body.
            from repro.derive import derive_once
            derive = derive_once(derive)

        @wraps(public)
        def called(self):
            count.calls += 1
            count.receivers[id(self)] = self
            started = time.perf_counter()
            try:
                return derive(self)
            finally:
                count.seconds += time.perf_counter() - started

        return called

    def table(self) -> str:
        lines = [f"{'method':34s} {'calls':>8s} {'distinct':>8s} "
                 f"{'derived':>8s} {'seconds':>8s}"]
        for name, count in self.counts.items():
            lines.append(f"{name:34s} {count.calls:8d} {count.distinct:8d} "
                         f"{count.derivations:8d} {count.seconds:8.3f}")
        return "\n".join(lines)


def tap_cold_framings(monkeypatch) -> list:
    """Record every validator set whose digest preimage is framed member
    by member (``ValidatorSet._framed_members``: the Python loop a
    churned set avoids by patching the preimage it is handed)."""
    from repro.lightclient.tendermint import ValidatorSet
    framings: list = []
    framed_members = ValidatorSet._framed_members

    def tapped(self):
        framings.append(self)
        return framed_members(self)

    monkeypatch.setattr(ValidatorSet, "_framed_members", tapped)
    return framings


# ======================================================================
# Batched delivery bundles
# ======================================================================

def batch_bundle_payload(transactions) -> bytes:
    """Reassemble what a batched delivery bundle stages and runs: the
    CHUNK pieces of its one buffer, in index order, then the tail inside
    the BATCH_EXEC that ends it.  Asserts the bundle is nothing else."""
    from repro.encoding import Reader
    from repro.guest.instructions import Op
    *chunk_txs, exec_tx = transactions
    (exec_ins,) = exec_tx.instructions
    assert exec_ins.data[0] == Op.BATCH_EXEC
    reader = Reader(exec_ins.data[1:])
    staged = reader.read_varint()
    assert staged == bool(chunk_txs)
    buffer_id = reader.read_varint() if staged else None
    tail = reader.read_bytes()
    reader.expect_end()
    pieces = []
    for index, transaction in enumerate(chunk_txs):
        (chunk_ins,) = transaction.instructions
        assert chunk_ins.data[0] == Op.CHUNK
        chunk = Reader(chunk_ins.data[1:])
        assert (chunk.read_varint(), chunk.read_varint(), chunk.read_varint()) == (
            buffer_id, index, len(chunk_txs))
        pieces.append(chunk.read_bytes())
        chunk.expect_end()
    return b"".join(pieces) + tail


def can_cut_a_block(dep) -> bool:
    """Would a GENERATE_BLOCK submitted now land, with the deployment's
    cranker held off?  The head is finalised, no crank is in flight,
    and the state moved since the head or the head is Δ old."""
    contract, head = dep.contract, dep.contract.head
    return head.finalised and not dep.cranker._in_flight and (
        contract.store.root_hash != head.header.state_root
        or dep.sim.now - head.header.timestamp >= contract.config.delta_seconds)


class PathCopyingTrie(SealableTrie):
    """The reference: the sealable trie before it learnt to edit in
    place — every set / delete / seal copies each branch and extension
    on its path.  Its edit token never matches a node (each read is a
    fresh object), so no node is ever owned; it exists only here, and
    ``src/`` has no switch that selects it.  Its views copy too."""

    @property
    def _token(self) -> object:
        return object()

    @_token.setter
    def _token(self, _retired: object) -> None:
        pass

    def snapshot(self) -> "PathCopyingTrie":
        view = PathCopyingTrie()
        view._root = self._root
        return view
