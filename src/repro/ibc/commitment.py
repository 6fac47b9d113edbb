"""ICS-24 commitment paths and keys.

Two families of state entries:

* **Path-addressed** entries (clients, connections, channels) live at
  human-readable paths hashed to 32-byte trie keys.
* **Sequenced** entries (packet commitments, receipts, acks) use the
  monotone key scheme ``H(prefix)[:24] || seq``: all sequences of one
  channel share a subtree, which is what makes *sealing* old entries safe
  (see :func:`repro.trie.store.seq_key`).

Verifiers reconstruct the same keys from the packet's routing fields, so
proofs can never be replayed across channels or sequences.
"""

from __future__ import annotations

from repro.ibc.identifiers import ChannelId, ClientId, ConnectionId, PortId


# --- path-addressed entries -------------------------------------------------

def client_state_path(client_id: ClientId) -> str:
    return f"clients/{client_id}/clientState"


def consensus_state_path(client_id: ClientId, height: int) -> str:
    return f"clients/{client_id}/consensusStates/{height}"


def connection_path(connection_id: ConnectionId) -> str:
    return f"connections/{connection_id}"


def channel_path(port_id: PortId, channel_id: ChannelId) -> str:
    return f"channelEnds/ports/{port_id}/channels/{channel_id}"


# --- sequenced entries (sealable) --------------------------------------------

def commitment_prefix(port_id: PortId, channel_id: ChannelId) -> str:
    """Prefix of the packet-commitment subtree for one channel."""
    return f"commitments/ports/{port_id}/channels/{channel_id}"


def receipt_prefix(port_id: PortId, channel_id: ChannelId) -> str:
    """Prefix of the packet-receipt subtree for one channel."""
    return f"receipts/ports/{port_id}/channels/{channel_id}"


def ack_prefix(port_id: PortId, channel_id: ChannelId) -> str:
    """Prefix of the acknowledgement subtree for one channel."""
    return f"acks/ports/{port_id}/channels/{channel_id}"
