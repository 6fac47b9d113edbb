"""The world codec: a live world is plain data, so it is plain pickle.

Every continuation a world holds — an event in the kernel heap, a
bundle in a relayer's queue, a callback a chain will run with a receipt
— is a bound method of an actor, or a ``functools.partial`` of one (or
of a module-level function) over plain data.  Pickle saves a bound
method as its actor plus a name and a function by its qualified name,
so the payload carries no code: it loads wherever the source imports,
under any Python that runs it, and shared references and cycles (an
upload whose queued transactions call back into it) survive through
the pickle memo.

A closure is the one thing that breaks the rule, and pickle refuses it
by name; :mod:`repro.checkpoint.registry` refuses a queued one at
snapshot time too (docs/CHECKPOINT.md).
"""

from __future__ import annotations

import pickle
from typing import Any

from repro.errors import ReproError

#: Bumped whenever the reduction scheme changes, or the fields of a
#: pickled class change so that an older payload would restore into an
#: object the current code misreads (docs/CHECKPOINT.md, versioning
#: rules).  2: ``host.accounts.Account`` carries ``size`` and no blob.
#: 3: a ``GuestEnd``'s waiters wait on a guest height, not a host slot,
#: and its staged acks carry the height of the block that commits them.
#: 4: a ``GuestEnd`` has no staged acks; its waiters hold acks too.
#: 5: a ``Relayer`` keeps no missed events and a ``CounterpartyEnd`` no
#: completion frontier; a down relayer's waiters are the restart's.
#: 6: a ``SealableTrie`` holds an edit token and its branch and extension
#: nodes the token of their owner; a ``TxReceipt`` carries its events.
#: 7: proof steps, branch evidence and witness slots carry packed raw
#: digests, and queued batch ops carry proofs into a checkpoint; a
#: ``BranchNode`` caches raw child digests.
#: 8: an ``IbcHost`` indexes its packet writes by height (``writes``,
#: ``written``, ``standing``, ``_deadlines``; ``written_acks`` is gone)
#: and holds ``write_height`` / ``clock`` hooks; a ``GuestEnd`` lost
#: ``outstanding``, a ``CounterpartyEnd`` its send cursor ``_seen``, a
#: ``GuestContract`` ``_pending_packets`` / ``_packets_by_height``.
#: 9: plain pickle — continuations are bound methods and partials and
#: no closure is encoded; a chunked LC update in flight is an
#: ``LcUpload``.
#: 10: history is kept from what a chain's relayers can still reach —
#: an ``IbcHost`` holds its ``readers`` and ``kept_from`` and no
#: ``_acked`` or ``written``; a relayer end its floor cursor (``floor``,
#: ``floor_due``); a ``Relayer`` the handshakes under way (``_dances``)
#: and a ``Handshake`` what it ``holding``s; a ``HostChain`` keeps no ``blocks`` but
#: ``_block_listeners``; neither chain config has ``retain_blocks``.
CODEC_VERSION = 10


class CheckpointError(ReproError):
    """A world could not be serialized, or a checkpoint failed audit."""


def dumps_world(root: Any) -> bytes:
    """Serialize ``root`` (any object graph of plain data)."""
    try:
        return pickle.dumps(root, protocol=pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, TypeError, AttributeError,
            RecursionError) as exc:
        raise CheckpointError(
            f"world is not checkpointable: {exc} — a continuation must be "
            "a bound method or a partial over plain data "
            "(docs/CHECKPOINT.md)"
        ) from exc


def loads_world(payload: bytes) -> Any:
    """Reconstruct a graph written by :func:`dumps_world`."""
    try:
        return pickle.loads(payload)
    except Exception as exc:  # noqa: BLE001 - surface as a checkpoint error
        raise CheckpointError(f"corrupt or incompatible checkpoint payload: {exc}") from exc
