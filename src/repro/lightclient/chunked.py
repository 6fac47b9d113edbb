"""Splitting a light-client update into host-sized transactions.

The Solana runtime cannot take a whole Tendermint update in one
transaction: the update (header + ~10² commit signatures + validator
set) is tens of kilobytes against a 1232-byte transaction cap, and the
compute budget cannot verify the signatures in-program anyway (§IV).
The deployment's workaround — reproduced here — is:

1. **data chunks**: the header and validator-set bytes are written into a
   staging buffer across as many transactions as needed;
2. **signature batches**: commit signatures ride as Ed25519 precompile
   entries (verified by the runtime, paid per §V-B's 0.1 ¢/signature),
   as many per transaction as fit the size cap;
3. **finalize**: one transaction says how many signature batches the
   update has; whichever transaction of the update lands last makes the
   Guest Contract assemble the buffer, check the accumulated verified
   signers against the validator set's voting power, and adopt the
   consensus state (the deployment sent it last, so it was that one).

What the three steps *carry* is the relayer's choice, and this module
names the two choices (docs/PROTOCOL.md, "Light-client update plans"):

* :func:`plan_update_chunks` — the default.  The on-chain client asks
  for more than 2/3 of the header's voting power and more than 1/3 of
  the trusted set's, nothing else, so only the shortest power-ranked
  prefix of the commit that crosses both is shipped (~76 of ~161
  signatures), and the validator set is staged as a delta — base set
  hash plus ``(index, new power)`` pairs — against the set the client
  already trusts (one data chunk instead of eight).  ~15 transactions.
* :func:`plan_paper_update` — what the deployment did and Fig. 4
  reports: every signature and the whole set, 36.5 transactions on
  average (σ 5.8).

Both stage the same format, which this module alone encodes
(:func:`_stage`) and decodes (:func:`read_staged_update`); the Guest
Contract cannot tell which plan produced a buffer, and every check it
makes — the rebuilt set's hash against the header, both power
thresholds, runtime-verified signatures only — is the same for both.
Every count comes from actual byte sizes — no constant 36 or 15 lives
anywhere in the code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.crypto.hashing import Hash
from repro.crypto.keys import PublicKey, Signature
from repro.encoding import Reader, write_varint
from repro.errors import ClientError
from repro.lightclient.tendermint import (
    CometHeader,
    LightClientUpdate,
    ValidatorSet,
)
from repro.units import MAX_TRANSACTION_BYTES

#: Envelope + one payer signature + program/account keys for a chunk tx
#: (see repro.host.transaction layout constants; 4 accounts assumed).
_CHUNK_TX_OVERHEAD = 38 + 64 + 5 * 32 + 4 + 4 + 16
#: Per-entry overhead of the signature-verify precompile (signature,
#: public key, offsets) — the message bytes are counted separately.
_SIG_ENTRY_OVERHEAD = 64 + 32 + 14

#: First byte of the staged validator-set section.
_WHOLE_SET = 0
_SET_DELTA = 1
#: Bytes per member that :meth:`ValidatorSet.canonical_hash` consumes.
_HASHED_MEMBER_BYTES = 32 + 8

CommitSignatures = tuple[tuple[PublicKey, Signature], ...]


@dataclass(frozen=True)
class ChunkPlan:
    """The transaction-level plan of one chunked light-client update."""

    #: Staged data split into per-transaction slices.
    data_chunks: tuple[bytes, ...]
    #: Signature-verify batches; each inner tuple rides in one tx.
    signature_batches: tuple[CommitSignatures, ...]
    #: The message every signature covers (the header's sign-bytes).
    sign_message: bytes

    @property
    def transaction_count(self) -> int:
        """Data chunks + signature batches + the finalize transaction."""
        return len(self.data_chunks) + len(self.signature_batches) + 1

    @property
    def signature_count(self) -> int:
        return sum(len(batch) for batch in self.signature_batches)


def usable_chunk_bytes(tx_size_limit: int = MAX_TRANSACTION_BYTES) -> int:
    """Instruction-data capacity of one staging transaction."""
    return tx_size_limit - _CHUNK_TX_OVERHEAD


def signatures_per_transaction(message_length: int,
                               tx_size_limit: int = MAX_TRANSACTION_BYTES) -> int:
    """How many precompile entries fit one transaction.

    Each entry carries the signature, the signer's key and the shared
    message; the message is embedded once per entry in the Solana
    precompile layout, so it counts against every entry.
    """
    per_entry = _SIG_ENTRY_OVERHEAD + message_length
    capacity = tx_size_limit - _CHUNK_TX_OVERHEAD
    return max(1, capacity // per_entry)


# ----------------------------------------------------------------------
# What to ship: the quorum prefix and the validator-set delta
# ----------------------------------------------------------------------

def quorum_prefix(signatures: CommitSignatures, valset: ValidatorSet,
                  trusted: Optional[ValidatorSet]) -> CommitSignatures:
    """The fewest commit signatures ``apply_verified`` will accept.

    Signatures are ranked by the signer's voting power in ``valset``
    (ties keep commit order) and cut at the first point where the prefix
    holds more than 2/3 of ``valset``'s power *and* more than 1/3 of
    ``trusted``'s — the two thresholds of
    :meth:`TendermintLightClient.apply_verified`, so dropping the last
    signer of the prefix always fails one of them.  Signers outside
    ``valset``, with zero power, or repeated, add nothing to either sum
    and are never shipped.  A commit that cannot cross the thresholds is
    returned whole: the client refuses it either way, and the relayer
    learns that from the refusal rather than from a second copy of the
    rule.
    """
    powers = valset.power_map()
    counted: dict[PublicKey, tuple[PublicKey, Signature]] = {}
    for entry in signatures:
        if powers.get(entry[0], 0) > 0:
            counted.setdefault(entry[0], entry)
    ranked = sorted(counted.values(), key=lambda entry: powers[entry[0]],
                    reverse=True)
    needed = valset.total_power * 2 // 3
    trusted_powers = trusted.power_map() if trusted is not None else {}
    trusted_total = trusted.total_power if trusted is not None else 0
    signed = overlap = 0
    for count, (public_key, _) in enumerate(ranked, 1):
        signed += powers[public_key]
        overlap += trusted_powers.get(public_key, 0)
        if signed > needed and (trusted is None or overlap * 3 > trusted_total):
            return tuple(ranked[:count])
    return signatures


def validator_set_delta(valset: ValidatorSet,
                        base: Optional[ValidatorSet],
                        ) -> Optional[list[tuple[int, int]]]:
    """``(index, new power)`` for every member of ``valset`` whose power
    differs from ``base``'s; None when there is no base or its members
    are not the same keys in the same order (a join, a leave, a
    reordering: only the whole set describes those)."""
    if base is None or len(base) != len(valset):
        return None
    changes = []
    for index, ((key, power), (base_key, base_power)) in enumerate(
            zip(valset.members, base.members)):
        if key != base_key:
            return None
        if power != base_power:
            changes.append((index, power))
    return changes


# ----------------------------------------------------------------------
# The staged format (CHUNK payload of an LC update)
# ----------------------------------------------------------------------
#
#   u32 header length | header
#   u32 section length | kind byte | body
#     kind 0: the whole set (``ValidatorSet.to_bytes``)
#     kind 1: base set hash (32) | varint n | n x (varint index, varint power),
#             indices strictly increasing

def _whole_set(valset: ValidatorSet) -> bytes:
    return bytes([_WHOLE_SET]) + valset.to_bytes()


def _set_delta(base: ValidatorSet, changes: list[tuple[int, int]]) -> bytes:
    out = bytearray([_SET_DELTA])
    out += bytes(base.canonical_hash())
    write_varint(out, len(changes))
    for index, power in changes:
        write_varint(out, index)
        write_varint(out, power)
    return bytes(out)


def _stage(header: CometHeader, section: bytes) -> bytes:
    header_bytes = header.to_bytes()
    return b"".join((
        len(header_bytes).to_bytes(4, "big"), header_bytes,
        len(section).to_bytes(4, "big"), section,
    ))


def read_staged_update(
        staged: bytes,
        known_set: Callable[[Hash], Optional[ValidatorSet]],
) -> tuple[CometHeader, ValidatorSet, int]:
    """Decode an assembled staging buffer (Guest Contract side).

    Returns the header, the validator set it was staged with — rebuilt
    from ``known_set(base hash)`` when staged as a delta — and the number
    of bytes the contract must pay hashing for: the buffer, plus the
    rebuilt set when only a delta of it was uploaded (a smaller upload
    must not make the hash check against ``header.validators_hash``
    cheaper than it is).  That check itself stays with
    ``apply_verified``; nothing here trusts the delta.
    """
    cursor = Reader(staged)
    header = CometHeader.read_from(
        Reader(cursor.read(int.from_bytes(cursor.read(4), "big"))))
    section = Reader(cursor.read(int.from_bytes(cursor.read(4), "big")))
    cursor.expect_end()
    kind = section.read(1)[0]
    hashed_bytes = len(staged)
    if kind == _WHOLE_SET:
        valset = ValidatorSet.read_from(section)
    elif kind == _SET_DELTA:
        base = known_set(Hash(section.read(32)))
        if base is None:
            raise ClientError("validator-set delta against an unknown base set")
        members = list(base.members)
        previous = -1
        for _ in range(section.read_varint()):
            index = section.read_varint()
            if index <= previous:
                raise ClientError(
                    f"validator-set delta indices must strictly increase "
                    f"({index} after {previous})")
            if index >= len(members):
                raise ClientError(
                    f"validator-set delta index {index} outside a set of "
                    f"{len(members)}")
            members[index] = (members[index][0], section.read_varint())
            previous = index
        valset = ValidatorSet(members=tuple(members))
        hashed_bytes += _HASHED_MEMBER_BYTES * len(members)
    else:
        raise ClientError(f"unknown staged validator-set kind {kind}")
    section.expect_end()
    return header, valset, hashed_bytes


# ----------------------------------------------------------------------
# The two plans
# ----------------------------------------------------------------------

def _header_set(update: LightClientUpdate,
                trusted: Optional[ValidatorSet]) -> ValidatorSet:
    """The set ``update.header`` commits to: carried by the update, or
    the trusted one when the update leaves it out as already known."""
    if update.validator_set is not None:
        return update.validator_set
    if (trusted is None
            or trusted.canonical_hash() != update.header.validators_hash):
        raise ClientError(
            "unknown validator set and none supplied in the update")
    return trusted


def _split(update: LightClientUpdate, section: bytes,
           signatures: CommitSignatures, tx_size_limit: int,
           tracer) -> ChunkPlan:
    staged = _stage(update.header, section)
    chunk_size = usable_chunk_bytes(tx_size_limit)
    data_chunks = tuple(
        staged[offset : offset + chunk_size]
        for offset in range(0, len(staged), chunk_size)
    )
    message = update.header.sign_bytes()
    per_tx = signatures_per_transaction(len(message), tx_size_limit)
    signature_batches = tuple(
        signatures[offset : offset + per_tx]
        for offset in range(0, len(signatures), per_tx)
    )
    plan = ChunkPlan(
        data_chunks=data_chunks,
        signature_batches=signature_batches,
        sign_message=message,
    )
    if tracer is not None:
        tracer.observe("lc.plan.staged_bytes", len(staged))
        tracer.observe("lc.plan.data_chunks", len(data_chunks))
        tracer.observe("lc.plan.sig_batches", len(signature_batches))
        tracer.observe("lc.plan.transactions", plan.transaction_count)
    return plan


def plan_update_chunks(update: LightClientUpdate,
                       trusted: Optional[ValidatorSet] = None,
                       tx_size_limit: int = MAX_TRANSACTION_BYTES,
                       tracer=None) -> ChunkPlan:
    """Split ``update`` into the fewest host transactions the guest's
    client will adopt it from (the default plan).

    ``trusted`` is the validator set that client currently trusts
    (:meth:`TendermintLightClient.trusted_validator_set`; None before
    its first update).  It bounds the signature prefix (the 1/3 overlap
    rule) and is the base of the validator-set delta; the whole set is
    staged instead on first use, on a membership change, or when the
    delta would not be smaller.
    ``tx_size_limit`` is the host's transaction cap — hosts other than
    Solana have different caps and hence different chunk counts (§VI-D).
    ``tracer`` (an :class:`repro.observability.Tracer`) records the
    plan-shape histograms.
    """
    valset = _header_set(update, trusted)
    section = _whole_set(valset)
    changes = validator_set_delta(valset, trusted)
    if changes is not None:
        delta = _set_delta(trusted, changes)
        if len(delta) < len(section):
            section = delta
    signatures = quorum_prefix(update.commit.signatures, valset, trusted)
    return _split(update, section, signatures, tx_size_limit, tracer)


def plan_paper_update(update: LightClientUpdate,
                      trusted: Optional[ValidatorSet] = None,
                      tx_size_limit: int = MAX_TRANSACTION_BYTES,
                      tracer=None) -> ChunkPlan:
    """Split ``update`` the way the paper's deployment shipped it: every
    commit signature, and the whole validator set unless it *is* the set
    the client trusts (then the zero-change delta names it).  This is
    the plan behind Fig. 4's 36.5 transactions and Fig. 5's ~20 ¢."""
    valset = _header_set(update, trusted)
    if validator_set_delta(valset, trusted) == []:
        section = _set_delta(trusted, [])
    else:
        section = _whole_set(valset)
    return _split(update, section, tuple(update.commit.signatures),
                  tx_size_limit, tracer)
