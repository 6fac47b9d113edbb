"""How proof size scales with store size — the 4-vs-5-transaction story.

§V-A: ReceivePacket needed 4-5 transactions "depending on the size of
the packet".  The dominant payload is the membership proof, whose size
grows with the *depth* of the counterparty's store (O(log16 n) branch
steps of ~15 sibling hashes each).  This bench measures proof bytes and
the resulting chunk+exec transaction count across store sizes.

The counts asserted are what the proof codec produces today.  A branch
step's sibling hashes travel as an occupancy bitmap plus the hashes
present (``trie/proof.py::pack_digests``), so a 10 000-entry store
proves in 1 591 bytes: two chunks and the exec, 3 transactions.  The
bench asserted 4 there from before that codec and had been failing
since; only the 100 000-entry store is in the 4-6 range now.
"""

import hashlib
import math

from conftest import emit
from repro.guest.instructions import BufferedPacketMsg
from repro.lightclient.chunked import usable_chunk_bytes
from repro.metrics.table import format_table
from repro.trie.trie import SealableTrie


def measure():
    rows = []
    for entries in (100, 1_000, 10_000, 100_000):
        trie = SealableTrie()
        target = None
        for index in range(entries):
            key = hashlib.sha256(b"scaling" + index.to_bytes(8, "big")).digest()
            trie.set(key, key)
            if index == entries // 2:
                target = key
        proof = trie.prove(target)
        staged = BufferedPacketMsg(
            packet_bytes=bytes(140),       # a typical ICS-20 packet
            proof_bytes=proof.to_bytes(),
            proof_height=1_000,
        ).to_bytes()
        chunks = math.ceil(len(staged) / usable_chunk_bytes())
        rows.append((entries, len(proof.to_bytes()), len(proof.steps),
                     chunks + 1))
    return rows


def test_proof_scaling(benchmark):
    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(format_table(
        ["store entries", "proof bytes", "steps", "delivery txs"],
        [[str(n), str(size), str(steps), str(txs)]
         for n, size, steps, txs in rows],
        title="Proof size vs store size (drives the SV-A 4-5 tx counts)",
    ))

    sizes = {n: size for n, size, _, _ in rows}
    txs = {n: t for n, _, _, t in rows}
    # Logarithmic growth: 1000x more entries adds only a few steps.
    assert sizes[100_000] < 3 * sizes[100]
    # Byte arithmetic over a deterministic trie: exact, cannot flake.
    assert txs == {100: 2, 1_000: 3, 10_000: 3, 100_000: 4}
    # The paper's regime: a production-scale store needs 4-6 txs.
    assert 4 <= txs[100_000] <= 6
