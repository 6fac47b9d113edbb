"""The Guest Contract's op table: one row per opcode, no clock.

``FIELDS`` (guest/instructions.py) is the wire format of every
instruction and ``HANDLERS`` (guest/contract.py) its handler and its
init / halt / staging rule.  (a) the two tables and ``Op`` name the same
opcodes; (b) ``decode`` inverts ``encode`` and refuses every other
length; (c) every opcode still travels as the bytes its named builder
emitted before there was a table (four staged rows lost theirs to
``encode``: only the API built them, and it now takes the ``Op``);
(d) an uninitialised and a halted contract refuse each opcode as they
did before the table, in the same order; (e) the format lives behind one
module; and docs/PROTOCOL.md §8 lists every row.
The vectors of (c) and the classes of (d) were taken on the commit
before the table existed.
"""

import ast
import pathlib
import re

import pytest
from hypothesis import given, strategies as st

import repro.guest
from repro.crypto.keys import PublicKey, Signature
from repro.crypto.simsig import SimSigScheme
from repro.errors import GuestError, ProgramError, ReproError
from repro.guest import instructions as ins
from repro.guest.config import GuestConfig
from repro.guest.contract import GuestContract
from repro.guest.instructions import Op
from repro.host.accounts import Address
from repro.host.chain import HostChain
from repro.host.compute import ComputeMeter
from repro.host.programs import InvokeContext
from repro.sim import Simulation

KEY = PublicKey(bytes(range(32)))
SIG = Signature(bytes(range(64, 128)))


# ---------------------------------------------------------------------------
# (a) one set of opcodes
# ---------------------------------------------------------------------------

def test_every_opcode_has_one_format_and_one_handler():
    from repro.guest.contract import HANDLERS
    assert set(ins.FIELDS) == set(HANDLERS) == set(Op)


# ---------------------------------------------------------------------------
# (b) decode inverts encode, and refuses every other length
# ---------------------------------------------------------------------------

def _values(kind):
    varints = st.integers(min_value=0, max_value=2**63 - 1)
    return {
        ins.VARINT: varints,
        ins.BYTES: st.binary(max_size=40),
        ins.TEXT: st.text(max_size=12),
        ins.KEY: st.binary(min_size=32, max_size=32).map(PublicKey),
        ins.SIGNATURE: st.binary(min_size=64, max_size=64).map(Signature),
        # Whole milliseconds, as far out as the year 2100.
        ins.MILLIS: st.integers(0, 4_102_444_800_000).map(lambda ms: ms / 1000.0),
        ins.STAGED: st.none() | varints,
    }[kind]


@pytest.mark.parametrize("op", list(Op), ids=lambda op: op.name)
def test_decode_inverts_encode_and_refuses_other_lengths(op):
    @given(st.tuples(*map(_values, ins.FIELDS[op])), st.integers(0, 255))
    def check(values, extra):
        data = ins.encode(op, *values)
        assert data[0] == op
        payload = data[1:]
        assert tuple(ins.decode(op, payload)) == values
        for cut in range(len(payload)):
            with pytest.raises((ValueError, ProgramError)):
                ins.decode(op, payload[:cut])
        with pytest.raises((ValueError, ProgramError)):
            ins.decode(op, payload + bytes([extra]))
    check()


def test_encode_refuses_a_wrong_field_count():
    with pytest.raises(ValueError):
        ins.encode(Op.CHUNK, 1, 2, 3)
    with pytest.raises(ValueError):
        ins.encode(Op.GENERATE_BLOCK, 1)


@given(st.binary(min_size=32, max_size=32).map(PublicKey),
       st.integers(0, 2**63 - 1), st.binary(max_size=40))
def test_evidence_payload_round_trips(offender, height, fingerprint):
    kind, payload = ins.decode(
        Op.EVIDENCE, ins.evidence(offender, height, fingerprint)[1:])
    assert kind == 1
    assert ins.read_evidence_payload(payload) == (offender, height, fingerprint)
    with pytest.raises(ValueError):
        ins.read_evidence_payload(payload + b"\x00")
    with pytest.raises(ValueError):
        ins.read_evidence_payload(payload[:-1])


# ---------------------------------------------------------------------------
# (c) not one byte on the wire moved
# ---------------------------------------------------------------------------

PINNED = {
    "SEND_PACKET": (
        lambda: ins.send_packet("transfer", "channel-7", b"\x00payload\xff",
                                1_727_740_800.125),
        "01087472616e73666572096368616e6e656c2d3709007061796c6f6164ff"
        "fdd881aba432"),
    "GENERATE_BLOCK": (ins.generate_block, "02"),
    "SIGN_BLOCK": (
        lambda: ins.sign_block(300, KEY, SIG),
        "03ac02" + bytes(KEY).hex() + bytes(SIG).hex()),
    "STAKE": (lambda: ins.stake(KEY, 10**12),
              "04" + bytes(KEY).hex() + "80a094a58d1d"),
    "UNSTAKE": (lambda: ins.unstake(KEY, 129), "05" + bytes(KEY).hex() + "8101"),
    "WITHDRAW_STAKE": (lambda: ins.withdraw_stake(KEY), "06" + bytes(KEY).hex()),
    "CHUNK": (lambda: ins.chunk(70_000, 2, 5, b"chunk-bytes"),
              "07f0a20402050b6368756e6b2d6279746573"),
    "LC_SIG_BATCH": (lambda: ins.lc_sig_batch(16_384), "08808001"),
    "LC_FINALIZE": (lambda: ins.lc_finalize(16_384, 11), "098080010b"),
    "RECV_EXEC": (lambda: ins.recv_exec(128), "0a8001"),
    "ACK_EXEC": (lambda: ins.encode(Op.ACK_EXEC, 0), "0b00"),
    "TIMEOUT_EXEC": (lambda: ins.encode(Op.TIMEOUT_EXEC, 2**40),
                     "0c808080808020"),
    "CONFIRM_ACK": (lambda: ins.confirm_ack("transfer", "channel-0", 4_999),
                    "0d087472616e73666572096368616e6e656c2d308727"),
    "HANDSHAKE": (lambda: ins.handshake(b"\x01handshake-datagram"),
                  "0f130168616e647368616b652d646174616772616d"),
    "HANDSHAKE_EXEC": (lambda: ins.encode(Op.HANDSHAKE_EXEC, 77), "104d"),
    "SELF_DESTRUCT": (ins.self_destruct, "11"),
    "CLAIM_REWARDS": (lambda: ins.claim_rewards(KEY), "12" + bytes(KEY).hex()),
    "BATCH_EXEC": (lambda: ins.batch_exec(None, b"tail-of-the-payload"),
                   "1300137461696c2d6f662d7468652d7061796c6f6164"),
    "BATCH_EXEC staged": (lambda: ins.batch_exec(300, b""), "1301ac0200"),
    "SIBLING_UPDATE": (lambda: ins.sibling_update("09-guest-3", 1_000),
                       "140a30392d67756573742d33e807"),
    "ACCOUNTABILITY": (lambda: ins.encode(Op.ACCOUNTABILITY, 9), "1509"),
}
#: What ``GuestApi.submit_evidence(KEY, 300, 07 x 32, ...)`` shipped
#: when it packed the payload by hand.
PINNED_EVIDENCE = "0e0143" + bytes(KEY).hex() + "ac0220" + "07" * 32


@pytest.mark.parametrize("name", PINNED)
def test_instruction_is_built_as_its_pinned_bytes(name):
    build, pinned = PINNED[name]
    assert build().hex() == pinned


def test_every_opcode_has_a_pinned_vector():
    assert {name.split()[0] for name in PINNED} | {"EVIDENCE"} == {
        op.name for op in Op}


def test_evidence_builder_emits_its_pinned_bytes():
    assert ins.evidence(KEY, 300, b"\x07" * 32).hex() == PINNED_EVIDENCE


def test_submit_evidence_ships_the_pinned_bytes():
    from repro.guest.api import GuestApi

    class Tap:
        def submit(self, tx, on_result=None):
            self.data = tx.instructions[0].data

    tap = Tap()
    contract = GuestContract(GuestConfig(), "cp-chain")
    GuestApi(tap, contract, Address.derive("fisherman")).submit_evidence(
        KEY, 300, b"\x07" * 32, SIG, b"message")
    assert tap.data.hex() == PINNED_EVIDENCE


# ---------------------------------------------------------------------------
# (d) the order of refusal
# ---------------------------------------------------------------------------

NOT_INITIALIZED = (GuestError, "not initialized")
HALTED = (GuestError, "self-destructed")
UNDECODABLE = (ValueError, "truncated")
#: What the bare opcode byte (no payload) raises on a contract that was
#: never initialised, then on a halted one.  Every opcode that decodes
#: anything has at least one field, so "truncated" means the decoder was
#: reached; GENERATE_BLOCK and SELF_DESTRUCT have none and need a head.
REFUSALS = {
    Op.SEND_PACKET: (NOT_INITIALIZED, HALTED),
    Op.GENERATE_BLOCK: (NOT_INITIALIZED, HALTED),
    Op.SIGN_BLOCK: (NOT_INITIALIZED, HALTED),
    Op.STAKE: (UNDECODABLE, HALTED),
    Op.UNSTAKE: (UNDECODABLE, UNDECODABLE),
    Op.WITHDRAW_STAKE: (UNDECODABLE, UNDECODABLE),
    Op.CHUNK: (UNDECODABLE, HALTED),
    Op.LC_SIG_BATCH: (UNDECODABLE, HALTED),
    Op.LC_FINALIZE: (UNDECODABLE, HALTED),
    Op.RECV_EXEC: (NOT_INITIALIZED, HALTED),
    Op.ACK_EXEC: (NOT_INITIALIZED, HALTED),
    Op.TIMEOUT_EXEC: (NOT_INITIALIZED, HALTED),
    Op.CONFIRM_ACK: (UNDECODABLE, HALTED),
    Op.EVIDENCE: (NOT_INITIALIZED, HALTED),
    Op.HANDSHAKE: (UNDECODABLE, HALTED),
    Op.HANDSHAKE_EXEC: (UNDECODABLE, HALTED),
    Op.SELF_DESTRUCT: (NOT_INITIALIZED, HALTED),
    Op.CLAIM_REWARDS: (UNDECODABLE, HALTED),
    Op.BATCH_EXEC: (NOT_INITIALIZED, HALTED),
    Op.SIBLING_UPDATE: (NOT_INITIALIZED, HALTED),
    Op.ACCOUNTABILITY: (NOT_INITIALIZED, HALTED),
}
UNKNOWN_OPCODE = (ProgramError, "unknown opcode")


def _refusal(data: bytes, halted: bool):
    """Run one instruction on a contract that was never initialised."""
    contract = GuestContract(GuestConfig(), "cp-chain")
    contract.halted = halted
    host = HostChain(Simulation(seed=1), SimSigScheme())
    ctx = InvokeContext(
        chain=host, accounts_db=host.accounts, instruction_accounts=(),
        payer=Address.derive("payer"), signers=frozenset(),
        meter=ComputeMeter(), slot=0, unix_time=0.0, verified_signatures=())
    with pytest.raises((ReproError, ValueError)) as refused:
        contract.execute(ctx, data)
    assert contract._current_ctx is None
    return refused


def _assert_refused(refused, expected):
    kind, fragment = expected
    assert refused.type is kind
    assert fragment in str(refused.value)


@pytest.mark.parametrize("op", list(Op), ids=lambda op: op.name)
def test_refusal_order_is_pinned(op):
    uninitialised, halted = REFUSALS[op]
    _assert_refused(_refusal(bytes([op]), halted=False), uninitialised)
    _assert_refused(_refusal(bytes([op]), halted=True), halted)


@pytest.mark.parametrize("opcode", [0, 22, 255])
def test_unknown_opcode_is_refused_after_the_halt(opcode):
    _assert_refused(_refusal(bytes([opcode]), halted=False), UNKNOWN_OPCODE)
    _assert_refused(_refusal(bytes([opcode]), halted=True), HALTED)


@pytest.mark.parametrize("halted", [False, True])
def test_empty_instruction_is_refused_first(halted):
    _assert_refused(_refusal(b"", halted), (ProgramError, "empty instruction"))


# ---------------------------------------------------------------------------
# (e) the format is behind one module
# ---------------------------------------------------------------------------

def _imports(path: pathlib.Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_only_instructions_touches_the_codec():
    package = pathlib.Path(repro.guest.__file__).parent
    touching = sorted(path.name for path in package.glob("*.py")
                      if "repro.encoding" in _imports(path))
    assert touching == ["instructions.py"]


# ---------------------------------------------------------------------------
# The spec lists every row
# ---------------------------------------------------------------------------

def test_protocol_doc_lists_every_opcode():
    doc = (pathlib.Path(__file__).parent.parent / "docs" / "PROTOCOL.md").read_text()
    section = doc.split("## 8. Guest Contract instructions")[1].split("\n## ")[0]
    rows = {(int(number), name)
            for number, name in re.findall(r"^\| (\d+) ([A-Z_]+) \|", section, re.M)}
    assert rows == {(int(op), op.name) for op in Op}
