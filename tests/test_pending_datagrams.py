"""A reference model of ICS-18's ``pendingDatagrams``, against the relayer.

ICS-18 (cosmos/ibc, "Relayer algorithms") defines a relayer by one
function of two chains' state, ``pendingDatagrams(chain, counterparty)``:
for every packet one chain has committed and the other has not
received, a receive — or, once the receiver's clock is past the
packet's deadline, a timeout for the sender; for every ack a receiver
wrote whose packet the sender still holds committed, an ack for the
sender.  The guest adds one datagram (§III-A): once the sender has
accepted an ack, the receiving guest is told to seal it.

:func:`pending_datagrams` below is that text, written over the whole
state of both chains — it scans every write either chain indexed, which
the relayer must not.  A receive stays owed while the sender's
commitment stands and no receipt exists: the destination, not the
relayer, refuses one that arrives after its deadline.

Hypothesis draws schedules of sends both ways over both link kinds,
some with deadlines, with relayer crashes and host RPC blackouts in
between, and checks two things:

* every datagram the relayer hands a chain was owed, by the model, when
  the relayer built it;
* once the run settles, the model owes nothing on either side: every
  commitment cleared, every received packet's ack sealed, every expired
  send timed out.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosInjector, FaultPlan
from repro.errors import SealedNodeError
from repro.ibc import commitment as paths

from tests.test_link_kinds import LoneLink


def stored(end, prefix: str, sequence: int, sealed: bool) -> bool:
    """Is ``prefix/sequence`` in ``end``'s store?  A sealed entry was
    processed and pruned (§III-A): a receipt there, a commitment gone."""
    try:
        return end.ibc.store.contains_seq(prefix, sequence)
    except SealedNodeError:
        return sealed


def committed(end, packet) -> bool:
    return stored(end, paths.commitment_prefix(
        packet.source_port, packet.source_channel), packet.sequence, False)


def received(end, packet) -> bool:
    return stored(end, paths.receipt_prefix(
        packet.destination_port, packet.destination_channel), packet.sequence, True)


def pending_datagrams(world: LoneLink) -> set[tuple[str, str, str, int]]:
    """Every datagram owed on ``world``'s link, as (kind, chain it goes
    to, source channel, sequence)."""
    owed = set()
    ends = (world.relayer.a, world.relayer.b)
    for src, dst in (ends, ends[::-1]):
        clock = dst.time(dst.latest_final())
        for kind, packet, _, _ in list(src.ibc.written.values()):
            key = (str(packet.source_channel), packet.sequence)
            if kind == "send" and src.sends(packet) and committed(src, packet):
                if not received(dst, packet):
                    owed.add(("recv", dst.chain_id, *key))
                    if packet.timeout_timestamp and clock > packet.timeout_timestamp:
                        owed.add(("timeout", src.chain_id, *key))
                elif ("ack", str(packet.destination_channel),
                      packet.sequence) in dst.ibc.written:
                    owed.add(("ack", src.chain_id, *key))
            elif (kind == "ack" and src.receives(packet)
                  and not committed(dst, packet)
                  and src.ibc.awaits_confirm(packet)):
                owed.add(("confirm", src.chain_id, *key))
    return owed


def audit_datagrams(world: LoneLink) -> list:
    """Check each datagram against the model as the relayer builds it;
    returns the list of those it built."""
    relayer = world.relayer
    built: list = []
    send, confirm_seal = relayer._send, relayer._confirm_seal

    def checked(kind, dst, packet):
        datagram = (kind, dst.chain_id, str(packet.source_channel), packet.sequence)
        assert datagram in pending_datagrams(world), (world.dep.sim.now, datagram)
        built.append(datagram)

    def audited_send(dst, op):
        checked(op.kind, dst, op.packet)
        send(dst, op)

    def audited_confirm_seal(receiver, packet):
        checked("confirm", receiver, packet)
        confirm_seal(receiver, packet)

    relayer._send, relayer._confirm_seal = audited_send, audited_confirm_seal
    return built


SENDS = st.lists(st.tuples(
    st.floats(0.0, 120.0),                   # when
    st.sampled_from(("g0", "g1")),           # from
    st.integers(1, 9),                       # amount
    st.one_of(st.none(), st.floats(1.0, 150.0))),    # deadline, seconds on
    min_size=1, max_size=8)
FAULTS = st.lists(st.tuples(
    st.sampled_from(("relayer_crash", "host_blackout")),
    st.floats(0.0, 150.0),                   # at
    st.floats(5.0, 90.0)),                   # for
    max_size=4)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(("guest-cp", "guest-guest")),
       seed=st.integers(0, 10_000), sends=SENDS, faults=FAULTS)
def test_the_relayer_builds_only_what_is_owed_and_leaves_nothing_owed(
        kind, seed, sends, faults):
    world = LoneLink(kind, seed)
    built = audit_datagrams(world)
    plan = FaultPlan(label="schedule")
    for fault, at, duration in sorted(faults):
        plan.add(fault, at=at, duration=duration)
    ChaosInjector(world.dep, plan).arm()
    for when, src, amount, deadline in sends:
        world.at(when, lambda src=src, amount=amount, when=when, deadline=deadline:
                 world.send(src, amount, world.t0 + when + deadline if deadline else 0.0))
    # Past the guest's Δ: a guest with nothing to commit still cuts a
    # block by then, so its clock passes every deadline.
    world.dep.run_for(4_000.0)

    assert pending_datagrams(world) == set()
    for name in ("g0", "g1"):
        sent = world.counters(name)
        assert sent.packets_sent == sent.packets_acknowledged + sent.packets_timed_out
        # (A send whose deadline passed before it executed is refused.)
        assert bool(built) >= bool(sent.packets_sent)
