"""The chaos injector: arming a :class:`FaultPlan` against a deployment.

The injector is a pure observer-with-side-effects bolted onto an already
built :class:`~repro.deployment.Deployment`.  Arming it installs two
duck-typed fault policies (``host.chaos`` and ``gossip.chaos``) that the
production code consults at its fault edges, and schedules the actor
faults (crashes, equivocation, bad signatures) as kernel events.

Determinism: every probabilistic decision draws from the injector's own
:class:`~repro.sim.rng.Rng`, minted via ``derived_seed`` — creating or
arming an injector consumes **zero** draws from the simulation's shared
streams, so a fault-free twin run of the same seed sees bit-identical
arrivals, latencies and validator behaviour.  That is what makes the
differential ledger check in ``repro.experiments.chaos`` meaningful.

Checkpoint compatibility: scheduled callbacks are bound methods of this
class with plain ``int``/``float`` arguments, and the policies hold only
plain data; a chaos world snapshots and replays through
``repro.checkpoint`` like any other.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.chaos.plan import FaultPlan, FaultPlanError, FaultSpec
from repro.crypto.hashing import Hash
from repro.errors import HostUnavailableError, UnknownBlockError
from repro.fisherman.evidence import (
    FINALISATION_TOPIC,
    GOSSIP_TOPIC,
    BlockClaim,
    FinalisationClaim,
)
from repro.guest.block import sign_message
from repro.sim.rng import Rng

_HOST_WINDOW_KINDS = ("host_blackout", "host_tx_drop",
                      "host_fee_spike", "host_slot_stall")
_GOSSIP_WINDOW_KINDS = ("gossip_drop", "gossip_duplicate",
                        "gossip_delay", "gossip_partition")

#: Recovery watcher cadence and give-up horizon (simulated seconds).
WATCH_POLL_SECONDS = 1.0
WATCH_CAP_SECONDS = 900.0


class GossipVerdict:
    """Per-delivery decision returned by the gossip fault policy."""

    __slots__ = ("drop", "extra_delay", "duplicates")

    def __init__(self, drop: bool = False, extra_delay: float = 0.0,
                 duplicates: int = 0) -> None:
        self.drop = drop
        self.extra_delay = extra_delay
        self.duplicates = duplicates


class _HostFaults:
    """The policy :class:`~repro.host.chain.HostChain` consults."""

    def __init__(self, injector: "ChaosInjector") -> None:
        self._injector = injector

    def rpc_blocked(self, now: float) -> bool:
        return self._injector._active("host_blackout", now) is not None

    def drop_tx(self, now: float) -> bool:
        spec = self._injector._active("host_tx_drop", now)
        if spec is None:
            return False
        return self._injector._rng.random() < spec.probability

    def congestion_override(self, time: float) -> Optional[float]:
        spec = self._injector._active("host_fee_spike", time)
        if spec is None:
            return None
        return min(1.0, spec.magnitude)

    def slot_stalled(self, now: float) -> bool:
        return self._injector._active("host_slot_stall", now) is not None


class _GossipFaults:
    """The policy :class:`~repro.sim.gossip.GossipNetwork` consults."""

    def __init__(self, injector: "ChaosInjector") -> None:
        self._injector = injector

    def on_delivery(self, topic: str, label: str) -> GossipVerdict:
        injector = self._injector
        now = injector.sim.now
        verdict = GossipVerdict()
        for spec in injector._active_all("gossip_partition", now):
            if spec.target is not None and spec.target in label:
                verdict.drop = True
                return verdict
        spec = injector._active("gossip_drop", now)
        if spec is not None and injector._rng.random() < spec.probability:
            verdict.drop = True
            return verdict
        spec = injector._active("gossip_duplicate", now)
        if spec is not None and injector._rng.random() < spec.probability:
            verdict.duplicates = max(1, int(spec.magnitude))
        spec = injector._active("gossip_delay", now)
        if spec is not None and injector._rng.random() < spec.probability:
            verdict.extra_delay = injector._rng.expovariate(
                1.0 / max(spec.magnitude, 1e-9))
        return verdict


class ChaosInjector:
    """Arms a :class:`FaultPlan` against a built deployment."""

    def __init__(self, deployment, plan: FaultPlan) -> None:
        plan.validate()
        self.deployment = deployment
        self.sim = deployment.sim
        self.plan = plan
        #: Derived stream: never perturbs the shared simulation rng.
        self._rng = Rng(self.sim.rng.derived_seed(f"chaos:{plan.label}"))
        self._armed = False
        self._t0 = 0.0
        self._windows: dict[str, list[tuple[float, float, FaultSpec]]] = {}
        #: One entry per spec, filled in as faults fire and recover;
        #: embedded verbatim in ``BENCH_chaos.json``.
        self.log: list[dict] = []
        #: spec index -> colluding validator keys, recorded when a
        #: quorum equivocation fires (drives its recovery predicate and
        #: the soak's attribution invariant).
        self._quorum_offenders: dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------

    def arm(self) -> "ChaosInjector":
        """Install the fault policies and schedule every fault.

        Fault times are relative to the moment of arming (so a plan can
        be armed after link establishment without re-basing it).
        """
        if self._armed:
            raise FaultPlanError("injector already armed")
        self._armed = True
        self._t0 = self.sim.now
        for kind in _HOST_WINDOW_KINDS + _GOSSIP_WINDOW_KINDS:
            self._windows[kind] = []
        for spec in self.plan.specs:
            if spec.kind in self._windows:
                self._windows[spec.kind].append(
                    (self._t0 + spec.at, self._t0 + spec.end, spec))
        self.deployment.host.chaos = _HostFaults(self)
        self.deployment.gossip.chaos = _GossipFaults(self)
        self.log = [
            {"kind": spec.kind, "at": spec.at, "duration": spec.duration,
             "target": spec.target, "began": False, "recovered_after": None}
            for spec in self.plan.specs
        ]
        for index, spec in enumerate(self.plan.specs):
            self.sim.schedule(spec.at, self._begin, index)
        return self

    # ------------------------------------------------------------------
    # Window queries (used by the policies)
    # ------------------------------------------------------------------

    def _active(self, kind: str, now: float) -> Optional[FaultSpec]:
        for start, end, spec in self._windows.get(kind, ()):
            if start <= now < end:
                return spec
        return None

    def _active_all(self, kind: str, now: float) -> list[FaultSpec]:
        return [spec for start, end, spec in self._windows.get(kind, ())
                if start <= now < end]

    # ------------------------------------------------------------------
    # Fault firing
    # ------------------------------------------------------------------

    def _begin(self, index: int) -> None:
        spec = self.plan.specs[index]
        self.log[index]["began"] = True
        self.sim.trace.count(f"chaos.faults.{spec.kind}")
        kind = spec.kind
        if kind == "validator_crash":
            node = self._node(spec.target_index())
            node._outages.append((self._t0 + spec.at, self._t0 + spec.end))
        elif kind == "validator_equivocate":
            self._equivocate(spec)
        elif kind == "validator_bad_signature":
            for delay in self._repeat_offsets(spec):
                self.sim.schedule(delay, self._send_bad_signature,
                                  spec.target_index())
        elif kind == "validator_quorum_equivocate":
            self._quorum_equivocate(index, spec)
        elif kind == "relayer_crash":
            self.deployment.relayer.crash()
        elif kind == "cranker_crash":
            self.deployment.cranker.paused = True
        # Windowed host/gossip faults need no action here: the policies
        # consult the window tables on every edge crossing.
        self.sim.schedule(max(spec.duration, 0.0) + WATCH_POLL_SECONDS,
                          self._watch_recovery, index, 0.0)
        if kind == "relayer_crash":
            self.sim.schedule(spec.duration, self._restart_relayer)
        elif kind == "cranker_crash":
            self.sim.schedule(spec.duration, self._resume_cranker)

    def _restart_relayer(self) -> None:
        self.deployment.relayer.restart()

    def _resume_cranker(self) -> None:
        self.deployment.cranker.paused = False
        self.sim.trace.count("chaos.cranker.resumed")

    def _node(self, index: int):
        for node in self.deployment.validators:
            if node.profile.index == index:
                return node
        raise FaultPlanError(f"no validator with index {index}")

    # -- Byzantine behaviour -------------------------------------------

    @staticmethod
    def _repeat_offsets(spec: FaultSpec) -> list[float]:
        """Send times for a repeated Byzantine action: ``magnitude``
        repeats spread evenly over ``duration`` seconds (0.5 s apart
        when no duration is given).  Spreading lets repeats outlive a
        concurrent gossip partition or loss window."""
        repeats = max(1, int(spec.magnitude))
        step = (spec.duration / max(repeats - 1, 1)
                if spec.duration > 0 else 0.5)
        return [step * copy for copy in range(repeats)]

    def _equivocate(self, spec: FaultSpec) -> None:
        """Gossip a forged fingerprint signed by the target validator at
        the current head height.  Repeats defeat chaotic gossip loss;
        the fisherman dedups and the contract slashes exactly once."""
        contract = self.deployment.contract
        if not contract.initialized:
            return
        keypair = self.deployment.validator_keypair(spec.target_index())
        height = contract.head.height
        fingerprint = self._rng.bytes(32)
        claim = BlockClaim(
            validator=keypair.public_key,
            height=height,
            fingerprint=fingerprint,
            signature=keypair.sign(sign_message(height, fingerprint)),
        )
        for delay in self._repeat_offsets(spec):
            self.sim.schedule(delay, self._publish_claim, claim)

    def _publish_claim(self, claim: BlockClaim) -> None:
        self.sim.trace.count("chaos.equivocations.published")
        self.deployment.gossip.publish(GOSSIP_TOPIC, claim)

    def _quorum_equivocate(self, index: int, spec: FaultSpec) -> None:
        """A colluding quorum finalises a fork: the stake-heaviest
        subset of the latest finalised block's signers that carries
        quorum power co-signs a header identical but for a forged state
        root, and gossips the whole finalisation.  This is the §III-C
        worst case — no single signature is individually refutable
        without the real finalisation — and exactly what an
        AccountabilityProof prosecutes (docs/ACCOUNTABILITY.md)."""
        contract = self.deployment.contract
        if not contract.initialized:
            return
        block = None
        for height in range(contract.head.height, -1, -1):
            try:
                candidate = contract.block_at(height)
            except UnknownBlockError:
                continue
            if candidate.finalised:
                block = candidate
                break
        if block is None:
            return  # nothing finalised yet: no conflict to manufacture
        epoch = contract.epochs.get(block.header.epoch_id)
        if epoch is None:
            return
        keypairs = {node.keypair.public_key: node.keypair
                    for node in self.deployment.validators}
        signers = [public_key for public_key in block.signers
                   if public_key in keypairs]
        signers.sort(key=lambda pk: (-epoch.validators.get(pk, 0), bytes(pk)))
        if spec.target is not None:
            # Force the targeted validator to the front so the colluding
            # set provably overlaps other faults aimed at it (keeps the
            # combined storm from ejecting every candidate at once).
            preferred = self.deployment.validator_keypair(
                spec.target_index()).public_key
            if preferred in signers:
                signers.remove(preferred)
                signers.insert(0, preferred)
        colluders: list = []
        power = 0
        for public_key in signers:
            colluders.append(public_key)
            power += epoch.validators.get(public_key, 0)
            if power >= epoch.quorum_stake:
                break
        if power < epoch.quorum_stake:
            return  # cannot reach quorum with controllable keys
        forged = replace(block.header, state_root=Hash(self._rng.bytes(32)))
        message = forged.sign_message()
        claim = FinalisationClaim(
            header=forged,
            signatures=tuple(
                (public_key, keypairs[public_key].sign(message))
                for public_key in sorted(colluders, key=bytes)
            ),
        )
        self._quorum_offenders[index] = tuple(sorted(colluders, key=bytes))
        for delay in self._repeat_offsets(spec):
            self.sim.schedule(delay, self._publish_finalisation, claim)

    def _publish_finalisation(self, claim: FinalisationClaim) -> None:
        self.sim.trace.count("chaos.quorum_equivocations.published")
        self.deployment.gossip.publish(FINALISATION_TOPIC, claim)

    def _send_bad_signature(self, validator_index: int) -> None:
        """Submit a Sign transaction whose precompile entry verifies —
        the signature genuinely covers the submitted message — but whose
        message is not the block's sign-message, so the contract's
        is_signature_verified check rejects it (a failed transaction,
        not a slashable offence: nothing conflicting ever hit gossip)."""
        contract = self.deployment.contract
        if not contract.initialized:
            return
        node = self._node(validator_index)
        height = contract.head.height
        try:
            block = contract.block_at(height)
        except Exception:
            return
        corrupted = b"chaos-forged:" + block.header.sign_message()
        try:
            node.api.sign_block(height, node.keypair, corrupted,
                                on_result=self._bad_signature_result)
        except HostUnavailableError:
            self.sim.trace.count("chaos.bad_signature.deferred")

    def _bad_signature_result(self, receipt) -> None:
        if receipt.success:
            # Must not happen: the contract accepted a signature over a
            # non-block message.  Surface loudly for the invariant check.
            self.sim.trace.count("chaos.bad_signature.ACCEPTED")
        else:
            self.sim.trace.count("chaos.bad_signature.rejected")

    # ------------------------------------------------------------------
    # Recovery watchers
    # ------------------------------------------------------------------

    def _watch_recovery(self, index: int, waited: float) -> None:
        """Poll until the fault's recovery predicate holds, then record
        the elapsed time past the window's end."""
        spec = self.plan.specs[index]
        if self._recovered(index, spec):
            self.sim.trace.observe(
                f"chaos.recovery_seconds.{spec.kind}", waited)
            self.log[index]["recovered_after"] = waited
            return
        if waited >= WATCH_CAP_SECONDS:
            self.sim.trace.count("chaos.recovery.timeout")
            self.log[index]["recovered_after"] = -1.0
            return
        self.sim.schedule(WATCH_POLL_SECONDS, self._watch_recovery,
                          index, waited + WATCH_POLL_SECONDS)

    def _recovered(self, index: int, spec: FaultSpec) -> bool:
        kind = spec.kind
        if kind in ("host_blackout", "host_tx_drop", "host_fee_spike",
                    "host_slot_stall", "relayer_crash"):
            return self.deployment.relayer.settled()
        if kind in _GOSSIP_WINDOW_KINDS:
            return True  # transport-level; nothing persists past the window
        if kind in ("validator_crash", "validator_bad_signature"):
            contract = self.deployment.contract
            return contract.initialized and contract.head.finalised
        if kind == "validator_equivocate":
            keypair = self.deployment.validator_keypair(spec.target_index())
            return self.deployment.contract.staking.stake_of(
                keypair.public_key) == 0
        if kind == "validator_quorum_equivocate":
            offenders = self._quorum_offenders.get(index)
            if offenders is None:
                return True  # never fired (nothing finalised): vacuous
            contract = self.deployment.contract
            spared: set[str] = set()
            for record in contract.accountability_slashes:
                spared.update(record["spared"])
            # Recovered when every colluder is either slashed to zero or
            # provably spared by the contract's liveness floor.
            return all(contract.staking.stake_of(pk) == 0
                       or pk.short() in spared
                       for pk in offenders)
        if kind == "cranker_crash":
            return not self.deployment.cranker.paused
        return True

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def summary(self) -> dict:
        """Plan + per-fault outcomes, for ``BENCH_chaos.json``, and how
        many quorum equivocations actually fired (one needs a finalised
        block and a controllable quorum)."""
        return {"plan": self.plan.to_dict(), "faults": list(self.log),
                "quorum_equivocations_seeded": len(self._quorum_offenders)}
