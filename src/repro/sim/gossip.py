"""A tiny gossip network for off-chain messages.

Misbehaviour evidence (§III-C) lives off-chain until a Fisherman submits
it: a byzantine validator's conflicting block signature circulates on
the validator gossip layer, not on the host chain.  This publish/
subscribe fabric models that layer with per-subscriber delivery delays.

Fault injection (docs/CHAOS.md) hooks in at the delivery edge: an
optional ``chaos`` policy may drop, duplicate, delay or partition each
(publisher, subscriber) delivery independently.  Subscriber callbacks
are isolated — one raising subscriber never prevents delivery to the
rest — and subscriptions can be withdrawn with :meth:`unsubscribe`,
which crash/restart actor faults rely on.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.kernel import Simulation


class Subscription:
    """A registered subscriber; keep it to :meth:`GossipNetwork.unsubscribe`.

    The optional ``label`` names the subscriber for partition faults
    (chaos policies match on it) and for the error trace.
    """

    __slots__ = ("topic", "callback", "label", "active")

    def __init__(self, topic: str, callback: Callable[[Any], None],
                 label: Optional[str] = None) -> None:
        self.topic = topic
        self.callback = callback
        self.label = label if label is not None else getattr(
            callback, "__qualname__", repr(callback))
        self.active = True


class GossipNetwork:
    """Topic-based pub/sub with simulated propagation delay."""

    def __init__(self, sim: Simulation, mean_delay: float = 0.5) -> None:
        self.sim = sim
        self.mean_delay = mean_delay
        self._rng = sim.rng.fork("gossip")
        self._subscribers: dict[str, list[Subscription]] = {}
        #: Optional fault policy (duck-typed; see repro.chaos.injector).
        #: Consulted once per (message, subscriber) delivery.
        self.chaos = None
        #: Deliveries that raised, by subscriber label (kept even when
        #: tracing is off so tests can assert on isolation).
        self.subscriber_errors: dict[str, int] = {}

    def subscribe(self, topic: str, callback: Callable[[Any], None],
                  label: Optional[str] = None) -> Subscription:
        subscription = Subscription(topic, callback, label)
        self._subscribers.setdefault(topic, []).append(subscription)
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        """Withdraw a subscription.  Already-scheduled deliveries are
        suppressed too (the subscriber is gone, e.g. crashed)."""
        subscription.active = False
        entries = self._subscribers.get(subscription.topic)
        if entries is not None:
            try:
                entries.remove(subscription)
            except ValueError:
                pass

    def publish(self, topic: str, message: Any) -> None:
        entries = self._subscribers.get(topic)
        if not entries:
            return
        for subscription in list(entries):
            # Draw the nominal delay unconditionally so a chaos policy
            # never perturbs the delivery times of unaffected runs.
            delay = self._rng.expovariate(1.0 / self.mean_delay)
            if self.chaos is not None:
                verdict = self.chaos.on_delivery(topic, subscription.label)
                if verdict.drop:
                    self.sim.trace.count("chaos.gossip.dropped")
                    continue
                delay += verdict.extra_delay
                if verdict.extra_delay:
                    self.sim.trace.count("chaos.gossip.delayed")
                if verdict.duplicates:
                    self.sim.trace.count(
                        "chaos.gossip.duplicated", verdict.duplicates)
                    for copy in range(verdict.duplicates):
                        self.sim.schedule(
                            delay + 0.05 * (copy + 1),
                            self._deliver, subscription, message)
            self.sim.schedule(delay, self._deliver, subscription, message)

    def _deliver(self, subscription: Subscription, message: Any) -> None:
        """Invoke one subscriber, isolating its failures.

        A raising subscriber is an off-chain observer bug; it must not
        tear down the simulated network (or the kernel run) for everyone
        else on the topic.
        """
        if not subscription.active:
            return
        try:
            subscription.callback(message)
        except Exception:
            self.subscriber_errors[subscription.label] = (
                self.subscriber_errors.get(subscription.label, 0) + 1)
            self.sim.trace.count("gossip.subscriber_errors")
