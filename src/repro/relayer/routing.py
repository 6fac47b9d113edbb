"""Named multi-hop routes over the fabric (docs/FABRIC.md).

The :class:`RouteTable` resolves a route into a first-hop channel plus a
``fwd:``-encoded receiver for :class:`repro.fabric.forward`; each hop is
relayed by an ordinary :class:`~repro.relayer.relayer.Relayer`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fabric.forward import forward_receiver


@dataclass(frozen=True)
class Hop:
    """One egress in a route: the channel chain ``chain`` sends on."""

    chain: str
    port: str
    channel: str


class RouteTable:
    """Named routes, each a list of per-chain egress hops in path order.

    The first hop belongs to the *origin* chain and is dialled directly;
    the remaining hops are encoded into the ICS-20 receiver as nested
    ``fwd:`` segments (see :mod:`repro.fabric.forward`), which each
    intermediate guest's forwarding middleware peels and executes.
    """

    def __init__(self) -> None:
        self._routes: dict[str, list[Hop]] = {}

    def add(self, name: str, hops: list[Hop]) -> None:
        if not hops:
            raise ValueError(f"route {name!r} needs at least one hop")
        self._routes[name] = list(hops)

    def route(self, name: str) -> list[Hop]:
        if name not in self._routes:
            raise KeyError(f"unknown route {name!r}")
        return list(self._routes[name])

    def names(self) -> list[str]:
        return sorted(self._routes)

    def first_hop(self, name: str) -> Hop:
        return self.route(name)[0]

    def hop_count(self, name: str) -> int:
        return len(self.route(name))

    def receiver_for(self, name: str, final_receiver: str) -> str:
        """The receiver string the origin sends with: all hops after the
        first, folded into nested ``fwd:`` segments."""
        rest = [(hop.port, hop.channel) for hop in self.route(name)[1:]]
        return forward_receiver(rest, final_receiver)
