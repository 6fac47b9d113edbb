"""Multi-guest interop fabric: N guests on one host, routed links.

The fabric layer generalises the single-guest deployment to an
arbitrary topology of guest contracts sharing one host chain, linked to
each other (host-verified sibling clients, no signature re-verification)
and to external counterparties, with packet-forwarding middleware so a
transfer can route across several hops with hop-scoped acks and timeout
unwinding.  See ``docs/FABRIC.md``.
"""

from repro.fabric.conservation import (
    ConservationChecker,
    ConservationReport,
    base_denom,
    escrow_totals,
    is_escrow,
    non_escrow_totals,
)
from repro.fabric.deployment import FabricDeployment, FabricLink, build_fabric
from repro.fabric.forward import (
    FORWARD_PREFIX,
    ForwardMiddleware,
    ForwardRoute,
    forward_receiver,
    parse_forward,
)
from repro.fabric.sibling import SiblingGuestClient
from repro.fabric.topology import (
    CounterpartySpec,
    GuestSpec,
    LinkSpec,
    RouteSpec,
    TopologyConfig,
)
from repro.relayer.routing import Hop, RouteTable

__all__ = [
    "ConservationChecker",
    "ConservationReport",
    "base_denom",
    "escrow_totals",
    "is_escrow",
    "non_escrow_totals",
    "FabricDeployment",
    "FabricLink",
    "build_fabric",
    "FORWARD_PREFIX",
    "ForwardMiddleware",
    "ForwardRoute",
    "forward_receiver",
    "parse_forward",
    "SiblingGuestClient",
    "CounterpartySpec",
    "GuestSpec",
    "LinkSpec",
    "RouteSpec",
    "TopologyConfig",
    "Hop",
    "RouteTable",
]
