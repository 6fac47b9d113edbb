"""Fee strategies: base fees, priority fees and block bundles.

§V-A observes two cost clusters for sending a packet — 1.40 USD with
Solana priority fees and 3.02 USD with Jito block bundles — and §V-B
reports the relayer's base-fee costs of 0.1 cents per transaction plus
0.1 cents per additional verified signature.  The three strategies here
implement those models:

* :class:`BaseFee` — 5000 lamports per signature (transaction signatures
  plus precompile verifies), nothing else.  Cheapest, slowest to land
  under congestion.
* :class:`PriorityFee` — base fee plus ``compute_unit_price`` micro-
  lamports per requested compute unit.  Lands quickly.
* :class:`BundleFee` — base fee plus a flat tip to the block producer
  (the Jito model [35]).  Lands quickly *and* atomically: every
  transaction of a bundle executes in the same block, which is how
  ReceivePacket's 4–5 transactions all land together (§V-A).

Each strategy also models its *scheduling delay*: how long a transaction
waits in the mempool before a block producer picks it up, as a function
of the chain's congestion level.  These distributions are where the
latency clusters of Fig. 2 and Fig. 4 come from.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.sim.rng import Rng
from repro.units import BASE_FEE_LAMPORTS_PER_SIGNATURE, MICROLAMPORTS_PER_LAMPORT

#: The two fixed price points of Fig. 3: what the deployment's senders
#: paid for a SendPacket (§V-A), at 200 USD/SOL.  Priority: 5 000 000
#: µlamports/CU over the ``MAX_COMPUTE_UNITS`` (1.4 M CU) budget they
#: request is, in the µlamport integer math, exactly 7 000 000 lamports
#: = 1.40 USD.  Bundle: 3.02 USD less the base fee is a Jito tip of
#: ≈ 15.1 M lamports.
SEND_PRIORITY_CU_PRICE: int = 5_000_000
SEND_BUNDLE_TIP_LAMPORTS: int = 15_090_000


class FeeStrategy(abc.ABC):
    """How a transaction pays for inclusion, and how fast it lands."""

    @abc.abstractmethod
    def fee(self, signature_count: int, verify_count: int, compute_budget: int) -> int:
        """Total fee in lamports."""

    @abc.abstractmethod
    def scheduling_delay(self, rng: Rng, congestion: float) -> float:
        """Seconds the mempool holds the transaction before inclusion.

        ``congestion`` is the chain's current load in [0, 1].
        """

    @staticmethod
    def base_fee(signature_count: int, verify_count: int) -> int:
        return BASE_FEE_LAMPORTS_PER_SIGNATURE * (signature_count + verify_count)


@dataclass(frozen=True)
class BaseFee(FeeStrategy):
    """Only the per-signature base fee: cheap but congestion-sensitive."""

    def fee(self, signature_count: int, verify_count: int, compute_budget: int) -> int:
        return self.base_fee(signature_count, verify_count)

    def scheduling_delay(self, rng: Rng, congestion: float) -> float:
        # Un-prioritised transactions queue behind paying traffic; the
        # expected wait grows steeply as blocks fill up.
        mean_wait = 0.4 + 6.0 * congestion**2
        return rng.expovariate(1.0 / mean_wait)


@dataclass(frozen=True)
class PriorityFee(FeeStrategy):
    """Base fee plus compute-unit price (micro-lamports per CU)."""

    compute_unit_price: int  # micro-lamports per compute unit

    def fee(self, signature_count: int, verify_count: int, compute_budget: int) -> int:
        priority = (self.compute_unit_price * compute_budget) // MICROLAMPORTS_PER_LAMPORT
        return self.base_fee(signature_count, verify_count) + priority

    def scheduling_delay(self, rng: Rng, congestion: float) -> float:
        # Priority traffic goes near the front of the queue; congestion
        # still adds some jitter.
        mean_wait = 0.2 + 0.8 * congestion
        return rng.expovariate(1.0 / mean_wait)


@dataclass(frozen=True)
class BundleFee(FeeStrategy):
    """Base fee plus a flat tip to the block producer (Jito bundles)."""

    tip_lamports: int

    def fee(self, signature_count: int, verify_count: int, compute_budget: int) -> int:
        return self.base_fee(signature_count, verify_count) + self.tip_lamports

    def scheduling_delay(self, rng: Rng, congestion: float) -> float:
        # Bundles are auctioned per block: they usually land in the next
        # one or two slots regardless of public-queue congestion.
        mean_wait = 0.3 + 0.3 * congestion
        return rng.expovariate(1.0 / mean_wait)


class AdaptiveFee(FeeStrategy):
    """§VI-B's future-work strategy: price to the observed congestion.

    The deployment used *fixed* fee models, which §VI-B notes is
    inflexible: "During low host chain usage the costs may be reduced
    and during high usage the fees do not prevent long tail latency."
    This strategy samples a congestion estimate at submission time and
    scales the compute-unit price between a floor and a ceiling, paying
    only what the current queue requires.
    """

    def __init__(self, congestion_probe, min_cu_price: int = 50_000,
                 max_cu_price: int = 8_000_000) -> None:
        #: Callable returning the current congestion estimate in [0, 1]
        #: (an RPC fee-oracle stand-in).
        self._probe = congestion_probe
        self.min_cu_price = min_cu_price
        self.max_cu_price = max_cu_price
        self.last_cu_price = min_cu_price

    def _price(self) -> int:
        level = min(1.0, max(0.0, float(self._probe())))
        # Convex response: pay little until the queue actually builds.
        scale = level ** 2
        price = round(self.min_cu_price
                      + scale * (self.max_cu_price - self.min_cu_price))
        self.last_cu_price = price
        return price

    def fee(self, signature_count: int, verify_count: int, compute_budget: int) -> int:
        priority = (self._price() * compute_budget) // MICROLAMPORTS_PER_LAMPORT
        return self.base_fee(signature_count, verify_count) + priority

    def scheduling_delay(self, rng: Rng, congestion: float) -> float:
        # Pricing at (or above) the market rate keeps the transaction
        # near the queue front, like a well-chosen priority fee.
        mean_wait = 0.2 + 0.9 * congestion
        return rng.expovariate(1.0 / mean_wait)
