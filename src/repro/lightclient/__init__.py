"""Concrete light clients for both directions of the bridge.

* :class:`~repro.lightclient.guest_client.GuestLightClient` — what the
  counterparty chain runs to follow the guest blockchain: verify a stake
  quorum of guest-validator signatures over each block fingerprint.  The
  paper highlights how lightweight this is (§VI-D).
* :class:`~repro.lightclient.tendermint.TendermintLightClient` — what the
  Guest Contract runs to follow the counterparty (a Tendermint/CometBFT
  chain).  On the host it cannot run in one transaction; the chunked
  update machinery in :mod:`repro.lightclient.chunked` splits each update
  into ~15 transactions (the ~36.5 measured in Fig. 4 when it ships the
  whole commit and validator set, as the paper's deployment did).
"""

from repro.lightclient.guest_client import GuestLightClient, GuestClientUpdate
from repro.lightclient.tendermint import (
    CometHeader,
    Commit,
    LightClientUpdate,
    TendermintLightClient,
    ValidatorSet,
)
from repro.lightclient.chunked import (
    ChunkPlan,
    plan_paper_update,
    plan_update_chunks,
)

__all__ = [
    "ChunkPlan",
    "CometHeader",
    "Commit",
    "GuestClientUpdate",
    "GuestLightClient",
    "LightClientUpdate",
    "TendermintLightClient",
    "ValidatorSet",
    "plan_paper_update",
    "plan_update_chunks",
]
