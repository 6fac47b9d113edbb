"""Relayer-side actors: the block cranker and the IBC relayer (Alg. 2)."""

from repro.relayer.cranker import Cranker
from repro.relayer.endpoint import CounterpartyEnd, GuestEnd
from repro.relayer.relayer import Relayer, RelayerConfig

__all__ = ["CounterpartyEnd", "Cranker", "GuestEnd", "Relayer", "RelayerConfig"]
