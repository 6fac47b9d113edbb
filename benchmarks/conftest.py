"""Shared fixtures for the benchmark harness.

The heavyweight simulated deployments run once per session; each bench
then regenerates its table/figure from the recorded raw series, prints
it in the paper's format, and asserts the published *shape* (who wins,
by what rough factor, where the thresholds fall).  Absolute numbers are
not expected to match a mainnet testbed — see EXPERIMENTS.md.
"""

from __future__ import annotations

import pytest

from repro.experiments.blocks import BlockIntervalConfig, BlockIntervalRun
from repro.experiments.evaluation import EvaluationConfig, EvaluationRun


@pytest.fixture(scope="session")
def evaluation():
    """The main §V deployment (Figs. 2-5, Table I, ReceivePacket), its
    relayer shipping light-client updates whole, as the paper's did."""
    run = EvaluationRun(EvaluationConfig(lc_update_plan="paper"))
    return run.execute()


@pytest.fixture(scope="session")
def fig6_results():
    """The multi-day Fig. 6 run."""
    run = BlockIntervalRun(BlockIntervalConfig(duration=3 * 24 * 3600.0))
    return run.execute()


def emit(text: str) -> None:
    """Print a rendered figure block (visible with pytest -s; also kept
    in the captured output otherwise)."""
    print("\n" + text)
