"""Host-clock timing in calibrated units.

Raw seconds on a shared box drift with machine-speed phases: the same
soak measured 3.47-4.23 s across fresh processes (+-10 %), CPU time
tracking wall time, so it is the machine and not preemption.  Dividing
each section's wall time by a fixed reference loop run immediately
before and after it cancels most of that: the same runs read 39.2-41.5
reference loops (+-3 %).  So every host-clock end-to-end metric is a
``*_norm``: section wall seconds / mean of the two bracketing reference
points (each the fastest of three runs of the loop), median over the
repeats.  ``wall_s``, ``calib_s`` and the
per-repeat ratios are recorded beside it so that drift in the
calibration itself stays visible.

The loop mixes what the simulator's hot paths mix - sha256, dict churn
and small-integer arithmetic in pure Python - so that an interpreter or
machine change moves numerator and denominator alike.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import time
from dataclasses import dataclass
from typing import Callable

#: Iterations of the reference loop; fixed, or ``*_norm`` changes meaning.
REFERENCE_ITERATIONS = 200_000
_EXPECTED_CHECKSUM: int | None = None


def reference_loop() -> float:
    """Run the fixed reference work once; return its wall seconds."""
    global _EXPECTED_CHECKSUM
    started = time.perf_counter()
    digest = b"\x00" * 32
    # 4096 possible keys: the table stays small enough that the loop never
    # asks the OS for memory, which a first call would pay for and later
    # calls would not.
    table: dict[int, int] = {}
    accumulator = 0
    sha256 = hashlib.sha256
    for index in range(REFERENCE_ITERATIONS):
        digest = sha256(digest).digest()
        key = (digest[0] << 4) | (digest[1] & 15)
        table[key] = index
        if index & 7 == 7:
            table.pop(key)
        accumulator = (accumulator * 1_103_515_245 + digest[2] + index) & 0xFFFFFFFF
    elapsed = time.perf_counter() - started
    checksum = accumulator ^ len(table)
    if _EXPECTED_CHECKSUM is None:
        _EXPECTED_CHECKSUM = checksum
    elif checksum != _EXPECTED_CHECKSUM:
        raise RuntimeError("reference loop is not deterministic")
    return elapsed


def reference_point() -> float:
    """The reference loop's wall seconds at this moment: the fastest of
    three runs in a row.  One run reads 135-161 ms on the reference box
    (inter-quartile spread 4.4 %) and everything another tenant does
    only ever adds, so a single run at each end of a bracket put 3-4 %
    of noise, and now and then 15 %, straight into the ratio."""
    return min(reference_loop() for _ in range(3))


def quiesce() -> None:
    """Collect garbage, then exempt everything alive from collection, so
    the timed section scans only what it allocates itself."""
    gc.collect()
    gc.freeze()


def release() -> None:
    """Undo :func:`quiesce` once a repeat's world is dropped, so peak
    memory reflects one world, not the number of repeats."""
    gc.unfreeze()
    gc.collect()


@dataclass(frozen=True)
class Timing:
    """One bracketed section."""

    wall_s: float
    #: Mean of the reference points taken right before and right after.
    calib_s: float
    #: The closing point alone: it can open the next section's bracket.
    after_s: float

    @property
    def norm(self) -> float:
        return self.wall_s / self.calib_s


def bracketed(section: Callable[[], None],
              before: float | None = None) -> Timing:
    """Time ``section`` between two reference points.
    ``before`` reuses the point that closed the previous section, when
    nothing but untimed bookkeeping ran in between."""
    if before is None:
        before = reference_point()
    started = time.perf_counter()
    section()
    wall = time.perf_counter() - started
    after = reference_point()
    return Timing(wall_s=wall, calib_s=(before + after) / 2.0, after_s=after)


def summarize(timings: list[Timing]) -> dict:
    """Median calibrated cost of the repeats, raw figures beside it."""
    return {
        "norm": statistics.median(t.norm for t in timings),
        "wall_s": statistics.median(t.wall_s for t in timings),
        "calib_s": statistics.median(t.calib_s for t in timings),
        "ratios": [t.norm for t in timings],
    }
