"""A checkpoint written by one Python replays under another.

    PYTHONPATH=src python tests/checkpoint_portability.py write DIR
    PYTHONPATH=src python tests/checkpoint_portability.py replay DIR

``write`` runs the replay audit's world (seed 401) to its snapshot
point, saves the checkpoint, runs the original straight through and
saves that fingerprint beside it.  ``replay`` — under any interpreter —
restores the checkpoint, replays it to the same finish line and exits
non-zero naming every field that differs.
"""

import json
import os
import platform
import sys

from repro.checkpoint import Checkpoint
from repro.checkpoint.audit import (
    audit_checkpoint,
    diff_fingerprints,
    replay_checkpoint,
)


def main(phase: str, directory: str) -> int:
    checkpoint_path = os.path.join(directory, "replay-audit.ckpt")
    fingerprint_path = os.path.join(directory, "straight.json")
    if phase == "write":
        os.makedirs(directory, exist_ok=True)
        checkpoint, straight = audit_checkpoint()
        checkpoint.save(checkpoint_path)
        with open(fingerprint_path, "w") as handle:
            json.dump({"python": platform.python_version(),
                       "fingerprint": straight}, handle, indent=1)
        return 0
    with open(fingerprint_path) as handle:
        written = json.load(handle)
    replayed = json.loads(json.dumps(replay_checkpoint(Checkpoint.load(checkpoint_path))))
    divergences = diff_fingerprints(written["fingerprint"], replayed)
    for divergence in divergences:
        print(f"diverged: {divergence}")
    print(f"written under Python {written['python']}, replayed under "
          f"{platform.python_version()}: "
          f"{'DIVERGED' if divergences else 'identical'}")
    return 1 if divergences else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
