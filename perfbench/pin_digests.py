#!/usr/bin/env python3
"""Write ``expected_digests.json``: outcome digests at the default seed.

Run once from the repository root when the benchmark is defined::

    python3 perfbench/pin_digests.py

``burst-shared`` is pinned through ``run_standalone`` (the reference
the service is held to), ``wide-search`` by running its selections in
order on a fresh device. A later change that flips a pinned digest must
report it, not re-run this script.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import loads  # noqa: E402
from repro.service import run_standalone  # noqa: E402

#: Covers two burst slots and one round more than the fewest a run sends.
BURST_SECONDS = 2 * loads.TRAIN_PERIOD_S
WIDE_SELECTIONS = loads.WIDE_MIN_SELECTIONS + loads.WIDE_ROUND


def main() -> int:
    seed = checks.DEFAULT_SEED
    by_spec = {}
    burst = []
    for arrival in loads.burst_schedule(seed, BURST_SECONDS):
        if arrival.spec not in by_spec:
            by_spec[arrival.spec] = checks.digest(run_standalone(arrival.spec))
        burst.append(by_spec[arrival.spec])
    context = loads.wide_setup()
    try:
        wide = [
            checks.digest(loads.select_once(context, selection))
            for selection in loads.wide_selections(seed, WIDE_SELECTIONS)
        ]
    finally:
        context.close()
    pinned = {
        "seed": seed,
        "burst-shared": burst,
        "wide-search": wide,
    }
    checks.DIGEST_FILE.write_text(json.dumps(pinned, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
