"""Correctness checks applied to every request the benchmark makes.

Per request (a failure makes the output wrong and counts as failed):

* ``probes_run`` equals the Table II budget ``1 + sum(|options| - 1)``
  over the links the learned sequence uses (what
  ``Angel.expected_probe_count`` returns), computed here from the
  device's gate support rather than by the code under test;
* every CNOT site's chosen gate is one its link supports;
* the final counts sum to the requested shots.

Across requests: outcomes equal an independent reference run
(:func:`repro.service.run_standalone`, or a fresh library run for
``wide-search``), and at :data:`DEFAULT_SEED` the outcome digests equal
the ones pinned in ``expected_digests.json``. A digest that changes is
reported as a wrong output; it is not re-pinned.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List

from repro.device.presets import aspen11

DEFAULT_SEED = 0
DIGEST_FILE = Path(__file__).resolve().parent / "expected_digests.json"


def digest(outcome) -> str:
    """Hash of the learned (site, link, gate) sequence and final counts."""
    sequence = outcome.result.sequence
    payload = {
        "sequence": [
            [site.index, list(site.link), gate]
            for site, gate in zip(sequence.sites, sequence.gates)
        ],
        "counts": sorted(outcome.final_counts.items()),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def same_outcome(left, right) -> bool:
    """Bit-identical selection, search trace and final counts."""
    return (
        left.result.sequence == right.result.sequence
        and left.result.trace == right.result.trace
        and left.final_counts == right.final_counts
        and left.probes_run == right.probes_run
    )


class GateSupport:
    """Which gates each link supports, per device seed (topology only)."""

    def __init__(self) -> None:
        self._devices: Dict[int, object] = {}

    def device(self, seed: int):
        if seed not in self._devices:
            self._devices[seed] = aspen11(seed=seed)
        return self._devices[seed]

    def check(self, outcome, device_seed: int, shots: int) -> List[str]:
        """The per-request checks; returns what failed (empty = correct)."""
        device = self.device(device_seed)
        sequence = outcome.result.sequence
        failures = []
        budget = 1 + sum(
            len(device.supported_gates(*link)) - 1
            for link in sequence.links_used()
        )
        if outcome.probes_run != budget:
            failures.append(
                f"probes_run {outcome.probes_run} != 1+2L budget {budget}"
            )
        if outcome.result.copycats_executed != outcome.probes_run:
            failures.append("copycats_executed != probes_run")
        for site, gate in zip(sequence.sites, sequence.gates):
            if gate not in device.supported_gates(*site.link):
                failures.append(f"site {site.index}: {gate} unsupported")
        total = sum(outcome.final_counts.values())
        if total != shots:
            failures.append(f"final counts sum to {total}, not {shots}")
        return failures


def digest_check(workload: str, seed: int, outcomes: Dict[int, object]):
    """Compare outcome digests with the pinned ones, by request index.

    Returns ``{"compared": n, "mismatched": [index, ...]}``, or ``None``
    when the seed is not the pinned one (nothing to compare).
    """
    if seed != DEFAULT_SEED:
        return None
    pinned = json.loads(DIGEST_FILE.read_text())[workload]
    compared = [index for index in sorted(outcomes) if index < len(pinned)]
    return {
        "compared": len(compared),
        "mismatched": [
            index
            for index in compared
            if digest(outcomes[index]) != pinned[index]
        ],
    }
