"""Simulation-cache benchmark: hierarchy on vs off on probe workloads.

Standalone script (no pytest-benchmark dependency) measuring a repeated
localized-search probe workload — GHZ-7 on an Aspen-11 subgraph (8
links), per-link batches of reference + mass-replacement candidates,
each sweep re-probed twice for confidence and submitted as
calibration-window snapshot batches — with the simulation
cache hierarchy (layer fusion + prefix-state memoization + distribution
caching) enabled and disabled, and checking the two paths produce
seed-identical counts. Writes ``BENCH_sim.json`` next to this file's
parent directory.

Usage::

    PYTHONPATH=src python benchmarks/bench_sim_cache.py [--quick]

``--quick`` trims the round count for CI smoke runs. The acceptance bar
(enforced by ``--check``) is a >=2x hierarchy-over-uncached speedup with
seed-identical counts.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.compiler import transpile
from repro.core.sequence import NativeGateSequence
from repro.device.presets import aspen11
from repro.exec import BatchExecutor, Job, LocalBackend
from repro.programs.ghz import ghz


def _probe_round(device, compiled, shots: int, rng) -> list:
    """One localized-search pass worth of probe jobs.

    For every link the program uses: the reference sequence plus every
    mass-replacement candidate (all of that link's sites switched to an
    alternative native gate) — the paper's ``1 + 2L`` probe shape, with
    the reference re-probed per link batch.
    """
    reference = NativeGateSequence.uniform(compiled.sites, "cz")
    options = compiled.gate_options()
    jobs = []
    number = 0
    for link in compiled.links_used():
        link_sequences = [reference]
        alternatives = sorted(
            gate for gate in options[link] if gate != "cz"
        )
        for gate in alternatives:
            gates = tuple(
                gate if site.link == link else ref_gate
                for site, ref_gate in zip(compiled.sites, reference.gates)
            )
            link_sequences.append(
                NativeGateSequence(compiled.sites, gates)
            )
        for sequence in link_sequences:
            circuit = compiled.nativized(
                sequence, name_suffix=f"_probe{number}"
            )
            jobs.append(
                Job(
                    circuit,
                    shots,
                    seed=int(rng.integers(2**31)),
                    tag="probe",
                )
            )
            number += 1
    return jobs


def run(rounds: int, shots: int, repeats: int = 2):
    results = {}
    counts_by_mode = {}
    for mode, cached in (("uncached", False), ("hierarchy", True)):
        device = aspen11(seed=23, sim_cache=cached)
        compiled = transpile(ghz(7), device)
        assert len(compiled.links_used()) >= 4, "need >= 4 Aspen-11 links"
        executor = BatchExecutor(LocalBackend(device), mode="parallel")
        rng = np.random.default_rng(5)
        all_counts = []
        jobs_total = 0
        start = time.perf_counter()
        for _ in range(rounds):
            # One calibration-window snapshot batch: the full per-link
            # probe sweep, re-probed ``repeats`` times for confidence
            # (fig. 21 style). Each re-probe draws fresh shots; only the
            # hierarchy path skips re-simulating the distributions.
            jobs = []
            for _ in range(repeats):
                jobs.extend(_probe_round(device, compiled, shots, rng))
            jobs_total += len(jobs)
            batch = executor.submit_batch(jobs)
            all_counts.extend(r.counts for r in batch)
        elapsed = time.perf_counter() - start
        counts_by_mode[mode] = all_counts
        stats = executor.stats.snapshot()
        results[mode] = {
            "rounds": rounds,
            "jobs": jobs_total,
            "shots_per_job": shots,
            "links": len(compiled.links_used()),
            "wall_time_s": elapsed,
            "ms_per_job": 1e3 * elapsed / jobs_total,
            "dist_hits": stats["sim_dist_hits"],
            "dist_misses": stats["sim_dist_misses"],
            "prefix_hits": stats["sim_prefix_hits"],
            "prefix_misses": stats["sim_prefix_misses"],
        }
    # Same device seed + same per-job sampling seeds: the hierarchy must
    # reproduce the uncached counts exactly (every cache hit replays a
    # previously computed distribution; invalidation tracks drift_epoch).
    identical = counts_by_mode["hierarchy"] == counts_by_mode["uncached"]
    speedup = (
        results["uncached"]["wall_time_s"]
        / results["hierarchy"]["wall_time_s"]
    )
    return {
        "benchmark": "sim_cache_probe_workload",
        "workload": (
            "GHZ-7 localized-search probes on aspen-11 "
            f"({results['hierarchy']['links']} links, "
            f"{results['hierarchy']['jobs']} jobs over {rounds} "
            f"snapshot rounds) @ {shots} shots"
        ),
        "uncached": results["uncached"],
        "hierarchy": results["hierarchy"],
        "speedup": speedup,
        "counts_identical": identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="reduced budget for CI"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero unless speedup >= 2x with identical counts",
    )
    args = parser.parse_args(argv)

    rounds = 1 if args.quick else 3
    shots = 256
    report = run(rounds, shots)

    out_path = Path(__file__).resolve().parent.parent / "BENCH_sim.json"
    out_path.write_text(json.dumps(report, indent=2) + "\n")

    print(f"workload : {report['workload']}")
    print(f"uncached : {report['uncached']['ms_per_job']:.2f} ms/job")
    print(f"hierarchy: {report['hierarchy']['ms_per_job']:.2f} ms/job")
    print(
        f"hits     : {report['hierarchy']['dist_hits']} dist, "
        f"{report['hierarchy']['prefix_hits']} prefix"
    )
    print(f"speedup  : {report['speedup']:.2f}x")
    print(f"identical: {report['counts_identical']}")
    print(f"written  : {out_path}")

    if args.check:
        if not report["counts_identical"]:
            print(
                "FAIL: hierarchy counts differ from uncached",
                file=sys.stderr,
            )
            return 1
        if report["speedup"] < 2.0:
            print(
                f"FAIL: speedup {report['speedup']:.2f}x < 2x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
