"""Snapshot-batch benchmark: sequential vs snapshot (in-process) batches.

Standalone script (no pytest-benchmark dependency) measuring the same
repeated localized-search probe workload as ``bench_sim_cache.py`` —
GHZ-7 on an Aspen-11 subgraph, per-link batches of reference +
mass-replacement candidates, re-probed for confidence, submitted as
calibration-window snapshot batches — two ways:

* ``sequential`` — the paper's probing loop: one job at a time through
  ``device.run``, the clock (and drift epoch) advancing after every job,
  so each job recomputes its distribution against a fresh snapshot.
* ``snapshot`` — the ``parallel`` executor mode: all of a batch's
  distributions computed in-process against the batch-start calibration
  snapshot, then sampled and accounted job by job.

The headline ``speedup`` is snapshot over sequential (the mode a user
migrates from). ``counts_identical`` checks the snapshot semantics
against an untimed per-job reference on a twin device: each job's
``noisy_distribution`` at the batch-start snapshot, sampled with the
job's own seed. Writes ``BENCH_parallel.json`` next to this file's
parent directory.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel.py [--smoke] [--check]

``--smoke`` trims the budget for CI runners. ``--check`` exits nonzero
unless snapshot batches are >=2x faster than sequential and their counts
equal the per-job reference.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.compiler import transpile
from repro.device.presets import aspen11
from repro.exec import BatchExecutor, LocalBackend
from repro.programs.ghz import ghz
from repro.sim.sampler import sample_distribution

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_sim_cache import _probe_round  # noqa: E402


def _rounds_of_jobs(device, rounds: int, shots: int, repeats: int):
    """Yield each snapshot round's jobs (same seeds for every leg)."""
    compiled = transpile(ghz(7), device)
    rng = np.random.default_rng(5)
    for _ in range(rounds):
        jobs = []
        for _ in range(repeats):
            jobs.extend(_probe_round(device, compiled, shots, rng))
        yield jobs


def _timed_leg(mode: str, rounds: int, shots: int, repeats: int):
    device = aspen11(seed=23, sim_cache=True)
    executor = BatchExecutor(LocalBackend(device), mode=mode)
    all_counts = []
    jobs_total = 0
    start = time.perf_counter()
    for jobs in _rounds_of_jobs(device, rounds, shots, repeats):
        jobs_total += len(jobs)
        all_counts.extend(r.counts for r in executor.submit_batch(jobs))
    elapsed = time.perf_counter() - start
    summary = {
        "rounds": rounds,
        "jobs": jobs_total,
        "shots_per_job": shots,
        "wall_time_s": elapsed,
        "ms_per_job": 1e3 * elapsed / jobs_total,
    }
    return summary, all_counts


def _reference_counts(rounds: int, shots: int, repeats: int):
    """Per-job reference for snapshot batches: every job of a round
    sees the round-start snapshot, then the clock advances per job."""
    device = aspen11(seed=23, sim_cache=True)
    all_counts = []
    for jobs in _rounds_of_jobs(device, rounds, shots, repeats):
        distributions = [device.noisy_distribution(j.circuit) for j in jobs]
        for job, distribution in zip(jobs, distributions):
            all_counts.append(
                sample_distribution(
                    distribution, job.shots, np.random.default_rng(job.seed)
                )
            )
            device.log_execution(job.circuit, job.shots, seed=job.seed)
    return all_counts


def run(rounds: int, shots: int, repeats: int = 2):
    sequential, _ = _timed_leg("sequential", rounds, shots, repeats)
    snapshot, snapshot_counts = _timed_leg("parallel", rounds, shots, repeats)
    identical = snapshot_counts == _reference_counts(rounds, shots, repeats)
    return {
        "benchmark": "snapshot_batch_probe_workload",
        "workload": (
            "GHZ-7 localized-search probes on aspen-11 "
            f"({snapshot['jobs']} jobs over {rounds} snapshot rounds) "
            f"@ {shots} shots"
        ),
        "cpu_count": os.cpu_count(),
        "sequential": sequential,
        "snapshot": snapshot,
        "speedup": sequential["wall_time_s"] / snapshot["wall_time_s"],
        "counts_identical": identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="reduced budget for CI"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero unless snapshot is >= 2x faster than "
        "sequential with counts equal to the per-job reference",
    )
    args = parser.parse_args(argv)

    report = run(rounds=2 if args.smoke else 3, shots=256)

    out_path = (
        Path(__file__).resolve().parent.parent / "BENCH_parallel.json"
    )
    out_path.write_text(json.dumps(report, indent=2) + "\n")

    print(f"workload  : {report['workload']}")
    print(f"sequential: {report['sequential']['ms_per_job']:.2f} ms/job")
    print(f"snapshot  : {report['snapshot']['ms_per_job']:.2f} ms/job")
    print(f"speedup   : {report['speedup']:.2f}x over sequential")
    print(f"identical : {report['counts_identical']}")
    print(f"written   : {out_path}")

    if args.check:
        if not report["counts_identical"]:
            print(
                "FAIL: snapshot counts differ from the per-job reference",
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
