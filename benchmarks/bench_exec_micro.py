"""Probe-throughput micro-benchmark: product path vs per-Kraus oracle.

Standalone script (no pytest-benchmark dependency) measuring the cost of
ANGEL-style CopyCat probes through the execution service (fused channel
cache, lowering, simulation cache) against the same jobs run one Kraus
channel at a time (``reference_distribution``, then sampling with the
job's seed, then ``log_execution``), and checking the two produce the
same counts. Writes ``BENCH_exec.json`` next to this file.

Usage::

    PYTHONPATH=src python benchmarks/bench_exec_micro.py [--quick]

``--quick`` trims the job count for CI smoke runs. The acceptance bar
(enforced by ``--check``) is a >=2x cached-over-uncached speedup with
seed-identical counts in sequential mode; "uncached" is the oracle.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.compiler import transpile
from repro.core.sequence import NativeGateSequence, enumerate_sequences
from repro.device.presets import small_test_device
from repro.exec import BatchExecutor, Job, LocalBackend
from repro.programs.ghz import ghz
from repro.sim import sample_distribution


def _make_device(seed: int = 23):
    return small_test_device(6, seed=seed)


def _run_cached(device, jobs):
    executor = BatchExecutor(LocalBackend(device))
    job_results = executor.submit_batch(jobs)
    return [r.counts for r in job_results], executor.stats.cache_hits


def _run_uncached(device, jobs):
    """Each job on the per-Kraus oracle, sampled and logged in turn."""
    counts = []
    for job in jobs:
        distribution = device.reference_distribution(job.circuit)
        rng = np.random.default_rng(job.seed)
        counts.append(sample_distribution(distribution, job.shots, rng))
        device.log_execution(job.circuit, job.shots, seed=job.seed)
    return counts, device.channel_cache.hits


def _probe_jobs(device, shots: int, count: int, seed: int = 5):
    """ANGEL-shaped probe workload: GHZ-5 under varying sequences."""
    compiled = transpile(ghz(5), device)
    sequences = list(
        enumerate_sequences(compiled.sites, compiled.gate_options(), "link")
    )
    rng = np.random.default_rng(seed)
    jobs = []
    for number in range(count):
        sequence = sequences[number % len(sequences)]
        circuit = compiled.nativized(sequence, name_suffix=f"_m{number}")
        jobs.append(
            Job(circuit, shots, seed=int(rng.integers(2**31)), tag="probe")
        )
    return jobs


def run(num_jobs: int, shots: int):
    results = {}
    counts_by_mode = {}
    for mode, execute in (
        ("uncached", _run_uncached), ("cached", _run_cached)
    ):
        device = _make_device()
        jobs = _probe_jobs(device, shots, num_jobs)
        start = time.perf_counter()
        counts, cache_hits = execute(device, jobs)
        elapsed = time.perf_counter() - start
        counts_by_mode[mode] = counts
        results[mode] = {
            "jobs": num_jobs,
            "shots_per_job": shots,
            "wall_time_s": elapsed,
            "ms_per_job": 1e3 * elapsed / num_jobs,
            "cache": cache_hits,
        }
    # Same device seeds + same sampling seeds: the cached path must
    # reproduce the oracle's counts exactly (the cache keys embed the
    # drifting parameter values, so staleness cannot leak in).
    identical = counts_by_mode["cached"] == counts_by_mode["uncached"]
    speedup = (
        results["uncached"]["wall_time_s"] / results["cached"]["wall_time_s"]
    )
    return {
        "benchmark": "exec_probe_throughput",
        "workload": f"GHZ-5 CopyCat-style probes x{num_jobs} @ {shots} shots",
        "uncached": results["uncached"],
        "cached": results["cached"],
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

    num_jobs = 8 if args.quick else 30
    shots = 256
    report = run(num_jobs, shots)

    out_path = Path(__file__).resolve().parent.parent / "BENCH_exec.json"
    out_path.write_text(json.dumps(report, indent=2) + "\n")

    print(f"workload : {report['workload']}")
    print(f"uncached : {report['uncached']['ms_per_job']:.2f} ms/job")
    print(f"cached   : {report['cached']['ms_per_job']:.2f} ms/job")
    print(f"speedup  : {report['speedup']:.2f}x")
    print(f"identical: {report['counts_identical']}")
    print(f"written  : {out_path}")

    if args.check:
        if not report["counts_identical"]:
            print("FAIL: cached counts differ from uncached", file=sys.stderr)
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
