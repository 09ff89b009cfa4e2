"""Batched candidate-simulation benchmark: grouped-batch engine on/off.

Standalone script (no pytest-benchmark dependency) measuring the GHZ-7
localized-search probe sweep — per-link batches of reference +
mass-replacement candidates on an Aspen-11 subgraph, the paper's
``1 + 2L`` probe shape — with the candidate engine on
(``batched_sim`` + ``clifford_fast_path``) and off, under a
weak-coherent noise profile (coherent angles inside the fast path's
exactness budget, the regime where the stabilizer short-circuit is
allowed to fire). Three sections:

* ``per_probe`` — every unique probe simulated one at a time in both
  modes, timed individually. The headline metric is the mean per-probe
  speedup: Clifford-eligible probes (the all-``cz`` reference and the
  ``xy`` candidates) short-circuit through the stabilizer path at
  10-20x, while non-Clifford ``cphase`` candidates fall back to the
  dense engine at parity. Fast-path distributions are validated against
  the dense engine at a total-variation budget; fallback probes must
  match exactly.
* ``sweep`` — the full grouped probe sweep through the executor,
  engine on vs off, aggregate wall clock and engine counters. Dense
  grouped counts must be **bit-identical** to the sequential path.
* ``cluster_regime`` — a GHZ-5 sweep (5-qubit states, the
  overhead-dominated regime where candidate-axis stacking pays),
  showing stacked-cluster counters and bit-identical counts.

Writes ``BENCH_batch.json`` at the repository root.

Usage::

    PYTHONPATH=src python benchmarks/bench_batched_sim.py [--smoke]

``--smoke`` trims rounds for CI. The acceptance bar (enforced by
``--check``) is a >=3x mean per-probe speedup with bit-identical dense
counts and fast-path TV within budget.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from repro.compiler import transpile
from repro.core.sequence import NativeGateSequence
from repro.device.presets import NOISELESS_PROFILE, aspen11
from repro.exec import BatchExecutor, Job, LocalBackend
from repro.programs.ghz import ghz

_HOUR_US = 3_600e6

#: Stochastic noise plus coherent angles well inside the Clifford fast
#: path's exactness budget (0.02 rad) — the regime where the stabilizer
#: short-circuit is allowed to fire. Same shape as the preset the
#: differential suite validates (tests/test_differential.py), with the
#: *stochastic* rates scaled to the workload's depth: the fast path's
#: white-noise mix is accurate to first order in the accumulated error
#: budget, and the routed GHZ-7 probe is ~8x deeper (241 gates) than
#: the GHZ-4 differential probes, so per-gate rates are scaled down by
#: the same factor to keep total accumulated error — and hence model
#: error — inside the differential TV budget. Simulation *cost* is
#: independent of noise strength, so this does not affect timings.
_WEAK_COHERENT_PROFILE = dataclasses.replace(
    NOISELESS_PROFILE,
    t1_us_range=(1500.0, 2500.0),
    t2_over_t1_range=(1.0, 1.5),
    readout_p01_range=(0.01, 0.03),
    readout_p10_range=(0.005, 0.02),
    rx_depolarizing_range=(2e-5, 8e-5),
    two_qubit_depolarizing_log_range=(math.log(2e-4), math.log(6e-4)),
    rx_over_rotation_std=0.001,
    over_rotation_std=0.002,
    zz_error_std=0.0015,
)

#: Total-variation budget for fast-path probes (same bound the
#: differential test suite enforces for GHZ probes on this profile).
_TV_BUDGET = 0.08


def _make_device(engine: bool, seed: int = 23):
    return aspen11(
        seed=seed,
        profile=_WEAK_COHERENT_PROFILE,
        batched_sim=engine,
        clifford_fast_path=engine,
    )


def _probe_sweep(compiled):
    """One localized-search pass worth of probe circuits, link-batch
    ordered: for every link the reference plus every mass-replacement
    candidate — the paper's ``1 + 2L`` shape with the reference
    re-probed per link batch."""
    reference = NativeGateSequence.uniform(compiled.sites, "cz")
    options = compiled.gate_options()
    circuits = []
    number = 0
    for link in compiled.links_used():
        link_sequences = [("ref", reference)]
        for gate in sorted(g for g in options[link] if g != "cz"):
            gates = tuple(
                gate if site.link == link else ref_gate
                for site, ref_gate in zip(compiled.sites, reference.gates)
            )
            link_sequences.append(
                (gate, NativeGateSequence(tuple(compiled.sites), gates))
            )
        for kind, sequence in link_sequences:
            circuits.append(
                (
                    kind,
                    compiled.nativized(
                        sequence, name_suffix=f"_probe{number}"
                    ),
                )
            )
            number += 1
    return circuits


def _total_variation(left, right):
    keys = set(left) | set(right)
    return 0.5 * sum(
        abs(left.get(k, 0.0) - right.get(k, 0.0)) for k in keys
    )


def _unique_probes(circuits):
    """Drop the per-link reference re-probes (identical circuits the
    caches serve); keeps one reference plus every candidate."""
    unique = []
    seen_ref = False
    for kind, circuit in circuits:
        if kind == "ref":
            if seen_ref:
                continue
            seen_ref = True
        unique.append((kind, circuit))
    return unique


def run_per_probe():
    """Each unique probe simulated alone in both modes, timed
    individually; distributions cross-validated."""
    engine_dev = _make_device(engine=True)
    dense_dev = _make_device(engine=False)
    probes = _unique_probes(_probe_sweep(transpile(ghz(7), engine_dev)))
    dense_probes = _unique_probes(
        _probe_sweep(transpile(ghz(7), dense_dev))
    )
    records = []
    max_tv = 0.0
    for (kind, fast_circ), (_, dense_circ) in zip(probes, dense_probes):
        start = time.perf_counter()
        fast = engine_dev.noisy_distribution(fast_circ)
        fast_s = time.perf_counter() - start
        start = time.perf_counter()
        dense = dense_dev.noisy_distribution(dense_circ)
        dense_s = time.perf_counter() - start
        tv = _total_variation(fast, dense)
        max_tv = max(max_tv, tv)
        records.append(
            {
                "kind": kind,
                "engine_ms": 1e3 * fast_s,
                "dense_ms": 1e3 * dense_s,
                "speedup": dense_s / fast_s,
                "tv": tv,
            }
        )
    speedups = [r["speedup"] for r in records]
    by_kind = {}
    for record in records:
        by_kind.setdefault(record["kind"], []).append(record["speedup"])
    return {
        "probes": len(records),
        "clifford_fast_hits": engine_dev.clifford_fast_hits,
        "clifford_fallbacks": engine_dev.clifford_fallbacks,
        "mean_speedup": float(np.mean(speedups)),
        "geomean_speedup": float(np.exp(np.mean(np.log(speedups)))),
        "min_speedup": float(min(speedups)),
        "max_speedup": float(max(speedups)),
        "by_kind_mean": {
            kind: float(np.mean(values))
            for kind, values in sorted(by_kind.items())
        },
        "max_tv": max_tv,
        "records": records,
    }


def _run_sweep(program, rounds: int, shots: int, seed: int):
    """The grouped executor sweep, engine on vs off; a fresh drift
    epoch per round so every round pays full per-probe simulation."""
    results = {}
    counts_by_mode = {}
    for mode, engine in (("engine_off", False), ("engine_on", True)):
        device = _make_device(engine=engine, seed=seed)
        compiled = transpile(program, device)
        executor = BatchExecutor(LocalBackend(device), mode="parallel")
        rng = np.random.default_rng(5)
        all_counts = []
        jobs_total = 0
        start = time.perf_counter()
        for _ in range(rounds):
            jobs = [
                Job(
                    circuit,
                    shots,
                    seed=int(rng.integers(2**31)),
                    tag="probe",
                )
                for _, circuit in _probe_sweep(compiled)
            ]
            jobs_total += len(jobs)
            batch = executor.submit_batch(jobs)
            all_counts.extend(r.counts for r in batch)
            device.advance_time(_HOUR_US)
        elapsed = time.perf_counter() - start
        counts_by_mode[mode] = all_counts
        stats = executor.stats.snapshot()
        results[mode] = {
            "rounds": rounds,
            "jobs": jobs_total,
            "shots_per_job": shots,
            "wall_time_s": elapsed,
            "ms_per_probe": 1e3 * elapsed / jobs_total,
            "batch_groups": stats["batch_groups"],
            "batch_candidates": stats["batch_candidates"],
            "batch_dedup_hits": stats["batch_dedup_hits"],
            "clifford_fast_hits": stats["clifford_fast_hits"],
            "clifford_fallbacks": stats["clifford_fallbacks"],
        }
    results["aggregate_speedup"] = (
        results["engine_off"]["wall_time_s"]
        / results["engine_on"]["wall_time_s"]
    )
    return results, counts_by_mode


def _run_dense_identity(program, shots: int, seed: int):
    """Grouped dense-batched counts (clifford off) must be bit-identical
    to the sequential engine on the same chip-day and seeds."""
    counts = {}
    for mode, batched in (("sequential", False), ("batched", True)):
        device = aspen11(
            seed=seed,
            profile=_WEAK_COHERENT_PROFILE,
            batched_sim=batched,
            clifford_fast_path=False,
        )
        compiled = transpile(program, device)
        executor = BatchExecutor(LocalBackend(device), mode="parallel")
        rng = np.random.default_rng(5)
        jobs = [
            Job(c, shots, seed=int(rng.integers(2**31)), tag="probe")
            for _, c in _probe_sweep(compiled)
        ]
        batch = executor.submit_batch(jobs)
        counts[mode] = [r.counts for r in batch]
        stats = executor.stats.snapshot()
        counts[mode + "_stats"] = {
            "batch_groups": stats["batch_groups"],
            "batch_candidates": stats["batch_candidates"],
            "batch_dedup_hits": stats["batch_dedup_hits"],
        }
    return {
        "identical": counts["batched"] == counts["sequential"],
        "batched_stats": counts["batched_stats"],
    }


def run(rounds: int, shots: int):
    per_probe = run_per_probe()
    sweep, sweep_counts = _run_sweep(ghz(7), rounds, shots, seed=23)
    ghz7_identity = _run_dense_identity(ghz(7), shots, seed=23)
    # GHZ-5 compiles onto 5 physical qubits: the overhead-dominated
    # regime where the planner stacks candidate clusters.
    cluster, _ = _run_sweep(ghz(5), rounds, shots, seed=23)
    ghz5_identity = _run_dense_identity(ghz(5), shots, seed=23)
    return {
        "benchmark": "batched_candidate_engine",
        "workload": (
            "GHZ-7 localized-search probes on aspen-11 "
            f"({per_probe['probes']} unique probes, "
            f"{sweep['engine_on']['jobs']} grouped jobs over "
            f"{rounds} drift-epoch rounds) @ {shots} shots, "
            "weak-coherent profile"
        ),
        "per_probe": per_probe,
        "sweep": sweep,
        "dense_identity_ghz7": ghz7_identity,
        "cluster_regime_ghz5": cluster,
        "dense_identity_ghz5": ghz5_identity,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="reduced budget for CI"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "exit nonzero unless mean per-probe speedup >= 3x with "
            "bit-identical dense counts and fast-path TV in budget"
        ),
    )
    args = parser.parse_args(argv)

    rounds = 1 if args.smoke else 2
    shots = 256
    report = run(rounds, shots)

    out_path = (
        Path(__file__).resolve().parent.parent / "BENCH_batch.json"
    )
    out_path.write_text(json.dumps(report, indent=2) + "\n")

    per_probe = report["per_probe"]
    sweep = report["sweep"]
    print(f"workload          : {report['workload']}")
    print(
        "per-probe speedup : "
        f"mean {per_probe['mean_speedup']:.2f}x, "
        f"geomean {per_probe['geomean_speedup']:.2f}x "
        f"(min {per_probe['min_speedup']:.2f}x, "
        f"max {per_probe['max_speedup']:.2f}x)"
    )
    for kind, value in per_probe["by_kind_mean"].items():
        print(f"  {kind:<8}        : {value:.2f}x")
    print(
        "clifford          : "
        f"{per_probe['clifford_fast_hits']} hits, "
        f"{per_probe['clifford_fallbacks']} fallbacks, "
        f"max TV {per_probe['max_tv']:.4f}"
    )
    print(
        "grouped sweep     : "
        f"{sweep['aggregate_speedup']:.2f}x aggregate "
        f"({sweep['engine_off']['ms_per_probe']:.1f} -> "
        f"{sweep['engine_on']['ms_per_probe']:.1f} ms/probe)"
    )
    print(
        "dense identity    : "
        f"ghz7={report['dense_identity_ghz7']['identical']} "
        f"ghz5={report['dense_identity_ghz5']['identical']}"
    )
    print(
        "cluster regime    : "
        f"{report['cluster_regime_ghz5']['aggregate_speedup']:.2f}x "
        "aggregate on GHZ-5, "
        f"{report['dense_identity_ghz5']['batched_stats']['batch_groups']}"
        " stacked clusters"
    )
    print(f"written           : {out_path}")

    if args.check:
        failures = []
        if per_probe["mean_speedup"] < 3.0:
            failures.append(
                f"mean per-probe speedup "
                f"{per_probe['mean_speedup']:.2f}x < 3x"
            )
        if per_probe["max_tv"] > _TV_BUDGET:
            failures.append(
                f"fast-path TV {per_probe['max_tv']:.4f} > {_TV_BUDGET}"
            )
        if not report["dense_identity_ghz7"]["identical"]:
            failures.append("GHZ-7 dense batched counts diverged")
        if not report["dense_identity_ghz5"]["identical"]:
            failures.append("GHZ-5 dense batched counts diverged")
        if report["dense_identity_ghz5"]["batched_stats"][
            "batch_groups"
        ] == 0:
            failures.append("GHZ-5 sweep formed no stacked clusters")
        if sweep["aggregate_speedup"] < 1.2:
            failures.append(
                f"grouped sweep aggregate "
                f"{sweep['aggregate_speedup']:.2f}x < 1.2x"
            )
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
