#!/usr/bin/env python3
"""The compile-request benchmark: two workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload burst-shared --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload (see ``loads.py``) with nothing traced
and reports the end-to-end metrics: completed-and-correct requests per
host-wall second, p50 and tail latency, set-up time and peak RSS.
``--trace 1`` runs the same untraced workload for the service-layer
numbers, then replays its requests stage by stage (``layers.py``) and
reports the per-layer table. Metric names, units and bounds are in
``BENCHMARK.json``; the predicted layer -> metric links are in
``WORKLOADS.md``.

The last stdout line is the result: ``correct``, ``attempted``,
``failed`` and ``metrics``. The line before it is a detail record: host
metadata, sample counts, which percentile the tail is, check failures
and the layer-dominance predictions.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

# Without the program's sources next to it (a checkout holding only the
# benchmark) these imports fail and the run exits non-zero, no result.
import checks  # noqa: E402
import layers  # noqa: E402
import loads  # noqa: E402
from repro.service import run_standalone  # noqa: E402

#: Set-up is repeated in this many fresh interpreters; the median counts.
SETUP_PROBES = 3
#: Distinct specs per run re-run through run_standalone as references.
REFERENCE_SPECS = 2
#: Requests the traced replay always covers, however long they take.
MIN_REPLAYED = 2
TAIL_BEYOND = 10


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def nearest_rank(values, percent: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values):
    """The highest nearest-rank percentile with ten samples beyond it.

    Returns ``(value, percentile)``. The loops send at least
    ``loads.MIN_REQUESTS`` requests, which puts that rank at p75 or
    above. If failures leave too few samples for any rank above the
    median, the maximum stands in, flagged by ``percentile=None``.
    """
    count = len(values)
    rank = count - TAIL_BEYOND
    if rank <= math.ceil(count / 2):
        return max(values), None
    return sorted(values)[rank - 1], 100.0 * rank / count


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# Host metadata and set-up time
# ----------------------------------------------------------------------
def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_metadata(trace: bool) -> dict:
    import os

    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "git_commit": git_commit(),
        "trace": trace,
    }


def measure_setup(workload: str, seed: int) -> float:
    """Launch -> ready of one fresh interpreter doing the workload set-up."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--setup-probe",
    ]
    launched = time.time()
    probe = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=150
    )
    if probe.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {probe.stderr[-2000:]}")
    ready = json.loads(probe.stdout.strip().splitlines()[-1])["ready"]
    return ready - launched


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
class Verdicts:
    """Which requests failed, and why (a request counts once)."""

    def __init__(self) -> None:
        self.bad = {}

    def fail(self, index: int, reason: str) -> None:
        self.bad.setdefault(index, []).append(reason)

    def report(self, limit: int = 20):
        return {
            str(index): reasons
            for index, reasons in sorted(self.bad.items())[:limit]
        }


def check_records(workload, seed, records, verdicts) -> dict:
    """Per-request checks plus the digest comparison at the pinned seed."""
    support = checks.GateSupport()
    outcomes = {}
    for record in records:
        if record.error is not None:
            verdicts.fail(
                record.index,
                f"{type(record.error).__name__}: {record.error}",
            )
            continue
        if workload == "wide-search":
            device_seed, shots = loads.DEVICE_SEED, loads.SHOTS
        else:
            device_seed, shots = record.spec.seed, record.spec.shots
        for problem in support.check(record.outcome, device_seed, shots):
            verdicts.fail(record.index, problem)
        outcomes[record.index] = record.outcome
    digests = checks.digest_check(workload, seed, outcomes)
    for index in digests["mismatched"] if digests else ():
        verdicts.fail(index, "digest differs from expected_digests.json")
    return {"digests": digests}


def reference_check(workload, seed, records, verdicts) -> int:
    """Compare a seeded sample of outcomes with independent reruns."""
    done = [record for record in records if record.error is None]
    if workload == "wide-search":
        # The selections share one drifting device, so the reference is
        # a fresh device replaying the same prefix in order.
        context = loads.wide_setup()
        try:
            for record in done[:REFERENCE_SPECS]:
                reference = loads.select_once(context, record.spec)
                if not checks.same_outcome(record.outcome, reference):
                    verdicts.fail(record.index, "differs from a fresh rerun")
        finally:
            context.close()
        return min(len(done), REFERENCE_SPECS)
    distinct = list(dict.fromkeys(record.spec for record in done))
    sample = random.Random(f"reference/{workload}/{seed}").sample(
        distinct, min(REFERENCE_SPECS, len(distinct))
    )
    for spec in sample:
        reference = run_standalone(spec)
        for record in done:
            if record.spec == spec and not checks.same_outcome(
                record.outcome, reference
            ):
                verdicts.fail(record.index, "differs from run_standalone")
    return len(sample)


# ----------------------------------------------------------------------
# The traced replay
# ----------------------------------------------------------------------
def traced_replay(workload, seconds, records, verdicts):
    """Replay completed requests stage by stage until ``seconds`` pass.

    Service workloads replay each distinct spec twice, alternating which
    goes first: once through ``run_standalone`` (the untraced reference)
    and once staged. ``wide-search`` replays its selections in order on
    a fresh device and compares with the untraced run's own outcomes.
    """
    timings = layers.Timings()
    done = [record for record in records if record.error is None]
    staged_wall = reference_wall = covered = 0.0
    replayed = 0
    started = time.monotonic()

    def over_budget() -> bool:
        return (
            replayed >= MIN_REPLAYED
            and time.monotonic() - started >= seconds
        )

    if workload == "wide-search":
        device, calibration = layers.build_device(
            loads.DEVICE_SEED,
            loads.CALIBRATION_SEED,
            loads.WIDE_DRIFT_HOURS,
            timings,
        )
        for record in done:
            if over_budget():
                break
            before = timings.covered_s()
            start = time.perf_counter()
            outcome = layers.staged_selection(
                device, calibration, record.spec, timings
            )
            staged_wall += time.perf_counter() - start
            covered += timings.covered_s() - before
            reference_wall += record.latency_s
            replayed += 1
            if not checks.same_outcome(outcome, record.outcome):
                verdicts.fail(record.index, "traced replay differs")
        device_builds = 1
    else:
        for spec in dict.fromkeys(record.spec for record in done):
            if over_budget():
                break
            first_standalone = replayed % 2 == 0
            if first_standalone:
                start = time.perf_counter()
                reference = run_standalone(spec)
                reference_wall += time.perf_counter() - start
            before = timings.covered_s()
            start = time.perf_counter()
            outcome = layers.staged_request(spec, timings)
            staged_wall += time.perf_counter() - start
            covered += timings.covered_s() - before
            if not first_standalone:
                start = time.perf_counter()
                reference = run_standalone(spec)
                reference_wall += time.perf_counter() - start
            replayed += 1
            for record in done:
                if record.spec != spec:
                    continue
                if not checks.same_outcome(outcome, reference):
                    verdicts.fail(record.index, "traced replay differs")
                if not checks.same_outcome(record.outcome, reference):
                    verdicts.fail(record.index, "differs from run_standalone")
        device_builds = replayed
    return timings, {
        "replayed": replayed,
        "staged_wall_s": staged_wall,
        "reference_wall_s": reference_wall,
        "covered_s": covered,
        "device_builds": device_builds,
    }


def layer_metrics(workload, records, loop, timings, replay) -> dict:
    """The per-layer table (values keyed by BENCHMARK.json names)."""
    done = [record for record in records if record.error is None]
    served = workload != "wide-search"
    waits = [record.queue_wait_s for record in done] if served else [0.0]
    lateness = (
        [record.lateness_s for record in records]
        if workload == "burst-shared"
        else [0.0]
    )
    replayed = max(replay["replayed"], 1)
    seconds = timings.seconds
    counts = timings.counts

    def each(name):
        return seconds[name] / replayed

    def device_each(name):
        return seconds[name] / replay["device_builds"]

    probe_jobs = counts["exec.probe_jobs"]
    values = {
        "service.queue_wait_p50_s": nearest_rank(waits, 50),
        "service.queue_wait_tail_s": tail(waits)[0],
        "service.service_time_p50_s": (
            nearest_rank([record.service_time_s for record in done], 50)
            if served
            else 0.0
        ),
        "service.dedup_hit_ratio": ratio(
            sum(record.outcome.dedup_hits for record in done),
            sum(record.outcome.probes_run for record in done),
        )
        if served
        else 0.0,
        "service.rounds": loop.service.get("rounds", 0),
        "service.rejected": loop.service.get("rejected", 0),
        "loadgen.lateness_p50_s": nearest_rank(lateness, 50),
        "loadgen.lateness_max_s": max(lateness),
        "device.build_s": device_each("device.build_s"),
        "device.calibrate_s": device_each("device.calibrate_s"),
        "device.recalibrate_s": device_each("device.recalibrate_s"),
        "device.links_calibrated": counts["device.links_calibrated"]
        / replay["device_builds"],
        "device.simulated_time_p50_s": nearest_rank(
            [record.device_time_us for record in done], 50
        )
        / 1e6,
        "compiler.optimize_s": each("compiler.optimize_s"),
        "compiler.layout_s": each("compiler.layout_s"),
        "compiler.route_s": each("compiler.route_s"),
        "compiler.routed_2q_gates": counts["compiler.routed_2q_gates"]
        / replayed,
        "compiler.links_used": counts["compiler.links_used"] / replayed,
        "core.copycat_s": each("core.copycat_s"),
        "core.probes_run": counts["core.probes_run"] / replayed,
        "core.search_batches": counts["core.search_batches"] / replayed,
        "exec.probe_s": each("exec.probe_s"),
        "exec.probe_ms_per_job": 1e3 * ratio(
            seconds["exec.probe_s"], probe_jobs
        ),
        "exec.final_s": each("exec.final_s"),
        "exec.job_failures": counts["job_failures"],
        "sim.dist_hit_ratio": ratio(
            counts["sim_dist_hits"],
            counts["sim_dist_hits"] + counts["sim_dist_misses"],
        ),
        "sim.prefix_hit_ratio": ratio(
            counts["sim_prefix_hits"],
            counts["sim_prefix_hits"] + counts["sim_prefix_misses"],
        ),
        "sim.channel_hit_ratio": ratio(
            counts["cache_hits"],
            counts["cache_hits"] + counts["cache_misses"],
        ),
        "sim.batch_candidates_per_group": ratio(
            counts["batch_candidates"], counts["batch_groups"]
        ),
        "trace.overhead_ratio": ratio(
            replay["staged_wall_s"], replay["reference_wall_s"]
        ),
        "trace.unattributed_ratio": 1.0
        - ratio(replay["covered_s"], replay["staged_wall_s"]),
        "trace.request_s": replay["staged_wall_s"] / replayed,
        "trace.requests": replay["replayed"],
    }
    return values


def predictions(workload, latency, layer) -> dict:
    """The dominant layer each workload was built to expose."""
    if workload == "burst-shared":
        share = ratio(
            layer["service.queue_wait_p50_s"], latency["latency_p50_s"]
        )
        claim = "service.queue_wait_p50_s > half of latency_p50_s"
        extra = {
            "tail_share": ratio(
                layer["service.queue_wait_tail_s"],
                latency["latency_tail_s"],
            )
        }
    else:
        share = ratio(layer["exec.probe_s"], layer["trace.request_s"])
        claim = "exec.probe_s > half of selection time"
        extra = {}
    return {"claim": claim, "share": share, "holds": share > 0.5, **extra}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(loads.WORKLOADS)
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="internal: do the workload set-up, print when ready, exit",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = args.workload
    if args.setup_probe:
        handle = loads.setup(workload)
        print(json.dumps({"ready": time.time()}), flush=True)
        handle.close()
        return 0

    handle = loads.setup(workload)
    try:
        loop = loads.WORKLOADS[workload].run(handle, args.seed, args.seconds)
    finally:
        handle.close()
    # Read before the checks and reference reruns, which build devices of
    # their own: the peak belongs to the workload, not to its checking.
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    records = loop.records
    verdicts = Verdicts()
    detail = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "loop": loads.WORKLOADS[workload].loop,
        "host": host_metadata(bool(args.trace)),
    }
    detail.update(check_records(workload, args.seed, records, verdicts))
    latencies = [r.latency_s for r in records if r.error is None]
    tail_value, tail_percent = tail(latencies)
    latency = {
        "latency_p50_s": nearest_rank(latencies, 50),
        "latency_tail_s": tail_value,
    }
    if args.trace:
        timings, replay = traced_replay(
            workload, args.seconds, records, verdicts
        )
        metrics = layer_metrics(workload, records, loop, timings, replay)
        detail["predictions"] = predictions(workload, latency, metrics)
    else:
        detail["references_checked"] = reference_check(
            workload, args.seed, records, verdicts
        )
        setup = [
            measure_setup(workload, args.seed) for _ in range(SETUP_PROBES)
        ]
        # A request counts once every check on it, the reference reruns
        # included, has passed.
        metrics = {
            "throughput_rps": (len(records) - len(verdicts.bad))
            / loop.wall_s,
            **latency,
            "setup_s": statistics.median(setup),
            "peak_rss_mib": peak_rss_mib,
        }
        detail["setup_samples_s"] = setup
    failed = len(verdicts.bad)
    detail.update(
        {
            "attempted": len(records),
            "failed_ratio": failed / len(records),
            "samples": len(latencies),
            "latency_tail_percentile": tail_percent,
            "loadgen_lateness_s": {
                "p50": nearest_rank([r.lateness_s for r in records], 50),
                "max": max(r.lateness_s for r in records),
            },
            "window_s": loop.wall_s,
            "failures": verdicts.report(),
        }
    )
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in declared_metrics(bool(args.trace))
        },
    }
    print(json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0


def declared_metrics(trace: bool):
    """``(name, unit)`` of every metric BENCHMARK.json declares for a mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [
        (metric["name"], metric["unit"])
        for metric in spec["per_layer" if trace else "end_to_end"]
    ]


if __name__ == "__main__":
    sys.exit(main())
