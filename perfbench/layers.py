"""The traced run: requests replayed stage by stage through public calls.

Each helper repeats what the program does for one request --
``ExperimentContext.create``, ``transpile``, the ``_Request`` stepping of
:func:`repro.service.run_standalone`, ``Angel.select`` -- as the same
sequence of public per-layer calls, timing each call from here. Nothing
inside ``src/`` is instrumented. The replay must reproduce the program's
outcomes bit for bit; :mod:`run` checks that on every traced request.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, Tuple

from repro.compiler import (
    CompiledProgram,
    asap_schedule,
    extract_cnot_sites,
    noise_adaptive_layout,
    optimize_circuit,
    route_circuit,
)
from repro.core import Angel, AngelConfig
from repro.device.calibration import CalibrationService
from repro.device.presets import aspen11
from repro.exec import Job, get_executor
from repro.programs import get_benchmark
from repro.service import CompileOutcome

from loads import PROBE_SHOTS, SHOTS, WideOutcome

# ExperimentContext.create's drift protocol: step the clock this many
# hours at a time, letting the calibration cadence refresh in between.
_HOUR_US = 3_600e6
_DRIFT_STEP_HOURS = 3.0

#: ExecutorStats counters the sim.* ratios are built from.
_EXEC_COUNTERS = (
    "sim_dist_hits",
    "sim_dist_misses",
    "sim_prefix_hits",
    "sim_prefix_misses",
    "cache_hits",
    "cache_misses",
    "batch_groups",
    "batch_candidates",
    "job_failures",
)


class Timings:
    """Seconds and counts per layer metric, summed over a replay."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)

    @contextmanager
    def time(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - start

    def covered_s(self) -> float:
        return sum(self.seconds.values())

    def count_executor(self, executor, before: Dict[str, int]) -> None:
        for name in _EXEC_COUNTERS:
            self.counts[name] += getattr(executor.stats, name) - before[name]


def executor_counters(executor) -> Dict[str, int]:
    return {name: getattr(executor.stats, name) for name in _EXEC_COUNTERS}


def build_device(
    seed: int,
    calibration_seed: int,
    drift_hours: float,
    timings: Timings,
    batched_sim: bool = True,
    clifford_fast_path: bool = False,
) -> Tuple[object, CalibrationService]:
    """``ExperimentContext.create`` for aspen-11, stage by stage."""
    with timings.time("device.build_s"):
        device = aspen11(
            seed=seed,
            batched_sim=batched_sim,
            clifford_fast_path=clifford_fast_path,
        )
    calibration = CalibrationService(device, seed=calibration_seed)
    calibrate_gate = calibration.calibrate_gate

    def counted(gate_name: str) -> int:
        links = calibrate_gate(gate_name)
        timings.counts["device.links_calibrated"] += links
        return links

    # Shadow the bound method on this instance only, so full_calibration
    # and maybe_recalibrate report the links they benchmark.
    calibration.calibrate_gate = counted
    with timings.time("device.calibrate_s"):
        calibration.full_calibration()
    with timings.time("device.recalibrate_s"):
        elapsed = 0.0
        while elapsed < drift_hours:
            step = min(_DRIFT_STEP_HOURS, drift_hours - elapsed)
            device.advance_time(step * _HOUR_US)
            calibration.maybe_recalibrate()
            elapsed += step
    return device, calibration


def staged_transpile(
    circuit, device, calibration, level: int, timings: Timings
) -> CompiledProgram:
    """``transpile`` with its optimize, layout and route stages timed."""
    report = None
    to_route = circuit
    if level:
        with timings.time("compiler.optimize_s"):
            to_route, report = optimize_circuit(circuit, level)
    with timings.time("compiler.layout_s"):
        layout = noise_adaptive_layout(to_route, device, calibration)
    with timings.time("compiler.route_s"):
        routed = route_circuit(
            to_route, device.topology, layout, calibration=calibration
        )
    scheduled = asap_schedule(routed.circuit)
    compiled = CompiledProgram(
        source=circuit,
        routed=routed,
        scheduled=scheduled,
        sites=extract_cnot_sites(scheduled),
        device=device,
        optimization_level=level,
        opt_report=report,
    )
    compiled.gate_options()
    timings.counts["compiler.routed_2q_gates"] += sum(
        1
        for gate in routed.circuit
        if gate.num_qubits == 2
        and not gate.is_barrier
        and not gate.is_measurement
    )
    timings.counts["compiler.links_used"] += len(compiled.links_used())
    return compiled


def staged_search(angel: Angel, compiled, grouped: bool, timings: Timings):
    """The probe plan driven to completion, each batch timed.

    ``grouped`` picks the service's ``submit_grouped`` seam over
    ``Angel.select``'s ``submit_batch``; both run the same jobs.
    """
    executor = angel.executor
    with timings.time("core.copycat_s"):
        plan = angel.plan(compiled, observe=True)
    while not plan.done:
        jobs = plan.next_jobs()
        with timings.time("exec.probe_s"):
            if grouped:
                results = executor.submit_grouped(
                    [jobs], allow_failures=True
                )[0]
            else:
                results = executor.submit_batch(jobs, allow_failures=True)
        timings.counts["exec.probe_jobs"] += len(jobs)
        timings.counts["core.search_batches"] += 1
        plan.deliver(results)
    plan.record_outcome(executor)
    timings.counts["core.probes_run"] += plan.probes_run
    return plan


def staged_request(spec, timings: Timings) -> CompileOutcome:
    """One service request (``run_standalone``), stage by stage."""
    device, calibration = build_device(
        spec.seed,
        spec.calibration_seed,
        spec.drift_hours,
        timings,
        batched_sim=spec.batched_sim,
        clifford_fast_path=spec.clifford_fast_path,
    )
    executor = get_executor(device)
    before = executor_counters(executor)
    angel = Angel(
        device,
        calibration.data,
        AngelConfig(
            probe_shots=spec.probe_shots,
            max_passes=spec.max_passes,
            seed=spec.angel_seed,
        ),
        executor=executor,
    )
    compiled = staged_transpile(
        get_benchmark(spec.program).build(),
        device,
        calibration.data,
        spec.opt_level,
        timings,
    )
    plan = staged_search(angel, compiled, grouped=True, timings=timings)
    result = plan.result()
    native = angel.nativize(compiled, result)
    # The service draws the final job's seed from the search generator
    # once the plan is done; the replay must consume it identically.
    final_seed = int(angel._rng.integers(2**31))
    with timings.time("exec.final_s"):
        final = executor.submit(
            Job(native, spec.shots, seed=final_seed, tag="final")
        )
    timings.count_executor(executor, before)
    return CompileOutcome(
        spec=spec,
        tenant=None,
        result=result,
        final_counts=dict(final.counts),
        probes_run=plan.probes_run,
        dedup_hits=0,
        device_time_us=float(executor.stats.device_time_us),
    )


def staged_selection(device, calibration, selection, timings: Timings):
    """One wide-search selection (``loads.select_once``), stage by stage."""
    executor = get_executor(device)
    before = executor_counters(executor)
    compiled = staged_transpile(
        selection.circuit(), device, calibration.data, 0, timings
    )
    angel = Angel(
        device,
        calibration.data,
        AngelConfig(probe_shots=PROBE_SHOTS, seed=selection.angel_seed),
        executor=executor,
    )
    plan = staged_search(angel, compiled, grouped=False, timings=timings)
    result = plan.result()
    with timings.time("exec.final_s"):
        final = executor.submit(
            Job(
                angel.nativize(compiled, result),
                SHOTS,
                seed=selection.final_seed,
                tag="final",
            )
        )
    timings.count_executor(executor, before)
    return WideOutcome(result, dict(final.counts), plan.probes_run)
