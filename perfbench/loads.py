"""The benchmark's two workloads: seeded request lists and their loops.

Every request list is a pure function of the workload seed and is
generated as a stream, so a longer ``--seconds`` only appends requests:
request ``i`` is the same at every run length, which is what lets the
digest file pin outcomes by index.

* ``burst-shared`` -- open loop. Four tenants fire a train of requests
  every ``TRAIN_PERIOD_S`` at a seeded offset, all on one device recipe,
  through
  ``AngelService(num_workers=2, dedup=True)``. Latency is timed from
  each request's due time.
* ``wide-search`` -- closed loop, one client, no service: ``transpile``
  + ``Angel.select`` + the final run on 7-8 qubit programs against one
  calibrated aspen-11 built in set-up.

Every run sends at least ``MIN_REQUESTS`` requests: the burst is that
large, and the closed loop stops at a round boundary once the window has
elapsed and ``WIDE_MIN_SELECTIONS`` ran.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.compiler import transpile
from repro.core import Angel, AngelConfig
from repro.exec import Job
from repro.experiments.context import ExperimentContext
from repro.programs import bernstein_vazirani, ghz, w_state
from repro.service import AngelService, RequestSpec

SHOTS = 1024
PROBE_SHOTS = 1024
# The tail is the highest rank with ten requests beyond it; 40 requests
# put it at p75, well above the median.
MIN_REQUESTS = 40

# burst-shared: each tenant sends one train per TRAIN_PERIOD_S slot, every
# program four times in a seeded order. In a 20 s window that is one
# burst of 48 requests, which two service workers (1.2-1.5 req/s on a
# 2-CPU host) take 30-40 s to drain, so throughput measures capacity and
# most of a request's latency is queue wait. With three repeats (36
# requests) the median's place in the drain moved by 9% between seeds,
# with four by 4%. Bursts that overlap a still-draining backlog amplified
# run-to-run noise to 28% in latency.
BURST_PROGRAMS = ("GHZ_n4", "BV_n4", "QAOA_n5")
BURST_TENANTS = 4
TRAIN_REPEATS = 4
TRAIN_PERIOD_S = 30.0
TRAIN_JITTER_S = 2.0
TRAIN_SPACING_S = 0.05

# wide-search: one width per program from the verified 7-9 qubit set, so
# the three programs sit at distinct costs (~0.6, ~0.8, ~1.3 s on a 2-CPU
# host) and the median falls among the middle program's samples and the
# tail among the top one's, not on the edge between two programs. A
# round holds each program three times.
WIDE_PROGRAMS = (("ghz", 7), ("w_state", 7), ("bernstein_vazirani", 8))
WIDE_ROUND = 3 * len(WIDE_PROGRAMS)
# Five rounds a run (45 selections, tail p78): enough to average over the
# spread of single selections, short enough that the runs a benchmark
# gets fit its time on a slow host.
WIDE_MIN_SELECTIONS = 5 * WIDE_ROUND
WIDE_DRIFT_HOURS = 2.0

# burst-shared and wide-search run on one fixed device recipe (the
# RequestSpec defaults). A seeded recipe moves the layouts, hence the
# probe budget, and moved wide-search throughput by 15% across seeds.
DEVICE_SEED = 11
CALIBRATION_SEED = 3


def _rng(workload: str, seed: int) -> random.Random:
    # String seeds hash through SHA-512, so the stream is stable across
    # processes and Python builds (unlike hash() of a tuple).
    return random.Random(f"{workload}/{seed}")


# ----------------------------------------------------------------------
# Request lists
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Arrival:
    """One open-loop request: when it is due, for whom, and what."""

    index: int
    due_s: float
    tenant: str
    spec: RequestSpec


def burst_schedule(seed: int, seconds: float) -> List[Arrival]:
    """Every train whose slot starts inside the window, in index order."""
    rng = _rng("burst-shared", seed)
    arrivals: List[Arrival] = []
    for slot in range(math.ceil(seconds / TRAIN_PERIOD_S)):
        for tenant in range(BURST_TENANTS):
            start = slot * TRAIN_PERIOD_S + rng.uniform(0.0, TRAIN_JITTER_S)
            programs = list(BURST_PROGRAMS) * TRAIN_REPEATS
            rng.shuffle(programs)
            for k, program in enumerate(programs):
                spec = RequestSpec(
                    program=program,
                    shots=SHOTS,
                    probe_shots=PROBE_SHOTS,
                    seed=DEVICE_SEED,
                    calibration_seed=CALIBRATION_SEED,
                    drift_hours=2.0,
                    angel_seed=rng.randrange(2),
                )
                arrivals.append(
                    Arrival(
                        index=len(arrivals),
                        due_s=start + k * TRAIN_SPACING_S,
                        tenant=f"tenant-{tenant}",
                        spec=spec,
                    )
                )
    return arrivals


@dataclass(frozen=True)
class Selection:
    """One wide-search request on the shared calibrated device."""

    index: int
    program: str
    width: int
    angel_seed: int
    final_seed: int

    def circuit(self):
        if self.program == "bernstein_vazirani":
            return bernstein_vazirani("1" * (self.width - 1))
        if self.program == "ghz":
            return ghz(self.width)
        return w_state(self.width)


def wide_round(seed: int, round_index: int, first: int) -> List[Selection]:
    """One round: each program three times, in a seeded order."""
    rng = _rng(f"wide-search/{round_index}", seed)
    combos = list(WIDE_PROGRAMS) * (WIDE_ROUND // len(WIDE_PROGRAMS))
    rng.shuffle(combos)
    return [
        Selection(
            index=first + offset,
            program=program,
            width=width,
            angel_seed=rng.randrange(1_000),
            final_seed=rng.randrange(2**31),
        )
        for offset, (program, width) in enumerate(combos)
    ]


def wide_selections(seed: int, count: int) -> List[Selection]:
    """The first ``count`` wide-search selections."""
    selections: List[Selection] = []
    while len(selections) < count:
        selections.extend(
            wide_round(seed, len(selections) // WIDE_ROUND, len(selections))
        )
    return selections[:count]


# ----------------------------------------------------------------------
# Records the loops hand back
# ----------------------------------------------------------------------
@dataclass
class Record:
    """One attempted request: its outcome (or error) and its timings."""

    index: int
    spec: object
    latency_s: float = 0.0
    outcome: object = None
    error: Optional[BaseException] = None
    queue_wait_s: float = 0.0
    service_time_s: float = 0.0
    lateness_s: float = 0.0
    device_time_us: float = 0.0


@dataclass
class LoopResult:
    records: List[Record]
    wall_s: float
    service: Dict[str, float] = field(default_factory=dict)


# ----------------------------------------------------------------------
# The loops
# ----------------------------------------------------------------------
def service_stats(service: AngelService) -> Dict[str, float]:
    report = service.tenant_report()
    return {
        "rounds": service.scheduler.rounds,
        "rejected": sum(row["rejected"] for row in report.values()),
    }


def run_burst(service: AngelService, seed: int, seconds: float) -> LoopResult:
    """Open loop: submit each arrival at its due time, then drain.

    The window runs from the first due time to the last completion.
    """
    arrivals = sorted(
        burst_schedule(seed, seconds), key=lambda a: (a.due_s, a.index)
    )
    start = time.monotonic()
    pending = []
    records = []
    for arrival in arrivals:
        due = start + arrival.due_s
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        record = Record(index=arrival.index, spec=arrival.spec)
        record.lateness_s = time.monotonic() - due
        records.append(record)
        try:
            handle = service.submit(arrival.tenant, arrival.spec)
        except Exception as exc:  # an admission bounce is counted
            record.error = exc
        else:
            pending.append((record, due, handle))
    service.drain()
    last = start
    for record, due, handle in pending:
        _collect(record, handle)
        record.latency_s = handle.completed_at - due
        last = max(last, handle.completed_at)
    records.sort(key=lambda r: r.index)
    first_due = start + arrivals[0].due_s
    return LoopResult(records, last - first_due, service_stats(service))


def _collect(record: Record, handle) -> None:
    try:
        outcome = handle.result()
    except Exception as exc:  # a failed request is a counted outcome
        record.error = exc
    else:
        record.outcome = outcome
        record.device_time_us = outcome.device_time_us
    record.queue_wait_s = handle.queue_wait_s
    record.service_time_s = handle.service_time_s


@dataclass
class WideOutcome:
    """What one wide-search selection returns (the service's shape)."""

    result: object
    final_counts: Dict[str, int]
    probes_run: int


def wide_setup() -> ExperimentContext:
    return ExperimentContext.create(
        device_name="aspen-11",
        seed=DEVICE_SEED,
        calibration_seed=CALIBRATION_SEED,
        drift_hours=WIDE_DRIFT_HOURS,
    )


def select_once(context, selection: Selection) -> WideOutcome:
    """``transpile`` + ``Angel.select`` + the final run, library path."""
    compiled = transpile(
        selection.circuit(), context.device, context.calibration
    )
    angel = Angel(
        context.device,
        context.calibration,
        AngelConfig(probe_shots=PROBE_SHOTS, seed=selection.angel_seed),
        executor=context.executor,
    )
    result = angel.select(compiled)
    final = context.executor.submit(
        Job(
            angel.nativize(compiled, result),
            SHOTS,
            seed=selection.final_seed,
            tag="final",
        )
    )
    return WideOutcome(result, dict(final.counts), result.copycats_executed)


def run_wide(context, seed: int, seconds: float) -> LoopResult:
    """Closed loop, one client: whole rounds until the window is over."""
    records: List[Record] = []
    start = time.monotonic()
    round_index = 0
    while (
        len(records) < WIDE_MIN_SELECTIONS
        or time.monotonic() - start < seconds
    ):
        for selection in wide_round(seed, round_index, len(records)):
            record = Record(index=selection.index, spec=selection)
            device_before = context.executor.stats.device_time_us
            sent = time.monotonic()
            try:
                record.outcome = select_once(context, selection)
            except Exception as exc:
                record.error = exc
            record.latency_s = time.monotonic() - sent
            record.device_time_us = (
                context.executor.stats.device_time_us - device_before
            )
            records.append(record)
        round_index += 1
    return LoopResult(records, time.monotonic() - start)


@dataclass(frozen=True)
class Workload:
    loop: str
    run: Callable


WORKLOADS: Dict[str, Workload] = {
    "burst-shared": Workload("open", run_burst),
    "wide-search": Workload("closed", run_wide),
}


def setup(name: str):
    """What a workload needs before its first request can be sent."""
    if name == "wide-search":
        return wide_setup()
    return AngelService(num_workers=2, dedup=True)

