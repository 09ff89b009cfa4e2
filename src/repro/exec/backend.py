"""Execution backends: where jobs actually run.

:class:`Backend` is the protocol the :class:`~repro.exec.executor.
BatchExecutor` drives; :class:`LocalBackend` implements it on top of the
in-process :class:`~repro.device.device.RigettiAspenDevice`. The seam is
deliberately narrow — submit jobs, get counts — so later PRs can slot in
remote/queued backends (the paper ran on Amazon Braket) or shard across
several simulated chips without touching the algorithm layer.

``LocalBackend`` offers two batch disciplines:

* *sequential* — jobs run strictly one after another through
  ``device.run``; the device clock advances (and noise drifts) between
  jobs exactly as in the paper's probing loop. Bit-identical to calling
  the device directly.
* *parallel* — all jobs' exact output distributions are computed against
  the device's **current parameter snapshot**, then sampled and
  accounted job-by-job. This mirrors a cloud batch submission where
  every circuit in the batch is compiled and run against one
  calibration snapshot. The clock/drift accounting sequence is
  identical to sequential execution (same advance calls in the same
  order), so the device *ends* in the same state; only the within-batch
  drift seen by later jobs differs. One in-process
  ``noisy_distribution_batch`` call computes the whole batch.
"""

from __future__ import annotations

from typing import Dict, List, Protocol, Sequence, TYPE_CHECKING

import numpy as np

from ..obs import runtime as obs
from ..sim.sampler import sample_distribution
from .job import Job, JobResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..device.device import RigettiAspenDevice

__all__ = ["Backend", "LocalBackend"]


class Backend(Protocol):
    """Anything that can turn Jobs into JobResults."""

    @property
    def name(self) -> str:  # pragma: no cover - protocol
        ...

    def submit(self, job: Job) -> JobResult:  # pragma: no cover - protocol
        ...

    def submit_batch(
        self, jobs: Sequence[Job], parallel: bool = False
    ) -> List[JobResult]:  # pragma: no cover - protocol
        ...


class LocalBackend:
    """A Backend wrapping the in-process simulated Aspen device."""

    def __init__(self, device: "RigettiAspenDevice") -> None:
        self.device = device

    @property
    def name(self) -> str:
        return f"local[{self.device.name}]"

    # ------------------------------------------------------------------
    def submit(self, job: Job) -> JobResult:
        """Run one job through ``device.run`` (clock advances after it)."""
        tracer = obs.active_tracer()
        span = (
            tracer.span(
                "backend.job",
                job_id=job.job_id,
                tag=job.tag or "untagged",
                shots=job.shots,
            )
            if tracer
            else obs.NULL_SPAN
        )
        with span:
            before = self._trace_cache_counters() if tracer else None
            counts = self.device.run(
                job.circuit,
                job.shots,
                seed=job.seed,
                job_id=job.job_id,
                tag=job.tag,
            )
            record = self.device.execution_log[-1]
            if tracer:
                after = self._trace_cache_counters()
                span.set(
                    duration_us=record.duration_us,
                    started_at_us=record.started_at_us,
                    cache_hits_delta=after[0] - before[0],
                    cache_misses_delta=after[1] - before[1],
                    sim_dist_hits_delta=after[2] - before[2],
                    sim_prefix_hits_delta=after[3] - before[3],
                )
        return JobResult(
            job_id=job.job_id,
            counts=counts,
            shots=job.shots,
            tag=job.tag,
            seed=job.seed,
            started_at_us=record.started_at_us,
            duration_us=record.duration_us,
            qubits=record.qubits,
        )

    def _trace_cache_counters(self):
        """(channel hits, channel misses, dist hits, prefix hits) — the
        per-job cache attribution sampled around a traced submission."""
        cache = self.device.channel_cache
        sim = self.device.sim_cache
        return (cache.hits, cache.misses, sim.dist_hits, sim.prefix.hits)

    def submit_batch(
        self, jobs: Sequence[Job], parallel: bool = False
    ) -> List[JobResult]:
        if not jobs:
            return []
        if not parallel or len(jobs) == 1:
            return [self.submit(job) for job in jobs]
        tracer = obs.active_tracer()
        span = (
            tracer.span("backend.snapshot_batch", jobs=len(jobs))
            if tracer
            else obs.NULL_SPAN
        )
        with span:
            # Every distribution against the batch-start snapshot.
            distributions = self.device.noisy_distribution_batch(
                [job.circuit for job in jobs]
            )
        results: List[JobResult] = []
        for job, distribution in zip(jobs, distributions):
            rng = (
                np.random.default_rng(job.seed)
                if job.seed is not None
                else self.device.sample_rng
            )
            counts = sample_distribution(distribution, job.shots, rng)
            record = self.device.log_execution(
                job.circuit,
                job.shots,
                seed=job.seed,
                job_id=job.job_id,
                tag=job.tag,
            )
            if tracer:
                # Snapshot batches compute distributions collectively
                # (in the batch span above); still emit one span per job
                # so a trace covers every probe regardless of mode.
                with tracer.span(
                    "backend.job",
                    job_id=job.job_id,
                    tag=job.tag or "untagged",
                    shots=job.shots,
                ) as job_span:
                    job_span.set(
                        duration_us=record.duration_us,
                        started_at_us=record.started_at_us,
                        snapshot_batch=True,
                    )
            results.append(
                JobResult(
                    job_id=job.job_id,
                    counts=counts,
                    shots=job.shots,
                    tag=job.tag,
                    seed=job.seed,
                    started_at_us=record.started_at_us,
                    duration_us=record.duration_us,
                    qubits=record.qubits,
                )
            )
        return results

    def submit_batch_grouped(
        self,
        groups: Sequence[Sequence[Job]],
        parallel: bool = False,
    ) -> List[List[JobResult]]:
        """Run several job groups as one merged batch, demuxed per group.

        Jobs execute in the flattened submission order, so the device
        clock/drift trajectory matches submitting the groups back to
        back; the merge only changes batching granularity (one snapshot
        round instead of several).
        """
        groups = [list(group) for group in groups]
        flat = [job for group in groups for job in group]
        results = self.submit_batch(flat, parallel=parallel)
        demuxed: List[List[JobResult]] = []
        offset = 0
        for group in groups:
            demuxed.append(results[offset : offset + len(group)])
            offset += len(group)
        return demuxed

    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, int]:
        """Channel-cache and simulation-cache counters, merged.

        Channel-cache keys are unprefixed (``hits``/``misses``/...);
        simulation-cache keys carry their level's prefix
        (``dist_*``/``prefix_*``) so the executor can diff each level
        independently.
        """
        stats = self.device.channel_cache.stats()
        stats.update(self.device.sim_cache.stats())
        stats["clifford_fast_hits"] = getattr(
            self.device, "clifford_fast_hits", 0
        )
        stats["clifford_fallbacks"] = getattr(
            self.device, "clifford_fallbacks", 0
        )
        return stats
