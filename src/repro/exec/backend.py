"""Execution backends: where jobs actually run.

:class:`Backend` is the protocol the :class:`~repro.exec.executor.
BatchExecutor` drives; :class:`LocalBackend` implements it on top of the
in-process :class:`~repro.device.device.RigettiAspenDevice`. The seam is
deliberately narrow — submit jobs, get counts — so later PRs can slot in
remote/queued backends (the paper ran on Amazon Braket) or shard across
several simulated chips without touching the algorithm layer.

``LocalBackend`` runs a batch's jobs strictly one after another through
``device.run``; the device clock advances (and noise drifts) between
jobs exactly as in the paper's probing loop. Bit-identical to calling
the device directly.
"""

from __future__ import annotations

from typing import Dict, List, Protocol, Sequence, TYPE_CHECKING

from ..obs import runtime as obs
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
        self, jobs: Sequence[Job]
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
        """(channel hits, channel misses, dist hits) — the per-job cache
        attribution sampled around a traced submission."""
        cache = self.device.channel_cache
        return (cache.hits, cache.misses, self.device.sim_cache.dist_hits)

    def submit_batch(self, jobs: Sequence[Job]) -> List[JobResult]:
        return [self.submit(job) for job in jobs]

    def submit_batch_grouped(
        self, groups: Sequence[Sequence[Job]]
    ) -> List[List[JobResult]]:
        """Run several job groups as one merged batch, demuxed per group.

        Jobs execute in the flattened submission order, so the device
        clock/drift trajectory matches submitting the groups back to
        back.
        """
        groups = [list(group) for group in groups]
        flat = [job for group in groups for job in group]
        results = self.submit_batch(flat)
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
        simulation-cache keys carry a ``dist_``/``sim_`` prefix so the
        executor can diff each cache independently.
        """
        stats = self.device.channel_cache.stats()
        stats.update(self.device.sim_cache.stats())
        return stats
