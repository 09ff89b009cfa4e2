"""Per-Kraus reference execution for bit-identity tests.

The product path simulates every job through the channel cache, fused
lowering and the simulation cache. These helpers run the same jobs
through :meth:`RigettiAspenDevice.reference_distribution` instead, one
Kraus channel at a time, and account them exactly as the device does.
"""

import numpy as np

from repro.exec import Job
from repro.sim import sample_distribution


def reference_batch(device, jobs):
    """Counts of a snapshot batch on the oracle.

    Every job's distribution is taken at the batch-start parameters,
    then each job is sampled with its own seed and logged in order
    (which advances the clock), as ``LocalBackend`` does for a
    snapshot batch.
    """
    distributions = [device.reference_distribution(job.circuit) for job in jobs]
    counts = []
    for job, distribution in zip(jobs, distributions):
        counts.append(
            sample_distribution(
                distribution, job.shots, np.random.default_rng(job.seed)
            )
        )
        device.log_execution(
            job.circuit, job.shots, seed=job.seed, job_id=job.job_id,
            tag=job.tag,
        )
    return counts


def reference_run(device, circuit, shots, seed):
    """Counts of one seeded ``device.run`` on the oracle."""
    return reference_batch(device, [Job(circuit, shots, seed=seed)])[0]
