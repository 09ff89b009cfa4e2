"""Per-Kraus reference execution for bit-identity tests.

The product path simulates every job through the channel cache, fused
lowering and the simulation cache. :func:`reference_run` runs the same
job through :meth:`RigettiAspenDevice.reference_distribution` instead,
one Kraus channel at a time, and accounts it exactly as the device does.
"""

import numpy as np

from repro.sim import sample_distribution


def reference_run(device, circuit, shots, seed):
    """Counts of one seeded ``device.run`` on the oracle.

    The distribution is taken at the device's current parameters, then
    sampled with the job's seed and logged (which advances the clock),
    as ``device.run`` does.
    """
    distribution = device.reference_distribution(circuit)
    counts = sample_distribution(
        distribution, shots, np.random.default_rng(seed)
    )
    device.log_execution(circuit, shots, seed=seed)
    return counts
