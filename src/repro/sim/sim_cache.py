"""Drift-keyed simulation cache for probe workloads.

Every device job simulates through one pipeline above the per-gate
:class:`~repro.sim.channel_cache.ChannelCache`, flushed when the
device's ``drift_epoch`` bumps so no entry ever outlives the noise
parameters it encodes:

1. **Lowering + layer fusion** — each simulated circuit is flattened
   into a fused superoperator stream by
   :class:`~repro.sim.circuit_compiler.CircuitCompiler`, cutting the
   ``O(4^n)`` contraction count before any state work happens. Lowering
   runs only after a distribution-memo miss, so it is not memoized.
2. **Evolution** — the fused stream is contracted against ``|0..0>``
   in order, one straight-line pass.
3. **Distribution caching** — the exact noisy output distribution is
   memoized by ``(placement, circuit fingerprint, readout config)``;
   identical circuits within an epoch skip simulation entirely and only
   re-draw shots. An optional shared store
   (:class:`~repro.service.dedup.ProbeDistributionStore`) is consulted
   on a local miss and fed on every computation, which is how
   cross-request probe dedup works.

Memo hits are *exact* replays of previously computed arrays, so cached
results are bit-identical to the first computation within an epoch.
Layer fusion itself reassociates floating-point products (~1e-15
relative slack versus the unfused stream); the contract against the
per-Kraus oracle
(:meth:`~repro.device.device.RigettiAspenDevice.reference_distribution`)
is pinned in ``tests/test_sim_cache.py`` and
``benchmarks/bench_exec_micro.py``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..circuit.circuit import QuantumCircuit
from .channels import ReadoutError
from .circuit_compiler import (
    CircuitCompiler,
    LoweredCircuit,
    circuit_fingerprint,
)
from .density_matrix import DensityMatrix, _apply_readout_confusion

__all__ = ["SimulationCache"]

_DEFAULT_MAX_DISTRIBUTIONS = 4096


class SimulationCache:
    """The lowering pipeline and its distribution memo, owned by a device.

    The memo is flushed by :meth:`invalidate` when the device's
    ``drift_epoch`` bumps, mirroring the ChannelCache contract: epoch
    membership is enforced by invalidation, so keys never need to carry
    the epoch explicitly.

    Args:
        max_distributions: Entry cap for memoized distributions (LRU).
    """

    def __init__(
        self, max_distributions: int = _DEFAULT_MAX_DISTRIBUTIONS
    ) -> None:
        self.max_distributions = int(max_distributions)
        self._distributions: "OrderedDict[Tuple, Dict[str, float]]" = (
            OrderedDict()
        )
        self.epoch = 0
        self.dist_hits = 0
        self.dist_misses = 0
        self.dist_evictions = 0
        # Optional cross-device distribution store (multi-tenant dedup).
        self._shared_store = None
        self._shared_key: Optional[Callable[[], object]] = None
        self.shared_hits = 0
        self.shared_publishes = 0
        self.ops_replayed = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    # Invalidation (the drift contract)
    # ------------------------------------------------------------------
    def invalidate(self, epoch: int) -> None:
        """Flush the memo; entries never outlive their noise epoch."""
        self._distributions.clear()
        self.epoch = epoch
        self.invalidations += 1

    # ------------------------------------------------------------------
    # Cross-device sharing (multi-tenant probe dedup)
    # ------------------------------------------------------------------
    def attach_shared_store(
        self, store, state_key: Callable[[], object]
    ) -> None:
        """Consult/publish exact distributions through a shared store.

        ``store`` needs ``get(key)``/``put(key, distribution)`` (e.g.
        :class:`~repro.service.dedup.ProbeDistributionStore`);
        ``state_key`` is called per lookup and must change whenever this
        device's physics change (the device's ``parameter_fingerprint``).
        Unlike the local memo, shared entries are keyed by the *full*
        physics state rather than flushed on epoch bumps, so one
        request's computed distribution outlives its epoch and serves
        any other request whose device reaches the identical state —
        exactness is inherited from the local memo contract (a shared
        hit is the same dict the owning device computed).
        """
        self._shared_store = store
        self._shared_key = state_key

    # ------------------------------------------------------------------
    # The cached distribution pipeline
    # ------------------------------------------------------------------
    def distribution(
        self,
        circuit: QuantumCircuit,
        readout_errors: Optional[Sequence[Optional[ReadoutError]]],
        operation_compiler: Optional[Callable] = None,
        noise_callback: Optional[Callable] = None,
        placement: Tuple = (),
    ) -> Dict[str, float]:
        """Exact noisy distribution, memoized per epoch.

        Mirrors :meth:`DensityMatrixSimulator.distribution` semantics
        exactly — measured-qubit marginal, readout confusion, the
        ``p > 1e-14`` filter, big-endian keys — so the device can sample
        shots from the result interchangeably.

        ``placement`` is the physical-qubit context (the device passes
        its compacted ``used`` tuple): two compact circuits with equal
        local content but different physical qubits see different noise,
        so placement is part of every key.
        """
        fingerprint = (placement, circuit_fingerprint(circuit))
        key = (fingerprint, self._readout_key(readout_errors))
        cached = self._lookup(key)
        if cached is not None:
            return cached
        lowered = self._lower(circuit, operation_compiler, noise_callback)
        state = self._evolve(lowered)
        result = self._finish(circuit, state, readout_errors)
        self._store(key, result)
        return dict(result)

    @staticmethod
    def _readout_key(
        readout_errors: Optional[Sequence[Optional[ReadoutError]]]
    ) -> Tuple:
        return tuple(
            None if error is None else (error.p0_given_1, error.p1_given_0)
            for error in (readout_errors or ())
        )

    def _lookup(self, key: Tuple) -> Optional[Dict[str, float]]:
        """Consult the local memo, then the shared store; count once."""
        cached = self._distributions.get(key)
        if cached is not None:
            self._distributions.move_to_end(key)
            self.dist_hits += 1
            return dict(cached)
        self.dist_misses += 1
        if self._shared_store is not None:
            shared = self._shared_store.get((self._shared_key(), key))
            if shared is not None:
                self.shared_hits += 1
                while len(self._distributions) >= self.max_distributions:
                    self._distributions.popitem(last=False)
                    self.dist_evictions += 1
                self._distributions[key] = dict(shared)
                return dict(shared)
        return None

    def _store(self, key: Tuple, result: Dict[str, float]) -> None:
        while len(self._distributions) >= self.max_distributions:
            self._distributions.popitem(last=False)
            self.dist_evictions += 1
        self._distributions[key] = result
        if self._shared_store is not None:
            self._shared_store.put((self._shared_key(), key), result)
            self.shared_publishes += 1

    @staticmethod
    def _finish(
        circuit: QuantumCircuit,
        state: DensityMatrix,
        readout_errors: Optional[Sequence[Optional[ReadoutError]]],
    ) -> Dict[str, float]:
        """Measured-marginal + readout confusion + result-dict build."""
        measured = circuit.measured_qubits() or tuple(
            range(circuit.num_qubits)
        )
        probs = state.probabilities(measured)
        if readout_errors is not None:
            probs = _apply_readout_confusion(probs, measured, readout_errors)
        width = len(measured)
        return {
            format(i, f"0{width}b"): float(p)
            for i, p in enumerate(probs)
            if p > 1e-14
        }

    @staticmethod
    def _lower(
        circuit: QuantumCircuit,
        operation_compiler: Optional[Callable],
        noise_callback: Optional[Callable],
    ) -> LoweredCircuit:
        """Lowering + layer fusion (see the module docstring)."""
        return CircuitCompiler(operation_compiler, noise_callback).lower(
            circuit
        )

    def _evolve(self, lowered: LoweredCircuit) -> DensityMatrix:
        """Contract the fused stream against ``|0..0>``, in order."""
        state = DensityMatrix(lowered.num_qubits)
        for op in lowered.operations:
            state.apply_superoperator(op.superop, op.qubits)
        self.ops_replayed += len(lowered.operations)
        return state

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Flat counters; sim-specific keys are prefixed to avoid
        colliding with ChannelCache keys when backends merge them."""
        return {
            "dist_hits": self.dist_hits,
            "dist_misses": self.dist_misses,
            "dist_entries": len(self._distributions),
            "dist_evictions": self.dist_evictions,
            "ops_replayed": self.ops_replayed,
            "dist_shared_hits": self.shared_hits,
            "dist_shared_publishes": self.shared_publishes,
            "sim_invalidations": self.invalidations,
            "sim_epoch": self.epoch,
        }
