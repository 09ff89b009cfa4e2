"""Unit tests for the batched candidate-simulation engine.

Covers the candidate-axis tensor contraction (bit-identity per slice),
the batch planner's cluster geometry, the device-level grouped batch
path (dedup, counters, equivalence), the Clifford fast path's routing
rules, and the per-candidate histogram amortization fix.
"""

import numpy as np
import pytest

from repro.compiler import transpile
from repro.core.sequence import NativeGateSequence
from repro.device.presets import (
    NOISELESS_PROFILE,
    aspen11,
    small_test_device,
)
from repro.exceptions import SimulationError
from repro.exec import BatchExecutor, Job, LocalBackend
from repro.obs import MetricsRegistry, Tracer
from repro.programs.ghz import ghz
from repro.sim.batched import BatchedDensityMatrix, plan_batches
from repro.sim.channels import (
    Superoperator,
    depolarizing_channel,
    unitary_channel,
)
from repro.sim.circuit_compiler import circuit_fingerprint
from repro.sim.density_matrix import DensityMatrix


def _random_states(rng, count, num_qubits):
    """Random valid density-matrix tensors (mixtures of pure states)."""
    dim = 2**num_qubits
    tensors = []
    for _ in range(count):
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        vec /= np.linalg.norm(vec)
        rho = np.outer(vec, vec.conj())
        tensors.append(rho.reshape((2,) * (2 * num_qubits)))
    return tensors


class TestBatchedDensityMatrix:
    def test_slicewise_bit_identity_with_unbatched(self):
        """Each candidate slice after a batched superoperator matches
        the plain DensityMatrix application bitwise."""
        rng = np.random.default_rng(7)
        num_qubits = 3
        tensors = _random_states(rng, 4, num_qubits)
        stacked = BatchedDensityMatrix(num_qubits, tensors)
        theta = 0.3
        ops = [
            (Superoperator.from_kraus(depolarizing_channel(0.01)), (1,)),
            (Superoperator.from_kraus(unitary_channel(
                np.array([
                    [1, 0, 0, 0],
                    [0, 1, 0, 0],
                    [0, 0, 1, 0],
                    [0, 0, 0, np.exp(1j * theta)],
                ])
            )), (0, 2)),
        ]
        singles = []
        for tensor in tensors:
            state = DensityMatrix.from_snapshot(num_qubits, tensor)
            for superop, qubits in ops:
                state.apply_superoperator(superop, qubits)
            singles.append(state)
        for superop, qubits in ops:
            stacked.apply_superoperator(superop, qubits)
        for index, single in enumerate(singles):
            assert np.array_equal(
                stacked.tensor(index), single._tensor
            ), f"candidate {index} diverged"

    def test_count_and_tensor_copy(self):
        tensors = _random_states(np.random.default_rng(3), 2, 2)
        stacked = BatchedDensityMatrix(2, tensors)
        assert stacked.count == 2
        view = stacked.tensor(0)
        view[(0,) * 4] = 99.0
        assert stacked.tensor(0)[(0,) * 4] != 99.0

    def test_rejects_empty_and_misshapen(self):
        with pytest.raises(SimulationError):
            BatchedDensityMatrix(2, [])
        with pytest.raises(SimulationError):
            BatchedDensityMatrix(2, [np.zeros((2, 2), dtype=complex)])

    def test_rejects_wrong_arity_superop(self):
        tensors = _random_states(np.random.default_rng(5), 2, 2)
        stacked = BatchedDensityMatrix(2, tensors)
        with pytest.raises(SimulationError):
            stacked.apply_superoperator(
                Superoperator.from_kraus(depolarizing_channel(0.01)),
                (0, 1),
            )


class TestBatchPlanner:
    def _lowered_probe_batch(self, device, num_qubits=5):
        compiled = transpile(ghz(num_qubits), device)
        reference = NativeGateSequence.uniform(compiled.sites, "cz")
        circuits = [compiled.nativized(reference, name_suffix="_ref")]
        options = compiled.gate_options()
        for number, link in enumerate(compiled.links_used()):
            for gate in options[link]:
                if gate == "cz":
                    continue
                gates = tuple(
                    gate if site.link == link else ref
                    for site, ref in zip(compiled.sites, reference.gates)
                )
                circuits.append(
                    compiled.nativized(
                        NativeGateSequence(compiled.sites, gates),
                        name_suffix=f"_p{number}_{gate}",
                    )
                )
        cache = device.sim_cache
        lowered = []
        for circuit in circuits:
            used = device._used_qubits(circuit)
            compact, _ = device._compact_circuit(circuit, used)
            placement = tuple(used)
            lowered.append(
                cache._lower(
                    compact,
                    (placement, circuit_fingerprint(compact)),
                    device._operation_compiler_factory(used),
                    device._noise_callback_factory(used),
                    placement,
                )
            )
        return lowered

    def test_plans_cover_every_index_once(self):
        device = aspen11(seed=5)
        lowered = self._lowered_probe_batch(device)
        plans = plan_batches(lowered)
        covered = sorted(i for plan in plans for i in plan.indices)
        assert covered == list(range(len(lowered)))

    def test_candidate_pairs_cluster_with_shared_suffix(self):
        """Localized-search probes share long suffixes: the planner must
        find at least one multi-candidate cluster with a nonzero shared
        suffix, and geometry never exceeds the shortest member."""
        device = aspen11(seed=5)
        lowered = self._lowered_probe_batch(device)
        plans = plan_batches(lowered)
        stacked = [p for p in plans if len(p.indices) > 1]
        assert stacked, "no cluster stacked on a probe batch"
        for plan in plans:
            shortest = min(
                len(lowered[i].operations) for i in plan.indices
            )
            assert plan.prefix_len + plan.suffix_len <= shortest
            if len(plan.indices) == 1:
                assert plan.suffix_len == 0

    def test_singleton_input(self):
        device = aspen11(seed=5)
        lowered = self._lowered_probe_batch(device)[:1]
        plans = plan_batches(lowered)
        assert len(plans) == 1
        assert plans[0].indices == (0,)
        assert plans[0].suffix_len == 0

    def test_empty_input(self):
        assert plan_batches([]) == []


class TestGroupedBatchPath:
    def _probe_circuits(self, device, num_qubits=5):
        compiled = transpile(ghz(num_qubits), device)
        reference = NativeGateSequence.uniform(compiled.sites, "cz")
        circuits = [compiled.nativized(reference, name_suffix="_ref")]
        options = compiled.gate_options()
        for number, link in enumerate(compiled.links_used()):
            for gate in options[link]:
                if gate == "cz":
                    continue
                gates = tuple(
                    gate if site.link == link else ref
                    for site, ref in zip(compiled.sites, reference.gates)
                )
                circuits.append(
                    compiled.nativized(
                        NativeGateSequence(compiled.sites, gates),
                        name_suffix=f"_p{number}_{gate}",
                    )
                )
        return circuits

    def test_batch_bit_identical_to_sequential(self):
        dev_on = aspen11(seed=23)
        dev_off = aspen11(seed=23, batched_sim=False)
        circuits = self._probe_circuits(dev_on)
        batched = dev_on.noisy_distribution_batch(circuits)
        plain = [dev_off.noisy_distribution(c) for c in circuits]
        assert batched == plain
        stats = dev_on.sim_cache.stats()
        assert stats["batch_groups"] > 0
        assert stats["batch_candidates"] > stats["batch_groups"]

    def test_batched_off_device_never_stacks(self):
        device = aspen11(seed=23, batched_sim=False)
        circuits = self._probe_circuits(device)
        device.noisy_distribution_batch(circuits)
        stats = device.sim_cache.stats()
        assert stats["batch_groups"] == 0
        assert stats["batch_dedup_hits"] == 0

    def test_in_batch_dedup_fans_out(self):
        device = aspen11(seed=23)
        circuits = self._probe_circuits(device)
        doubled = circuits + circuits
        results = device.noisy_distribution_batch(doubled)
        assert results[: len(circuits)] == results[len(circuits):]
        stats = device.sim_cache.stats()
        assert stats["batch_dedup_hits"] >= len(circuits)

    def test_results_are_isolated_copies(self):
        device = aspen11(seed=23)
        circuits = self._probe_circuits(device)[:2]
        first = device.noisy_distribution_batch(circuits + circuits)
        first[0]["corrupted"] = 1.0
        again = device.noisy_distribution_batch(circuits)
        assert "corrupted" not in again[0]

    def test_executor_stats_carry_batch_counters(self):
        device = aspen11(seed=23)
        executor = BatchExecutor(LocalBackend(device), mode="parallel")
        circuits = self._probe_circuits(device)
        jobs = [
            Job(c, 128, seed=100 + i, tag="probe")
            for i, c in enumerate(circuits + circuits)
        ]
        executor.submit_batch(jobs)
        stats = executor.stats
        assert stats.batch_groups > 0
        assert stats.batch_dedup_hits >= len(circuits)
        snapshot = stats.snapshot()
        assert snapshot["batch_groups"] == stats.batch_groups
        assert snapshot["batch_dedup_hits"] == stats.batch_dedup_hits
        assert "batched sim:" in stats.to_text()


class TestCliffordFastPath:
    def test_fires_on_noiseless_clifford_probe(self):
        device = small_test_device(
            num_qubits=4,
            seed=7,
            profile=NOISELESS_PROFILE,
            clifford_fast_path=True,
        )
        dense = small_test_device(
            num_qubits=4, seed=7, profile=NOISELESS_PROFILE
        )
        compiled = transpile(ghz(4), device)
        circuit = compiled.nativized(
            NativeGateSequence.uniform(compiled.sites, "cz")
        )
        fast = device.noisy_distribution(circuit)
        want = dense.noisy_distribution(
            transpile(ghz(4), dense).nativized(
                NativeGateSequence.uniform(compiled.sites, "cz")
            )
        )
        assert device.clifford_fast_hits > 0
        keys = set(fast) | set(want)
        for key in keys:
            assert fast.get(key, 0.0) == pytest.approx(
                want.get(key, 0.0), abs=1e-4
            )

    def test_non_clifford_candidate_falls_back(self):
        device = small_test_device(
            num_qubits=4,
            seed=7,
            profile=NOISELESS_PROFILE,
            clifford_fast_path=True,
        )
        compiled = transpile(ghz(4), device)
        circuit = compiled.nativized(
            NativeGateSequence.uniform(compiled.sites, "cphase")
        )
        device.noisy_distribution(circuit)
        assert device.clifford_fast_hits == 0
        assert device.clifford_fallbacks > 0

    def test_flag_off_never_consults_stabilizer(self):
        device = small_test_device(
            num_qubits=4, seed=7, profile=NOISELESS_PROFILE
        )
        compiled = transpile(ghz(4), device)
        circuit = compiled.nativized(
            NativeGateSequence.uniform(compiled.sites, "cz")
        )
        device.noisy_distribution(circuit)
        assert device.clifford_fast_hits == 0
        assert device.clifford_fallbacks == 0

    def test_memo_serves_repeats_and_drift_invalidates(self):
        device = small_test_device(
            num_qubits=4,
            seed=7,
            profile=NOISELESS_PROFILE,
            clifford_fast_path=True,
        )
        compiled = transpile(ghz(4), device)
        circuit = compiled.nativized(
            NativeGateSequence.uniform(compiled.sites, "cz")
        )
        first = device.noisy_distribution(circuit)
        hits_before = device.clifford_fast_hits
        second = device.noisy_distribution(circuit)
        assert second == first
        assert device.clifford_fast_hits == hits_before + 1
        assert not device._clifford_memo or True  # memo populated below
        assert len(device._clifford_memo) > 0
        device.advance_time(3600e6)
        assert len(device._clifford_memo) == 0


class TestPerCandidateHistogram:
    def test_exec_batch_wall_time_amortized_per_candidate(self):
        """Satellite fix: a grouped batch of N jobs lands N per-unit
        observations in the exec.batch wall-time histogram, not one
        batch-sized observation — percentiles stay comparable across
        engine modes."""
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry)
        with tracer.span("exec.batch", jobs=8, units=8):
            pass
        histogram = registry.histogram("span.exec.batch.wall_s")
        assert histogram.count == 8
        span = tracer.spans[-1]
        assert histogram.total == pytest.approx(span.wall_time_s)

    def test_span_without_units_observes_once(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry)
        with tracer.span("backend.job"):
            pass
        assert registry.histogram("span.backend.job.wall_s").count == 1

    def test_observe_many_matches_repeated_observe(self):
        from repro.obs.metrics import Histogram

        left = Histogram("left")
        right = Histogram("right")
        left.observe_many(0.25, 5)
        for _ in range(5):
            right.observe(0.25)
        assert left.snapshot() == right.snapshot()
        left.observe_many(1.0, 0)  # no-op
        assert left.count == 5
