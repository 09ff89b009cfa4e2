"""Simulation cache: equivalence with the per-Kraus oracle,
drift, eviction pressure."""

import numpy as np
import pytest

from repro.compiler import transpile
from repro.compiler.nativization import nativize
from repro.core.sequence import NativeGateSequence
from repro.device import small_test_device
from repro.exec import BatchExecutor, Job, LocalBackend
from repro.programs.ghz import ghz
from repro.programs.qaoa import qaoa_n5
from repro.sim import CircuitCompiler, SimulationCache
from repro.sim.circuit_compiler import circuit_fingerprint

from .oracle import reference_run


def _native(device, program, gate="cz"):
    compiled = transpile(program, device)
    sequence = NativeGateSequence.uniform(compiled.sites, gate)
    return nativize(
        compiled.scheduled, sequence.as_site_map(), device.native_gates
    )


def _reference_jobs(device, jobs):
    """Counts of a sequential batch on the oracle, job by job."""
    return [
        reference_run(device, job.circuit, job.shots, job.seed)
        for job in jobs
    ]


def _pair(program, seed=9, **kwargs):
    """Identically-seeded twin devices: the first runs the product path,
    the second is driven through the per-Kraus oracle."""
    dev_on = small_test_device(5, seed=seed, **kwargs)
    dev_off = small_test_device(5, seed=seed, **kwargs)
    return dev_on, dev_off, _native(dev_on, program)


class TestLayerFusion:
    def test_fusion_reduces_contraction_count(self):
        device = small_test_device(5, seed=9)
        circuit = _native(device, ghz(5))
        used = device._used_qubits(circuit)
        compact, _ = device._compact_circuit(circuit, used)
        compiler = CircuitCompiler(
            device._operation_compiler_factory(used),
            device._noise_callback_factory(used),
        )
        lowered = compiler.lower(compact)
        assert lowered.raw_op_count > len(lowered.operations)
        # Every fused op still acts on at most two qubits.
        assert all(len(op.qubits) <= 2 for op in lowered.operations)

    def test_fingerprint_ignores_name_keeps_content(self):
        device = small_test_device(5, seed=9)
        a = _native(device, ghz(5))
        b = _native(device, ghz(5))
        b.name = "renamed_probe_copy"
        assert circuit_fingerprint(a) == circuit_fingerprint(b)
        c = _native(device, ghz(5), gate="xy")
        assert circuit_fingerprint(a) != circuit_fingerprint(c)


class TestBitIdenticalOnVsOff:
    @pytest.mark.parametrize(
        "program", [ghz(5), qaoa_n5()], ids=["ghz5", "qaoa5"]
    )
    def test_counts_identical_hierarchy_on_vs_off(self, program):
        dev_on, dev_off, _ = _pair(program)
        circuit_on = _native(dev_on, program)
        circuit_off = _native(dev_off, program)
        for seed in (7, 8, 9):
            counts_on = dev_on.run(circuit_on, 1500, seed=seed)
            counts_off = reference_run(dev_off, circuit_off, 1500, seed)
            assert counts_on == counts_off
        assert dev_on.clock_us == dev_off.clock_us

    @pytest.mark.parametrize(
        "program", [ghz(5), qaoa_n5()], ids=["ghz5", "qaoa5"]
    )
    def test_distributions_match_hierarchy_on_vs_off(self, program):
        dev_on, dev_off, circuit = _pair(program)
        dist_on = dev_on.noisy_distribution(circuit)
        dist_off = dev_off.reference_distribution(circuit)
        assert set(dist_on) == set(dist_off)
        for key in dist_off:
            assert dist_on[key] == pytest.approx(dist_off[key], abs=1e-12)

    def test_counts_identical_across_drift_boundary(self):
        """advance_time mid-sequence: both paths see the same new physics."""
        dev_on, dev_off, _ = _pair(ghz(5))
        circuit_on = _native(dev_on, ghz(5))
        circuit_off = _native(dev_off, ghz(5))
        assert dev_on.run(circuit_on, 1000, seed=3) == reference_run(
            dev_off, circuit_off, 1000, 3
        )
        dev_on.advance_time(6 * 3600e6)
        dev_off.advance_time(6 * 3600e6)
        assert dev_on.run(circuit_on, 1000, seed=3) == reference_run(
            dev_off, circuit_off, 1000, 3
        )

    def test_counts_identical_under_eviction_pressure(self):
        """A starving memo budget degrades speed, never correctness."""
        dev_on, dev_off, _ = _pair(ghz(5))
        # One entry: every distinct circuit evicts the previous one.
        dev_on.sim_cache = SimulationCache(max_distributions=1)
        gates = ("cz", "xy", "cphase")
        circuits_on = [_native(dev_on, ghz(5), gate=g) for g in gates]
        circuits_off = [_native(dev_off, ghz(5), gate=g) for g in gates]
        for circuit_on, circuit_off in zip(circuits_on, circuits_off):
            # Fill the memo within the epoch so the run below finds its
            # own entry evicted and recomputes it.
            for other in circuits_on:
                dev_on.noisy_distribution(other)
            assert dev_on.run(circuit_on, 800, seed=5) == reference_run(
                dev_off, circuit_off, 800, 5
            )
        assert dev_on.sim_cache.dist_evictions >= 2
        assert len(dev_on.sim_cache._distributions) <= 1


class TestReferenceOracle:
    """The product pipeline against the per-Kraus oracle, over the
    optional physics the other comparisons leave off."""

    @pytest.mark.parametrize("crosstalk_zz", [0.0, 0.1])
    @pytest.mark.parametrize("idle_noise", [False, True])
    @pytest.mark.parametrize("gate", ["cz", "xy", "cphase"])
    @pytest.mark.parametrize(
        "program", [ghz(5), qaoa_n5()], ids=["ghz5", "qaoa5"]
    )
    def test_product_matches_oracle(
        self, program, gate, idle_noise, crosstalk_zz
    ):
        device = small_test_device(5, seed=9)
        device.idle_noise = idle_noise
        device.crosstalk_zz = crosstalk_zz
        circuit = _native(device, program, gate=gate)
        product = device.noisy_distribution(circuit)
        reference = device.reference_distribution(circuit)
        assert set(product) == set(reference)
        for key in reference:
            assert abs(product[key] - reference[key]) <= 1e-12


class TestDriftInvalidation:
    def test_every_level_flushes_on_epoch_bump(self):
        device = small_test_device(5, seed=9)
        circuit = _native(device, ghz(5))
        device.noisy_distribution(circuit)
        stats = device.sim_cache.stats()
        assert stats["dist_entries"] == 1
        device.advance_time(3600e6)
        stats = device.sim_cache.stats()
        assert stats["dist_entries"] == 0
        assert stats["sim_epoch"] == device.drift_epoch

    def test_no_stale_distribution_after_mid_batch_drift(self):
        """Time advanced between batches: the memo serves no pre-drift
        data.

        An advance_time between two batches must force the second batch
        to recompute against the new parameters, matching the oracle on
        a twin device that drifted identically.
        """
        dev_on, dev_off, _ = _pair(ghz(5))
        backend_on = LocalBackend(dev_on)
        jobs_on = [
            Job(_native(dev_on, ghz(5)), 500, seed=s, tag="probe")
            for s in (1, 2, 3)
        ]
        jobs_off = [
            Job(_native(dev_off, ghz(5)), 500, seed=s, tag="probe")
            for s in (1, 2, 3)
        ]
        first_on = backend_on.submit_batch(jobs_on)
        first_off = _reference_jobs(dev_off, jobs_off)
        assert [r.counts for r in first_on] == first_off

        dev_on.advance_time(12 * 3600e6)
        dev_off.advance_time(12 * 3600e6)
        second_on = backend_on.submit_batch(jobs_on)
        second_off = _reference_jobs(dev_off, jobs_off)
        # Stale service would reproduce the *pre-drift* counts; instead
        # the product path and the oracle agree on the *post-drift*
        # physics.
        assert [r.counts for r in second_on] == second_off
        assert [r.counts for r in second_on] != [
            r.counts for r in first_on
        ]

class TestExecutorStatsPlumbing:
    def test_sim_counters_flow_into_executor_stats(self):
        device = small_test_device(5, seed=9)
        executor = BatchExecutor(LocalBackend(device))
        circuit = _native(device, ghz(5))
        jobs = [Job(circuit, 200, seed=s, tag="probe") for s in (1, 2, 3)]
        executor.submit_batch(jobs)
        stats = executor.stats
        # Every job starts a new drift epoch, so each one misses.
        assert stats.sim_dist_misses == 3
        snapshot = stats.snapshot()
        assert snapshot["sim_dist_hits"] == stats.sim_dist_hits
        assert snapshot["sim_dist_misses"] == stats.sim_dist_misses
        assert "sim cache:" in stats.to_text()


class TestDistributionCacheSkipsSimulation:
    def test_identical_probes_skip_recompute(self):
        device = small_test_device(5, seed=9)
        circuit = _native(device, ghz(5))
        device.noisy_distribution(circuit)
        replayed_after_first = device.sim_cache.ops_replayed
        device.noisy_distribution(circuit)
        # Second call: distribution memo hit, zero operator replays.
        assert device.sim_cache.ops_replayed == replayed_after_first
        assert device.sim_cache.dist_hits == 1

    def test_placement_is_part_of_the_key(self):
        """Equal compact circuits on different physical qubits must not
        share cache entries (their noise differs)."""
        device = small_test_device(5, seed=9)

        def two_qubit_bell(a, b):
            from repro.circuit.circuit import QuantumCircuit

            circuit = QuantumCircuit(5, name=f"bell_{a}{b}")
            circuit.rz(np.pi / 2, a)
            circuit.rx(np.pi / 2, a)
            circuit.cz(a, b)
            circuit.measure(a)
            circuit.measure(b)
            return circuit

        dist_01 = device.noisy_distribution(two_qubit_bell(0, 1))
        dist_34 = device.noisy_distribution(two_qubit_bell(3, 4))
        assert device.sim_cache.dist_hits == 0  # distinct placements
        plain = small_test_device(5, seed=9)
        ref_34 = plain.reference_distribution(two_qubit_bell(3, 4))
        for key in ref_34:
            assert dist_34[key] == pytest.approx(ref_34[key], abs=1e-12)
        assert dist_01 != dist_34
