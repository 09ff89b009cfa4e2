"""Tests for device execution accounting: logs, durations, clocks."""

import math

import pytest

from repro.circuit import QuantumCircuit
from repro.circuit.dag import circuit_moments
from repro.compiler import transpile
from repro.core import NativeGateSequence
from repro.device import small_test_device
from repro.device.device import _JOB_OVERHEAD_US, _SHOT_OVERHEAD_US
from repro.device.native_gates import (
    DEFAULT_PULSE_DURATIONS_NS,
    cnot_decomposition,
    hadamard_native,
)
from repro.programs.suite import benchmark_suite


def _native_bell(a, b):
    qc = QuantumCircuit(max(a, b) + 1, name="bell_acct")
    for g in hadamard_native(a):
        qc.append(g)
    for g in cnot_decomposition("cz", a, b):
        qc.append(g)
    qc.measure(a)
    qc.measure(b)
    return qc


class TestExecutionLog:
    def test_log_records_job_metadata(self):
        device = small_test_device(3, seed=71)
        device.run(_native_bell(0, 1), 123, seed=0)
        record = device.execution_log[-1]
        assert record.circuit_name == "bell_acct"
        assert record.shots == 123
        assert record.qubits == (0, 1)
        assert record.duration_us > 0

    def test_log_accumulates(self):
        device = small_test_device(3, seed=71)
        for _ in range(3):
            device.run(_native_bell(0, 1), 10, seed=0)
        assert len(device.execution_log) == 3
        starts = [r.started_at_us for r in device.execution_log]
        assert starts == sorted(starts)
        assert starts[1] == pytest.approx(
            starts[0] + device.execution_log[0].duration_us
        )

    def test_oracle_views_not_logged(self):
        device = small_test_device(3, seed=71)
        before = len(device.execution_log)
        clock_before = device.clock_us
        device.noisy_distribution(_native_bell(0, 1))
        device.true_pulse_fidelity((0, 1), "cz")
        assert len(device.execution_log) == before
        assert device.clock_us == clock_before


class TestDurations:
    def test_rz_is_free(self):
        device = small_test_device(2, seed=72)
        qc = QuantumCircuit(1).rz(0.3, 0).rz(0.5, 0).measure(0)
        duration = device.circuit_duration_us(qc)
        # Only the measurement contributes.
        assert duration == pytest.approx(
            DEFAULT_PULSE_DURATIONS_NS["measure"] / 1000.0
        )

    def test_parallel_gates_share_time(self):
        device = small_test_device(3, seed=72)
        serial = QuantumCircuit(1)
        serial.rx(math.pi / 2, 0)
        serial.rx(math.pi / 2, 0)
        parallel = QuantumCircuit(2)
        parallel.rx(math.pi / 2, 0)
        parallel.rx(math.pi / 2, 1)
        assert device.circuit_duration_us(parallel) < device.circuit_duration_us(
            serial
        )

    def test_two_qubit_duration_from_gate_params(self):
        device = small_test_device(2, seed=72)
        qc = QuantumCircuit(2).cz(0, 1)
        expected = device.gate_params[((0, 1), "cz")].duration_ns / 1000.0
        assert device.circuit_duration_us(qc) == pytest.approx(expected)

    def test_job_time_scales_with_shots(self):
        device_a = small_test_device(2, seed=73)
        device_b = small_test_device(2, seed=73)
        device_a.run(_native_bell(0, 1), 100, seed=0)
        device_b.run(_native_bell(0, 1), 10_000, seed=0)
        assert (
            device_b.execution_log[-1].duration_us
            > device_a.execution_log[-1].duration_us
        )


@pytest.fixture(scope="module")
def native_suite():
    """Table I plus the extra/named programs, nativized onto a line."""
    device = small_test_device(7, seed=74)
    circuits = []
    for spec in benchmark_suite(include_extras=True):
        compiled = transpile(spec.build(), device)
        sequence = NativeGateSequence.uniform(compiled.sites, "cz")
        circuits.append(compiled.nativized(sequence))
    barriered = QuantumCircuit(7, name="barriered")
    for g in hadamard_native(3):
        barriered.append(g)
    barriered.barrier()
    barriered.rx(math.pi / 2, 5)
    for g in cnot_decomposition("cz", 5, 6):
        barriered.append(g)
    barriered.measure(3)
    barriered.measure(6)
    circuits.append(barriered)
    return circuits


def _uneven_device():
    """A line whose pulse durations differ per qubit and per link, so a
    duration looked up on the wrong (compact vs physical) qubit shows."""
    device = small_test_device(7, seed=74)
    for qubit, params in device.qubit_params.items():
        params.rx_duration_ns = 40.0 + 7.0 * qubit
    for (link, _), params in device.gate_params.items():
        params.duration_ns += 11.0 * link[0]
    return device


class TestJobDuration:
    """``run`` times each job from one walk over the job's moments."""

    @pytest.mark.parametrize("idle_noise", [False, True])
    def test_logged_duration_is_circuit_duration(
        self, native_suite, idle_noise
    ):
        device = _uneven_device()
        device.idle_noise = idle_noise
        shots = 37
        for circuit in native_suite:
            expected = _JOB_OVERHEAD_US + shots * (
                device.circuit_duration_us(circuit) + _SHOT_OVERHEAD_US
            )
            device.run(circuit, shots, seed=0)
            assert device.execution_log[-1].duration_us == expected

    def test_idle_walk_returns_circuit_duration(self, native_suite):
        device = _uneven_device()
        for circuit in native_suite:
            compact, _ = circuit.compacted()
            _, circuit_us = device._with_idle_markers(circuit, compact)
            assert circuit_us == device.circuit_duration_us(circuit)

    def test_idle_markers_last_a_physical_moment(self, native_suite):
        # Compact indices differ from physical ones here, so the markers
        # must take their length from the physical gates' durations.
        device = _uneven_device()
        relabeled = 0
        for circuit in native_suite:
            moment_ns = {
                max(device._gate_duration_ns(g) for g in moment.gates)
                for moment in circuit_moments(circuit)
            }
            compact, used = circuit.compacted()
            relabeled += used != tuple(range(len(used)))
            marked, _ = device._with_idle_markers(circuit, compact)
            idles = {g.params[0] for g in marked if g.name == "idle"}
            assert idles <= moment_ns
        assert relabeled
