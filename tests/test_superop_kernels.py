"""Bit-identity pins for the vectorized superoperator kernels.

``Superoperator.from_kraus``, ``Superoperator.from_unitary``,
``Superoperator.embed`` and ``two_qubit_depolarizing_channel`` are on
every lowering's hot path, so they run as broadcast/gather kernels. This file keeps the straightforward
formulas they replaced — a left-to-right sum of ``np.kron`` terms, a
``tensordot`` chain of per-qubit maps, and ``kron_n`` Pauli products —
as oracles, and requires exact equality (``np.array_equal``), not
closeness: fused probe distributions and pinned digests depend on it.
"""

import math

import numpy as np
import pytest

from repro.circuit.gates import rx_matrix, rz_matrix
from repro.exceptions import SimulationError
from repro.linalg import kron_n
from repro.sim.channels import (
    KrausChannel,
    Superoperator,
    amplitude_damping_channel,
    compose_channels,
    depolarizing_channel,
    identity_channel,
    phase_damping_channel,
    thermal_relaxation_channel,
    two_qubit_depolarizing_channel,
    unitary_channel,
)

_PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


# ----------------------------------------------------------------------
# Oracles: the reference formulas the kernels must reproduce exactly.
# ----------------------------------------------------------------------
def oracle_from_kraus(channel: KrausChannel) -> np.ndarray:
    matrix = sum(np.kron(op, op.conj()) for op in channel.operators)
    return np.asarray(matrix, dtype=complex)


def oracle_embed(matrix: np.ndarray, position: int, num_qubits: int):
    eye = np.eye(2, dtype=complex)
    identity_map = np.einsum("ac,bd->abcd", eye, eye)
    small = matrix.reshape(2, 2, 2, 2)
    total = None
    for index in range(num_qubits):
        block = small if index == position else identity_map
        total = block if total is None else np.tensordot(
            total, block, axes=0
        )
    perm = [4 * q + part for part in range(4) for q in range(num_qubits)]
    dim = 2**num_qubits
    return np.transpose(total, perm).reshape(dim * dim, dim * dim)


def oracle_two_qubit_depolarizing_ops(probability: float):
    ops = [math.sqrt(1.0 - probability) * np.eye(4, dtype=complex)]
    weight = math.sqrt(probability / 15.0)
    for name_a in "IXYZ":
        for name_b in "IXYZ":
            if name_a == name_b == "I":
                continue
            ops.append(weight * kron_n(_PAULIS[name_a], _PAULIS[name_b]))
    return ops


def _assert_from_kraus_exact(channel: KrausChannel) -> None:
    superop = Superoperator.from_kraus(channel)
    expected = oracle_from_kraus(channel)
    assert superop.matrix.dtype == expected.dtype
    assert superop.matrix.shape == expected.shape
    assert np.array_equal(superop.matrix, expected)
    assert superop.label == channel.label


PROBABILITIES = [0.0, 1e-4, 0.0137, 0.25, 0.75, 1.0]


class TestFromKraus:
    @pytest.mark.parametrize("p", PROBABILITIES)
    def test_depolarizing(self, p):
        _assert_from_kraus_exact(depolarizing_channel(p))

    @pytest.mark.parametrize("p", PROBABILITIES)
    def test_two_qubit_depolarizing(self, p):
        _assert_from_kraus_exact(two_qubit_depolarizing_channel(p))

    @pytest.mark.parametrize(
        "duration, t1, t2",
        [
            (0.0, 50.0, 70.0),  # zero-length pulse: identity-like
            (0.035, 48.2, 61.7),
            (0.4, 20.0, 40.0),  # T2 = 2*T1: no residual dephasing
            (3.0, 2.0, 1.5),
            (1e3, 1.0, 2.0),  # fully relaxed
        ],
    )
    def test_thermal(self, duration, t1, t2):
        _assert_from_kraus_exact(thermal_relaxation_channel(duration, t1, t2))

    def test_amplitude_and_phase_damping(self):
        _assert_from_kraus_exact(amplitude_damping_channel(0.031))
        _assert_from_kraus_exact(phase_damping_channel(0.22))
        _assert_from_kraus_exact(
            compose_channels(
                amplitude_damping_channel(0.031), phase_damping_channel(0.22)
            )
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_unitary(self, seed):
        rng = np.random.default_rng(seed)
        unitary = rz_matrix(rng.uniform(-math.pi, math.pi)) @ rx_matrix(
            rng.uniform(-math.pi, math.pi)
        )
        _assert_from_kraus_exact(unitary_channel(unitary))
        _assert_from_kraus_exact(unitary_channel(np.kron(unitary, unitary)))

    def test_identity(self):
        _assert_from_kraus_exact(identity_channel(1))
        _assert_from_kraus_exact(identity_channel(2))

    def test_coherent_then_noise(self):
        unitary = rx_matrix(0.37)
        channel = depolarizing_channel(0.02).compose_unitary_before(unitary)
        _assert_from_kraus_exact(channel)


def _random_superop(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))


class TestFromUnitary:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_kron(self, seed):
        rng = np.random.default_rng(seed)
        one = rz_matrix(rng.uniform(-math.pi, math.pi)) @ rx_matrix(
            rng.uniform(-math.pi, math.pi)
        )
        for unitary in (one, np.kron(one, rx_matrix(0.3))):
            superop = Superoperator.from_unitary(unitary, "u")
            expected = np.kron(unitary, unitary.conj())
            assert superop.matrix.dtype == expected.dtype
            assert np.array_equal(superop.matrix, expected)
            assert superop.label == "u"

    def test_accepts_real_matrices(self):
        swap = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
        )
        expected = np.kron(swap, swap).astype(complex)
        assert np.array_equal(Superoperator.from_unitary(swap).matrix, expected)


class TestEmbed:
    @pytest.mark.parametrize("num_qubits", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_every_position(self, num_qubits, seed):
        matrix = _random_superop(seed)
        for position in range(num_qubits):
            embedded = Superoperator(matrix, "m").embed(position, num_qubits)
            expected = oracle_embed(matrix, position, num_qubits)
            assert embedded.matrix.dtype == expected.dtype
            assert np.array_equal(embedded.matrix, expected)
            assert embedded.label == f"m@q{position}"

    @pytest.mark.parametrize("position", [0, 1])
    def test_physical_channels(self, position):
        for channel in (
            depolarizing_channel(0.013),
            thermal_relaxation_channel(0.035, 48.2, 61.7),
            unitary_channel(rx_matrix(math.pi / 2)),
        ):
            superop = Superoperator.from_kraus(channel)
            assert np.array_equal(
                superop.embed(position, 2).matrix,
                oracle_embed(superop.matrix, position, 2),
            )

    def test_rejects_non_single_qubit_map(self):
        superop = Superoperator.from_kraus(two_qubit_depolarizing_channel(0.1))
        with pytest.raises(SimulationError, match="single-qubit"):
            superop.embed(0, 3)

    @pytest.mark.parametrize("position", [-1, 2])
    def test_rejects_position_outside_register(self, position):
        superop = Superoperator.from_kraus(depolarizing_channel(0.1))
        with pytest.raises(SimulationError, match="outside"):
            superop.embed(position, 2)

    def test_embedded_matrix_is_writable_copy(self):
        superop = Superoperator(_random_superop(7))
        first = superop.embed(0, 2)
        first.matrix[0, 0] = 99.0
        assert np.array_equal(
            superop.embed(0, 2).matrix, oracle_embed(superop.matrix, 0, 2)
        )


class TestTwoQubitDepolarizingOperators:
    @pytest.mark.parametrize("p", PROBABILITIES)
    def test_matches_kron_construction(self, p):
        ops = two_qubit_depolarizing_channel(p).operators
        expected = oracle_two_qubit_depolarizing_ops(p)
        assert len(ops) == len(expected) == 16
        for op, ref in zip(ops, expected):
            assert op.dtype == ref.dtype
            assert np.array_equal(op, ref)

    def test_calls_do_not_share_operator_arrays(self):
        first = two_qubit_depolarizing_channel(0.1).operators
        second = two_qubit_depolarizing_channel(0.1).operators
        for a, b in zip(first, second):
            assert a is not b
