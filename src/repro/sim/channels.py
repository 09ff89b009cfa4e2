"""Kraus-operator quantum channels.

These are the noise primitives the simulated device composes per gate:
depolarizing (incoherent scrambling), amplitude damping (T1 energy
relaxation), phase damping (pure T2 dephasing), coherent error (a unitary
channel — the *state-dependent* component central to the paper's
argument), and classical readout bit-flip confusion.

Every channel is a :class:`KrausChannel` — a list of Kraus operators
satisfying the completeness relation ``sum_i K_i^dag K_i = I`` — so the
density-matrix simulator can treat them uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from ..exceptions import SimulationError
from ..linalg import kron_n

__all__ = [
    "KrausChannel",
    "Superoperator",
    "identity_channel",
    "unitary_channel",
    "depolarizing_channel",
    "two_qubit_depolarizing_channel",
    "amplitude_damping_channel",
    "phase_damping_channel",
    "thermal_relaxation_channel",
    "compose_channels",
    "ReadoutError",
]

_PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# The 15 non-identity two-qubit Paulis, in IX, IY, ..., ZZ order.
_TWO_QUBIT_PAULIS = tuple(
    kron_n(_PAULIS[name_a], _PAULIS[name_b])
    for name_a in "IXYZ"
    for name_b in "IXYZ"
    if not name_a == name_b == "I"
)


@dataclass(frozen=True)
class KrausChannel:
    """A completely-positive trace-preserving map in Kraus form.

    Attributes:
        operators: The Kraus operators, each ``d x d``.
        label: Human-readable description used in noise-model reports.
    """

    operators: Tuple[np.ndarray, ...]
    label: str = "channel"

    def __post_init__(self) -> None:
        if not self.operators:
            raise SimulationError("channel needs at least one Kraus operator")
        dim = self.operators[0].shape[0]
        for op in self.operators:
            if op.shape != (dim, dim):
                raise SimulationError("Kraus operators must share a shape")

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    @property
    def num_qubits(self) -> int:
        return int(math.log2(self.dim))

    def is_trace_preserving(self, atol: float = 1e-8) -> bool:
        total = sum(op.conj().T @ op for op in self.operators)
        return bool(np.allclose(total, np.eye(self.dim), atol=atol))

    def apply_to(self, rho: np.ndarray) -> np.ndarray:
        """Apply the channel to a density matrix of matching dimension."""
        return sum(op @ rho @ op.conj().T for op in self.operators)

    def compose_unitary_before(self, unitary: np.ndarray) -> "KrausChannel":
        """The channel that first applies *unitary*, then this channel."""
        return KrausChannel(
            tuple(op @ unitary for op in self.operators),
            label=f"{self.label}∘U",
        )


@dataclass(frozen=True)
class Superoperator:
    """A channel as a dense linear map on vectorized density matrices.

    ``rho' = K rho K^dag`` summed over Kraus operators is linear in
    ``rho``; flattening ``rho`` row-major turns the channel into one
    ``d^2 x d^2`` matrix ``S = sum_i K_i (x) conj(K_i)``. Applying ``S``
    costs a single tensor contraction regardless of how many Kraus
    operators the channel has — this is the representation the device's
    channel cache stores for its fused per-gate fast path. Sequential
    channels compose by matrix product, so a gate's ideal unitary and
    its whole noise tail collapse into one operator.

    Attributes:
        matrix: The ``4^k x 4^k`` superoperator for a *k*-qubit map.
        label: Human-readable provenance for reports.
    """

    matrix: np.ndarray
    label: str = "superop"

    @property
    def dim(self) -> int:
        """Hilbert-space dimension ``d`` (the matrix is ``d^2 x d^2``)."""
        return int(round(math.sqrt(self.matrix.shape[0])))

    @property
    def num_qubits(self) -> int:
        return int(math.log2(self.dim))

    @classmethod
    def from_kraus(cls, channel: KrausChannel) -> "Superoperator":
        # The axis-0 sum adds the terms in order, like a sum of krons.
        ops = np.asarray(channel.operators, dtype=complex)
        return cls(_kron_conj(ops).sum(axis=0), channel.label)

    @classmethod
    def from_unitary(
        cls, unitary: np.ndarray, label: str = "unitary"
    ) -> "Superoperator":
        unitary = np.asarray(unitary, dtype=complex)
        return cls(_kron_conj(unitary[None])[0], label)

    def then(self, later: "Superoperator") -> "Superoperator":
        """The map applying this superoperator first, then *later*."""
        if later.matrix.shape != self.matrix.shape:
            raise SimulationError(
                "cannot compose superoperators of different dimensions"
            )
        return Superoperator(
            later.matrix @ self.matrix, f"{later.label}∘{self.label}"
        )

    def embed(self, position: int, num_qubits: int) -> "Superoperator":
        """Embed a 1-qubit map into a *num_qubits* register at *position*.

        The register superoperator indexes rows by ``(ket_out, bra_out)``
        and columns by ``(ket_in, bra_in)``, each half big-endian over
        the qubits. Each entry is an entry of the 1-qubit map or zero:
        one gather through :func:`_embed_table`.
        """
        if self.num_qubits != 1:
            raise SimulationError("embed expects a single-qubit map")
        if not 0 <= position < num_qubits:
            raise SimulationError(
                f"position {position} outside a {num_qubits}-qubit register"
            )
        source = np.zeros(17, dtype=complex)
        source[:16] = self.matrix.ravel()
        matrix = source[_embed_table(position, num_qubits)]
        return Superoperator(matrix, f"{self.label}@q{position}")


def _kron_conj(ops: np.ndarray) -> np.ndarray:
    """``kron(K, conj(K))`` for each ``K`` of a ``(k, d, d)`` stack.

    Entry ``[k, i, m, j, n]`` is ``K_k[i, j] * conj(K_k[m, n])``, the
    multiplication ``np.kron`` does for ``[(i, m), (j, n)]``, so every
    term is bit-identical to its kron.
    """
    count, dim = ops.shape[0], ops.shape[1]
    terms = ops[:, :, None, :, None] * ops.conj()[:, None, :, None, :]
    return terms.reshape(count, dim * dim, dim * dim)


@lru_cache(maxsize=None)
def _embed_table(position: int, num_qubits: int) -> np.ndarray:
    """Gather indices placing a 1-qubit superoperator at *position*.

    Entry ``[r, c]`` is the flat index of the 1-qubit entry landing at
    ``[r, c]``, or 16 (one past the end) where the register map is zero:
    the per-qubit maps (identity elsewhere) tensored over markers that
    hold their own flat index plus one, axes reordered to the register.
    """
    eye = np.eye(2)
    # Per-qubit map with axes (ket_out, bra_out, ket_in, bra_in).
    identity_map = np.einsum("ac,bd->abcd", eye, eye)
    markers = np.arange(1.0, 17.0).reshape(2, 2, 2, 2)
    total = np.ones(())
    for index in range(num_qubits):
        block = markers if index == position else identity_map
        total = np.tensordot(total, block, axes=0)
    # (ko_q, bo_q, ki_q, bi_q) per qubit -> (ko_*, bo_*, ki_*, bi_*).
    perm = [4 * q + part for part in range(4) for q in range(num_qubits)]
    dim = 2**num_qubits
    table = np.transpose(total, perm).reshape(dim * dim, dim * dim)
    table = np.where(table == 0, 17, table).astype(np.intp) - 1
    table.setflags(write=False)
    return table


def identity_channel(num_qubits: int = 1) -> KrausChannel:
    """The do-nothing channel on *num_qubits* qubits."""
    return KrausChannel((np.eye(2**num_qubits, dtype=complex),), "identity")


def unitary_channel(unitary: np.ndarray, label: str = "unitary") -> KrausChannel:
    """A purely coherent channel — the state-dependent error carrier."""
    return KrausChannel((np.asarray(unitary, dtype=complex),), label)


def depolarizing_channel(probability: float) -> KrausChannel:
    """Single-qubit depolarizing channel with error probability *p*.

    With probability *p* the state is replaced by one of X, Y, Z applied
    uniformly (the standard Pauli-twirl convention): Kraus weights
    ``sqrt(1 - p)`` on I and ``sqrt(p/3)`` on each Pauli.
    """
    _check_probability(probability)
    ops = [math.sqrt(1.0 - probability) * _PAULIS["I"]]
    ops.extend(
        math.sqrt(probability / 3.0) * _PAULIS[p] for p in ("X", "Y", "Z")
    )
    return KrausChannel(tuple(ops), f"depolarizing(p={probability:.4g})")


def two_qubit_depolarizing_channel(probability: float) -> KrausChannel:
    """Two-qubit depolarizing channel over the 15 non-identity Paulis."""
    _check_probability(probability)
    ops: List[np.ndarray] = [
        math.sqrt(1.0 - probability) * np.eye(4, dtype=complex)
    ]
    weight = math.sqrt(probability / 15.0)
    ops.extend(weight * pauli for pauli in _TWO_QUBIT_PAULIS)
    return KrausChannel(tuple(ops), f"depolarizing2(p={probability:.4g})")


def amplitude_damping_channel(gamma: float) -> KrausChannel:
    """T1 relaxation: |1> decays to |0> with probability *gamma*."""
    _check_probability(gamma)
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return KrausChannel((k0, k1), f"amplitude_damping(g={gamma:.4g})")


def phase_damping_channel(lam: float) -> KrausChannel:
    """Pure dephasing: off-diagonals shrink by ``sqrt(1 - lambda)``."""
    _check_probability(lam)
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - lam)]], dtype=complex)
    k1 = np.array([[0.0, 0.0], [0.0, math.sqrt(lam)]], dtype=complex)
    return KrausChannel((k0, k1), f"phase_damping(l={lam:.4g})")


def thermal_relaxation_channel(
    duration: float, t1: float, t2: float
) -> KrausChannel:
    """Combined T1/T2 decay over a pulse of the given *duration*.

    Implemented as amplitude damping with ``gamma = 1 - exp(-t/T1)``
    composed with pure dephasing chosen so the total off-diagonal decay
    matches ``exp(-t/T2)`` (requires the physical constraint
    ``T2 <= 2 T1``).
    """
    if duration < 0:
        raise SimulationError("duration must be non-negative")
    if t1 <= 0 or t2 <= 0:
        raise SimulationError("T1 and T2 must be positive")
    if t2 > 2 * t1 + 1e-12:
        raise SimulationError("unphysical relaxation: T2 > 2*T1")
    gamma = 1.0 - math.exp(-duration / t1)
    total_coherence = math.exp(-duration / t2)
    # amplitude damping alone decays coherence by sqrt(1-gamma); the
    # residual dephasing must supply the rest.
    residual = total_coherence / math.sqrt(1.0 - gamma) if gamma < 1 else 0.0
    residual = min(1.0, max(0.0, residual))
    lam = 1.0 - residual**2
    channel = compose_channels(
        amplitude_damping_channel(gamma), phase_damping_channel(lam)
    )
    return KrausChannel(
        channel.operators,
        f"thermal(t={duration:.3g},T1={t1:.3g},T2={t2:.3g})",
    )


def compose_channels(first: KrausChannel, second: KrausChannel) -> KrausChannel:
    """The channel applying *first* then *second* (both same dimension)."""
    if first.dim != second.dim:
        raise SimulationError("cannot compose channels of different dims")
    ops = tuple(
        b @ a for a in first.operators for b in second.operators
    )
    return KrausChannel(ops, f"{second.label}∘{first.label}")


@dataclass(frozen=True)
class ReadoutError:
    """Classical measurement confusion for one qubit.

    Attributes:
        p0_given_1: Probability of reading 0 when the qubit was 1 (T1-like
            decay during readout dominates, so typically larger).
        p1_given_0: Probability of reading 1 when the qubit was 0.
    """

    p0_given_1: float
    p1_given_0: float

    def __post_init__(self) -> None:
        _check_probability(self.p0_given_1)
        _check_probability(self.p1_given_0)

    @property
    def assignment_fidelity(self) -> float:
        """Average probability of a correct readout, ``1 - (e01+e10)/2``."""
        return 1.0 - 0.5 * (self.p0_given_1 + self.p1_given_0)

    def confusion_matrix(self) -> np.ndarray:
        """Column-stochastic matrix ``M[observed, actual]``."""
        return np.array(
            [
                [1.0 - self.p1_given_0, self.p0_given_1],
                [self.p1_given_0, 1.0 - self.p0_given_1],
            ]
        )

    def flip(self, bit: int, rng: np.random.Generator) -> int:
        """Sample the observed value for an actual *bit*."""
        if bit:
            return 0 if rng.random() < self.p0_given_1 else 1
        return 1 if rng.random() < self.p1_given_0 else 0


def _check_probability(value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise SimulationError(f"probability {value} outside [0, 1]")
