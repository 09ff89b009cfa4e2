"""Named benchmarks from public QASM collections, as synthesizers emit them.

These circuits reproduce the *shape* of programs in benchmark suites
like QASMBench / MQT Bench: not hand-minimized, but the literal output
of the naive generators those suites were built from (state-prep
synthesis, Trotter-term expansion, per-stabilizer parity networks,
oracle templates). That makes them the honest stress test for the
pre-search optimization pipeline — the redundancy they carry (zero-angle
multiplexer layers, zero-coefficient Trotter terms, check-and-restore
parity pairs, Hadamard-sandwiched CZ oracles) is exactly what real
generated circuits carry, and removing it shrinks the ANGEL ``1 + 2L``
probe budget because whole links drop out of the routed program.

They are reduced stand-ins, not the suites' full circuits: each keeps
its namesake's generator shape at a size a density-matrix probe sweep
can afford. ``basis_trotter_n4`` has 12 two-qubit gates, for example,
where the same-named circuit quoted in ``SNIPPETS.md`` has 462.
"""

from __future__ import annotations

import math

from ..circuit.circuit import QuantumCircuit

__all__ = ["wstate_n4", "basis_trotter_n4", "grover_n2", "qec_en_n5"]


def wstate_n4() -> QuantumCircuit:
    """3-excitation W state on a padded 4-qubit register (15 CNOTs).

    Fixed-width benchmark registers are the norm in QASM collections:
    the state lives on qubits 0-2 and qubit 3 is padding. Initialize-
    style synthesis does not special-case that — it emits the full
    recursive demultiplexing cascade over the whole register, so the
    padded qubit gets (a) a multiplexed-RZ phase layer on ``(0, 2)``
    whose angles are all zero (the amplitudes are real) and (b) a
    Gray-code multiplexed-RY disentangling layer onto qubit 3 whose
    angles are all zero (the qubit is ``|0>``). Both layers are pure
    CX scaffolding around identity rotations. Optimizing them away
    leaves qubit 3 with no two-qubit gates at all, so every routed
    link incident to it leaves the ``1 + 2L`` probe budget.
    """
    circuit = QuantumCircuit(4, name="wstate_n4")
    # Amplitude cascade: sin(theta0/2) = 1/sqrt(3) puts 1/sqrt(3) of the
    # weight on |100>; the zero-controlled RY(pi/2) splits the rest
    # evenly between |010> and |000>.
    theta0 = 2.0 * math.asin(1.0 / math.sqrt(3.0))
    circuit.ry(theta0, 0)
    circuit.x(0)
    circuit.ry(math.pi / 4, 1)
    circuit.cnot(0, 1)
    circuit.ry(-math.pi / 4, 1)
    circuit.cnot(0, 1)
    circuit.x(0)
    # Parity network: flip q2 iff q0 = q1 = 0. On the reachable states
    # (|100>, |010>, |000>) OR equals XOR, so conjugating by cx(0,1)
    # lets a single cx(1,2) do the controlled flip.
    circuit.cnot(0, 1)
    circuit.x(2)
    circuit.cnot(1, 2)
    circuit.cnot(0, 1)
    # Multiplexed-RZ phase correction (all angles zero for a real state).
    circuit.rz(0.0, 2)
    circuit.cnot(0, 2)
    circuit.rz(0.0, 2)
    circuit.cnot(0, 2)
    # Gray-code multiplexed-RY disentangling layer for the padded qubit:
    # all angles zero because qubit 3 carries no amplitude, but the
    # synthesizer emits the scaffolding anyway.
    for control in (2, 1, 2, 0, 2, 1, 2, 0):
        circuit.ry(0.0, 3)
        circuit.cnot(control, 3)
    circuit.measure_all()
    return circuit


def basis_trotter_n4() -> QuantumCircuit:
    """Two Trotter steps of a 4-site ZZ chain after a basis rotation.

    Term-by-term Trotter expansion (OpenFermion ``basis_trotter`` style):
    each ``exp(-i c Z.Z)`` term becomes ``cx . rz(2c) . cx`` whether or
    not the coefficient survives the basis change. Here the ``Z2 Z3``
    coefficient is zero, so its two conjugating CNOTs bracket ``rz(0)``
    — dead weight that keeps link ``(2, 3)`` alive in the routed program
    until the optimizer deletes the term. 12 CNOTs as generated.
    """
    circuit = QuantumCircuit(4, name="basis_trotter_n4")
    # Single-particle (Givens-style) basis rotation.
    circuit.ry(0.4, 0)
    circuit.ry(1.1, 1)
    circuit.ry(-0.7, 2)
    circuit.ry(0.9, 3)
    for _ in range(2):  # two Trotter steps over the same term list
        circuit.cnot(0, 1)
        circuit.rz(2 * 0.37, 1)
        circuit.cnot(0, 1)
        circuit.cnot(1, 2)
        circuit.rz(2 * 0.21, 2)
        circuit.cnot(1, 2)
        circuit.cnot(2, 3)
        circuit.rz(0.0, 3)  # zero-coefficient term, emitted anyway
        circuit.cnot(2, 3)
        circuit.rx(0.5, 1)
        circuit.rx(-0.3, 2)
    circuit.measure_all()
    return circuit


def grover_n2() -> QuantumCircuit:
    """One Grover iteration on 2 qubits, oracle marking ``|11>``.

    Template form: the oracle CZ and the diffusion CZ are both spelled
    as Hadamard-sandwiched CNOTs, the way gate-template libraries emit
    them for CNOT-basis backends. Measures ``11`` with certainty. The
    two-qubit rewrite pass folds both sandwiches back to native CZ,
    taking the program from 2 CNOT sites to 0 — the probe budget
    collapses from ``1 + 2L`` to the single reference probe.
    """
    circuit = QuantumCircuit(2, name="grover_n2")
    circuit.h(0)
    circuit.h(1)
    # Oracle: CZ marking |11>, as an H-sandwiched CNOT.
    circuit.h(1)
    circuit.cnot(0, 1)
    circuit.h(1)
    # Diffusion: H X (CZ) X H on both qubits.
    circuit.h(0)
    circuit.h(1)
    circuit.x(0)
    circuit.x(1)
    circuit.h(1)
    circuit.cnot(0, 1)
    circuit.h(1)
    circuit.x(0)
    circuit.x(1)
    circuit.h(0)
    circuit.h(1)
    circuit.measure_all()
    return circuit


def qec_en_n5() -> QuantumCircuit:
    """5-qubit repetition-code encoder with syndrome extraction (6 CNOTs).

    Three data qubits (GHZ-encoded), a syndrome ancilla, and an
    ancilla-verification qubit. Fault-tolerant templates verify the
    syndrome ancilla's preparation by entangling it with a checker
    qubit; in this measurement-free benchmark form the verification is
    immediately uncomputed, leaving the pair ``cx(3,4) . cx(3,4)`` —
    a no-op, but the only two-qubit contact qubit 4 ever has. Until
    the optimizer deletes it, any routing must spend a physical link
    on qubit 4, and the ``1 + 2L`` probe budget pays for it.
    """
    circuit = QuantumCircuit(5, name="qec_en_n5")
    # Encode |+> into the 3-qubit repetition code.
    circuit.h(0)
    circuit.cnot(0, 1)
    circuit.cnot(1, 2)
    # Ancilla verification: armed and immediately uncomputed.
    circuit.cnot(3, 4)
    circuit.cnot(3, 4)
    # Stabilizer Z0 Z1 -> ancilla 3.
    circuit.cnot(0, 3)
    circuit.cnot(1, 3)
    circuit.measure_all()
    return circuit
