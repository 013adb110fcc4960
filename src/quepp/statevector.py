"""Dense statevector simulation for small qubit counts.

This is the brute-force reference engine: gates are literal matrices applied
to a (2,)*n amplitude tensor, with no Pauli bookkeeping anywhere.  No
command runs it: the tests and two demos compare against it, and the tests
build their dense unitaries and density-matrix oracle on it to check the
symplectic fast paths, so it is deliberately kept independent of the
conjugation tables in :mod:`quepp.pauli`.

Qubit j corresponds to tensor axis j; basis order per axis is |0>, |1>.
"""

import numpy as np

from .errors import CapabilityError, ConsistencyError
from .pauli import CliffordGate, PauliString
from .circuits import Circuit, PauliRotation

__all__ = [
    "GATE_MATRICES",
    "input_state",
    "apply_clifford",
    "apply_rotation",
    "apply_pauli",
    "run_statevector",
    "expectation",
]

_SQ2 = 1.0 / np.sqrt(2.0)

GATE_MATRICES = {
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "sx": np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex) / 2,
    "sxdg": np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]], dtype=complex) / 2,
}

_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": GATE_MATRICES["x"],
    "Y": GATE_MATRICES["y"],
    "Z": GATE_MATRICES["z"],
}

_MAX_DENSE_QUBITS = 24  # hard sanity stop; practical ceilings are lower


def input_state(num_qubits: int, input_kind: str) -> np.ndarray:
    """|0..0> or |+..+> as a (2,)*n tensor."""
    if num_qubits > _MAX_DENSE_QUBITS:
        raise CapabilityError(f"dense state for {num_qubits} qubits is too large")
    if input_kind == "all_zero":
        state = np.zeros((2,) * num_qubits, dtype=complex)
        state[(0,) * num_qubits] = 1.0
        return state
    if input_kind == "all_plus":
        state = np.full((2,) * num_qubits, 2.0 ** (-num_qubits / 2), dtype=complex)
        return state
    raise ValueError(f"unknown input kind {input_kind!r}")


def _apply_1q(state: np.ndarray, matrix: np.ndarray, q: int) -> np.ndarray:
    out = np.tensordot(matrix, state, axes=([1], [q]))
    return np.moveaxis(out, 0, q)


def apply_clifford(state: np.ndarray, gate: CliffordGate) -> np.ndarray:
    if gate.kind == "cz":
        a, b = gate.qubits
        out = state.copy()
        index = [slice(None)] * state.ndim
        index[a] = 1
        index[b] = 1
        out[tuple(index)] *= -1.0
        return out
    if gate.kind == "cx":
        control, target = gate.qubits
        out = state.copy()
        lower = [slice(None)] * state.ndim
        upper = [slice(None)] * state.ndim
        lower[control] = 1
        upper[control] = 1
        lower[target] = 0
        upper[target] = 1
        out[tuple(lower)] = state[tuple(upper)]
        out[tuple(upper)] = state[tuple(lower)]
        return out
    return _apply_1q(state, GATE_MATRICES[gate.kind], gate.qubits[0])


def apply_pauli(state: np.ndarray, p: PauliString) -> np.ndarray:
    """Apply a signed Pauli string to a state tensor."""
    out = state if p.sign > 0 else -state
    for q in p.support():
        out = _apply_1q(out, _PAULI_1Q[p.letter(q)], q)
    return out


def apply_rotation(state: np.ndarray, rot: PauliRotation) -> np.ndarray:
    """exp(-i theta P / 2) acting on the state."""
    half = 0.5 * rot.angle
    rotated = apply_pauli(state, rot.generator)
    return np.cos(half) * state - 1j * np.sin(half) * rotated


def run_statevector(circuit: Circuit) -> np.ndarray:
    """Evolve the circuit's declared input state through all ops."""
    state = input_state(circuit.num_qubits, circuit.input_kind)
    for op in circuit.ops:
        if isinstance(op, CliffordGate):
            state = apply_clifford(state, op)
        else:
            state = apply_rotation(state, op)
    return state


def expectation_of_state(state: np.ndarray, observable: PauliString) -> float:
    """<psi| O |psi> for an already evolved state tensor."""
    value = np.vdot(state, apply_pauli(state, observable))
    if abs(value.imag) >= 1e-10:
        raise ConsistencyError(
            f"Hermitian observable gave a complex value {value}")
    return float(value.real)


def expectation(circuit: Circuit, observable: PauliString) -> float:
    """<psi| O |psi> for the evolved input state; exact up to float error."""
    if observable.num_qubits != circuit.num_qubits:
        raise ValueError("observable size does not match circuit")
    return expectation_of_state(run_statevector(circuit), observable)
