"""Anchors for the dense reference layer.

The statevector module is the oracle for everything else, so its own pieces
are cross-checked against scipy and first-principles matrices.
"""

import math

import numpy as np
import pytest
import scipy.linalg

import quepp.statevector as sv
from quepp.circuits import Circuit, PauliRotation
from quepp.pauli import CliffordGate, PauliString

from helpers import random_circuit, random_pauli
from oracles import circuit_unitary, pauli_matrix

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def test_pauli_matrix_tensor_order():
    # matrix indices are little-endian: qubit 0 (the leftmost label letter)
    # is the least significant bit, hence the last kron factor
    got = pauli_matrix(PauliString.from_label("XZ"))
    assert np.allclose(got, np.kron(Z, X))
    got = pauli_matrix(PauliString.from_label("-IY"))
    assert np.allclose(got, -np.kron(Y, I2))


def test_known_gate_matrices():
    h = circuit_unitary(Circuit(1, (CliffordGate("h", (0,)),)))
    assert np.allclose(h, np.array([[1, 1], [1, -1]]) / math.sqrt(2))
    s = circuit_unitary(Circuit(1, (CliffordGate("s", (0,)),)))
    assert np.allclose(s, np.diag([1, 1j]))
    sdg = circuit_unitary(Circuit(1, (CliffordGate("sdg", (0,)),)))
    assert np.allclose(s @ sdg, I2)
    sx = circuit_unitary(Circuit(1, (CliffordGate("sx", (0,)),)))
    sxdg = circuit_unitary(Circuit(1, (CliffordGate("sxdg", (0,)),)))
    assert np.allclose(sx @ sx, X)
    assert np.allclose(sx @ sxdg, I2)
    cx = circuit_unitary(Circuit(2, (CliffordGate("cx", (0, 1)),)))
    # control is qubits[0]; little-endian indices: |q1 q0>
    want = np.zeros((4, 4), dtype=complex)
    want[0, 0] = want[2, 2] = 1  # control clear
    want[3, 1] = want[1, 3] = 1  # control set: X on qubit 1
    assert np.allclose(cx, want)
    cz = circuit_unitary(Circuit(2, (CliffordGate("cz", (0, 1)),)))
    assert np.allclose(cz, np.diag([1, 1, 1, -1]))


def _tensor_to_vector(tensor):
    # tensor axis q is qubit q; matrices are little-endian, so reverse axes
    n = tensor.ndim
    return tensor.transpose(tuple(reversed(range(n)))).reshape(-1)


def test_rotation_matches_expm():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        gen = random_pauli(n, rng, signed=False)
        theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        rot = PauliRotation(gen, theta)
        got = circuit_unitary(Circuit(n, (rot,)))
        want = scipy.linalg.expm(-0.5j * theta * pauli_matrix(gen))
        assert np.allclose(got, want, atol=1e-12)


def test_input_states():
    zero = sv.input_state(2, "all_zero").reshape(-1)
    assert np.allclose(zero, [1, 0, 0, 0])
    plus = sv.input_state(2, "all_plus").reshape(-1)
    assert np.allclose(plus, np.full(4, 0.5))
    with pytest.raises(ValueError):
        sv.input_state(2, "ghz")


def test_run_statevector_matches_unitary():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        c = random_circuit(n, 12, 3, rng)
        got = _tensor_to_vector(sv.run_statevector(c))
        want = circuit_unitary(c) @ _tensor_to_vector(
            sv.input_state(n, c.input_kind))
        assert np.allclose(got, want, atol=1e-12)


def test_expectation_is_real_and_bounded():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        c = random_circuit(n, 10, 2, rng,
                           input_kind=str(rng.choice(["all_zero", "all_plus"])))
        obs = random_pauli(n, rng)
        value = sv.expectation(c, obs)
        assert isinstance(value, float)
        assert abs(value) <= 1 + 1e-12


def test_apply_pauli_sign():
    state = sv.input_state(1, "all_zero")
    flipped = sv.apply_pauli(state, PauliString.from_label("-Z"))
    assert np.allclose(flipped.reshape(-1), [-1, 0])
