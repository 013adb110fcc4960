"""Symplectic Pauli algebra against dense matrix oracles.

Every conjugation table entry, through the walk's compiled gate step, and
the walk's commutation test and sine-branch product are checked against
explicit matrices, so the whole back-propagation stack can trust the
bit-level layer.
"""

import itertools

import numpy as np
import pytest

import quepp.statevector as sv
from quepp._walk import label_keys, sin_branch_bits
from quepp.circuits import Circuit
from quepp.pauli import GATE_KINDS, CliffordGate, PauliString
from quepp.pauli import _mul_phase

from helpers import conjugate, expectation_on_stabilizer_input
from oracles import anticommutes_bits, circuit_unitary, pauli_matrix

ONE_QUBIT = [k for k in GATE_KINDS if k not in ("cx", "cz")]
TWO_QUBIT = ["cx", "cz"]


def all_paulis(n, signed=True):
    for x in range(1 << n):
        for z in range(1 << n):
            for sign in ((1, -1) if signed else (1,)):
                yield PauliString(n, x, z, sign)


def gate_unitary(kind, qubits, n):
    return circuit_unitary(Circuit(n, (CliffordGate(kind, qubits),)))


@pytest.mark.parametrize("kind", ONE_QUBIT)
def test_single_qubit_conjugation_exhaustive(kind):
    # convention: conjugation is U^dagger P U, the Heisenberg direction
    U = gate_unitary(kind, (0,), 1)
    for p in all_paulis(1):
        got = pauli_matrix(conjugate(p, CliffordGate(kind, (0,))))
        want = U.conj().T @ pauli_matrix(p) @ U
        assert np.allclose(got, want, atol=1e-12), (kind, p.label())


@pytest.mark.parametrize("kind", TWO_QUBIT)
@pytest.mark.parametrize("qubits", [(0, 1), (1, 0)])
def test_two_qubit_conjugation_exhaustive(kind, qubits):
    U = gate_unitary(kind, qubits, 2)
    for p in all_paulis(2):
        got = pauli_matrix(conjugate(p, CliffordGate(kind, qubits)))
        want = U.conj().T @ pauli_matrix(p) @ U
        assert np.allclose(got, want, atol=1e-12), (kind, qubits, p.label())


@pytest.mark.parametrize("qubits", [(0, 2), (2, 0), (1, 2)])
def test_two_qubit_conjugation_embedded(qubits):
    # nonadjacent qubit pairs exercise the bit packing of the lookup code
    for kind in TWO_QUBIT:
        U = gate_unitary(kind, qubits, 3)
        rng = np.random.default_rng(5)
        for _ in range(40):
            x = int(rng.integers(8))
            z = int(rng.integers(8))
            p = PauliString(3, x, z, int(rng.choice([1, -1])))
            got = pauli_matrix(conjugate(p, CliffordGate(kind, qubits)))
            want = U.conj().T @ pauli_matrix(p) @ U
            assert np.allclose(got, want, atol=1e-12), (kind, qubits, p.label())


def test_commutes_matches_matrix_commutator():
    for a in all_paulis(2, signed=False):
        for b in all_paulis(2, signed=False):
            ma, mb = pauli_matrix(a), pauli_matrix(b)
            zero = np.allclose(ma @ mb - mb @ ma, 0)
            assert (not anticommutes_bits(a.x, a.z, b.x, b.z)) == zero


def test_multiply_by_generator_matches_matrix():
    # i * G * P for anticommuting pairs is again a signed Pauli; this is the
    # sin-branch frame update
    for gen in all_paulis(2, signed=False):
        for p in all_paulis(2):
            if not anticommutes_bits(gen.x, gen.z, p.x, p.z):
                continue
            got = pauli_matrix(PauliString(
                2, *sin_branch_bits(gen.x, gen.z, p.x, p.z, p.sign)))
            want = 1j * pauli_matrix(gen) @ pauli_matrix(p)
            assert np.allclose(got, want, atol=1e-12), (gen.label(), p.label())


def test_phase_exact_product_matches_matrix():
    # commuting pairs included: the conjugation tables and the Clifford
    # compile multiply those too
    for a in all_paulis(2, signed=False):
        for b in all_paulis(2, signed=False):
            x, z, k = _mul_phase(a.x, a.z, b.x, b.z)
            got = 1j ** k * pauli_matrix(PauliString(2, x, z))
            want = pauli_matrix(a) @ pauli_matrix(b)
            assert np.allclose(got, want, atol=1e-12), (a.label(), b.label())


def test_label_round_trip():
    for p in all_paulis(3):
        assert PauliString.from_label(p.label()) == p
    assert PauliString.from_label("-XIZ").sign == -1
    assert PauliString.from_label("+YY") == PauliString.from_label("YY")
    # qubit 0 is the leftmost letter
    p = PauliString.from_label("XIZ")
    assert p.letter(0) == "X" and p.letter(2) == "Z"
    assert p.support() == (0, 2)
    assert p.weight() == 2


def test_label_rejects_garbage():
    with pytest.raises(ValueError):
        PauliString.from_label("XQ")
    with pytest.raises(ValueError):
        PauliString.from_label("")


def test_expectation_on_stabilizer_inputs():
    for n in (1, 2, 3):
        zero = sv.input_state(n, "all_zero").reshape(-1)
        plus = sv.input_state(n, "all_plus").reshape(-1)
        for p in all_paulis(n):
            m = pauli_matrix(p)
            want_zero = complex(zero.conj() @ m @ zero)
            want_plus = complex(plus.conj() @ m @ plus)
            assert expectation_on_stabilizer_input(p, "all_zero") == pytest.approx(want_zero.real, abs=1e-12)
            assert expectation_on_stabilizer_input(p, "all_plus") == pytest.approx(want_plus.real, abs=1e-12)


def test_gate_validation():
    with pytest.raises(ValueError):
        CliffordGate("toffoli", (0, 1, 2))
    with pytest.raises(ValueError):
        CliffordGate("cx", (1, 1))
    with pytest.raises(ValueError):
        CliffordGate("h", (0, 1))


def test_pauli_validation():
    with pytest.raises(ValueError):
        PauliString(2, x=4, z=0)  # bit outside register
    with pytest.raises(ValueError):
        PauliString(2, x=0, z=0, sign=2)


def test_sign_flows_through_conjugation():
    gate = CliffordGate("s", (0,))
    plain = conjugate(PauliString.from_label("X"), gate)
    flipped = conjugate(PauliString.from_label("-X"), gate)
    assert flipped == PauliString(1, plain.x, plain.z, -plain.sign)


def test_commutes_with_is_symmetric():
    for a, b in itertools.product(all_paulis(2, signed=False), repeat=2):
        assert (anticommutes_bits(a.x, a.z, b.x, b.z)
                == anticommutes_bits(b.x, b.z, a.x, a.z))


@pytest.mark.parametrize("n", [1, 8, 64, 65])
def test_label_key_orders_frames_as_their_labels(n):
    rng = np.random.default_rng(80 + n)

    def bits():
        return int("".join(map(str, rng.integers(0, 2, n))), 2)

    frames = [(bits(), bits()) for _ in range(200)]
    # neighbours of one frame differ in a single letter, at every qubit
    x, z = frames[0]
    for q in range(n):
        for fx, fz in ((0, 0), (1, 0), (1, 1), (0, 1)):
            keep = ~(1 << q)
            frames.append(((x & keep) | (fx << q), (z & keep) | (fz << q)))
    frames = sorted(set(frames))
    keys = label_keys(*(np.array([[(f[axis] >> q) & 1 for q in range(n)]
                                  for f in frames], dtype=np.uint8)
                        for axis in (0, 1)))
    # one key column per 32 qubits; 65 qubits take two frame words
    assert len(keys) == (n + 31) // 32
    by_key = [frames[i] for i in np.lexsort(keys[::-1])]
    by_label = sorted(frames, key=lambda f: PauliString(n, *f).label())
    assert by_key == by_label
    assert len(set(zip(*(k.tolist() for k in keys)))) == len(frames)
