"""Shared builders for randomized tests, and the one-line conveniences
over the package that only the tests call."""

import contextlib
import math
import signal

import numpy as np
import pytest

import quepp.backend
from quepp import pipeline
from quepp.backend import (Backend, ExecutionPlan, NoiseModel, NoisyEstimate,
                           TrajectorySimulator)
from quepp.circuits import Circuit, PauliRotation
from quepp.errors import DegenerateEtaError
from quepp.pauli import CliffordGate, PauliString, _input_expectation

from oracles import apply_clifford_step, op_step

ONE_QUBIT_KINDS = ("h", "s", "sdg", "x", "y", "z", "sx", "sxdg")
TWO_QUBIT_KINDS = ("cx", "cz")
AXES = ("X", "Y", "Z")


@contextlib.contextmanager
def deadline(seconds, what="the block"):
    """Fail the test, instead of hanging it, if the block runs too long."""
    def expire(signum, frame):
        pytest.fail(f"{what} still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def conjugate(p: PauliString, gate: CliffordGate) -> PauliString:
    """Heisenberg image g^dag p g through the walk's compiled gate step."""
    x, z, sign = apply_clifford_step(op_step(gate), p.x, p.z, p.sign)
    return PauliString(p.num_qubits, x, z, sign)


def random_pauli(n: int, rng: np.random.Generator, *,
                 allow_identity: bool = False,
                 signed: bool = True) -> PauliString:
    while True:
        x = int(rng.integers(0, 1 << n))
        z = int(rng.integers(0, 1 << n))
        if allow_identity or x or z:
            break
    sign = int(rng.choice([1, -1])) if signed else 1
    return PauliString(n, x, z, sign)


def wide_pauli(n: int, rng: np.random.Generator) -> PauliString:
    """A random signed non-identity Pauli on any number of qubits;
    ``random_pauli`` draws one integer below 2**n, which numpy caps at 63
    bits."""
    while True:
        x = sum(int(b) << q for q, b in enumerate(rng.integers(0, 2, n)))
        z = sum(int(b) << q for q, b in enumerate(rng.integers(0, 2, n)))
        if x or z:
            return PauliString(n, x, z, int(rng.choice([1, -1])))


def single_site_observable(n: int, rng: np.random.Generator) -> PauliString:
    q = int(rng.integers(n))
    axis = str(rng.choice(AXES))
    letters = ["I"] * n
    letters[q] = axis
    return PauliString.from_label("".join(letters))


def random_rotation(n: int, rng: np.random.Generator, *,
                    angle: float = None, max_weight: int = 1) -> PauliRotation:
    weight = int(rng.integers(1, max_weight + 1))
    qubits = rng.choice(n, size=min(weight, n), replace=False)
    x = z = 0
    for q in qubits:
        axis = str(rng.choice(AXES))
        if axis in ("X", "Y"):
            x |= 1 << int(q)
        if axis in ("Y", "Z"):
            z |= 1 << int(q)
    if angle is None:
        angle = float(rng.uniform(-math.pi, math.pi))
        if abs(angle) < 1e-3:
            angle = 0.7
    return PauliRotation(PauliString(n, x, z), angle)


def random_circuit(n: int, depth: int, num_rotations: int,
                   rng: np.random.Generator, *,
                   input_kind: str = "all_zero",
                   rotation_angle: float = None,
                   rotation_weight: int = 1,
                   two_qubit_prob: float = 0.4) -> Circuit:
    """Random Clifford ops with rotations scattered at random depths."""
    ops = []
    slots = set(int(s) for s in
                rng.choice(depth, size=min(num_rotations, depth),
                           replace=False))
    for d in range(depth):
        if d in slots:
            ops.append(random_rotation(n, rng, angle=rotation_angle,
                                       max_weight=rotation_weight))
        elif n >= 2 and rng.random() < two_qubit_prob:
            a, b = rng.choice(n, size=2, replace=False)
            ops.append(CliffordGate(str(rng.choice(TWO_QUBIT_KINDS)),
                                    (int(a), int(b))))
        else:
            ops.append(CliffordGate(str(rng.choice(ONE_QUBIT_KINDS)),
                                    (int(rng.integers(n)),)))
    return Circuit(n, tuple(ops), input_kind=input_kind)


def submit_one(backend: Backend, circuit: Circuit, observable: PauliString,
               plan: ExecutionPlan) -> NoisyEstimate:
    """One item submitted alone."""
    return backend.submit_batch([(circuit, observable)], plan)[0]


def at_angles(target: Circuit, angles) -> Circuit:
    """``target`` with ``angles``, one per rotation in order, as a path
    circuit of it (``Circuit._with_angles``), which the backend walks in
    its target's lockstep group."""
    angles = iter(angles)
    return target._with_angles(tuple(
        op if isinstance(op, CliffordGate)
        else PauliRotation(op.generator, next(angles)) for op in target.ops))


def walked_groups(items, noise=NoiseModel.depolarizing()):
    """The batch indices that each ``_frame_means`` call of one
    infinite-shot ``submit_batch`` of ``items`` walks in lockstep, and the
    batch's estimates."""
    groups = []
    frame_means = quepp.backend._frame_means

    def spy(indices, *args):
        groups.append(list(indices))
        return frame_means(indices, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quepp.backend, "_frame_means", spy)
        estimates = TrajectorySimulator(noise, infinite_shots=True
                                        ).submit_batch(items, ExecutionPlan())
    return groups, estimates


def eta_estimate(records, method: str) -> float:
    """``method``'s eta of the records: the one eta rule on their one row
    (``pipeline._eta_rows``), raising DegenerateEtaError where the weighted
    average is degenerate instead of taking ``choose_eta``'s median."""
    value, fell_back = pipeline._eta_row(method, *pipeline._columns(records))
    if fell_back:
        raise DegenerateEtaError(f"the {method} eta is degenerate")
    return value


def is_noiseless(noise: NoiseModel) -> bool:
    return (not any(p for _, p in noise.two_qubit_rates)
            and not any(p for _, p in noise.single_qubit_rates)
            and noise.readout_flip == 0.0)


def expectation_on_stabilizer_input(p: PauliString, input_kind: str) -> int:
    """Exact expectation of p on |0..0> or |+..+>, always -1, 0 or +1."""
    return _input_expectation(p.x, p.z, p.sign, input_kind)
