"""Exact Heisenberg back-propagation of an observable through a circuit.

Walking the ops in reverse, Clifford gates map the observable frame to a
single signed Pauli.  Each rotation R_P(theta) either commutes with the
current frame (the frame passes through untouched) or branches into a
cosine part (frame unchanged) and a sine part (frame replaced by i*P*frame,
itself the image under the quarter-turn Clifford R_P(pi/2)).  A code string
with one character per rotation in forward order, ``c`` (cosine), ``s``
(sine) or ``p`` (passthrough), selects a single Pauli path; the
trigonometric weight of that path is handled separately by the enumeration
engine.
"""

from ._walk import (
    STEP_ROTATION,
    anticommutes_bits,
    apply_clifford_step,
    exact_step,
    op_step,
    propagate_step,
    sin_branch_bits,
    stabilizer_input_sum,
)
from .circuits import Circuit, clifford_angle_steps
from .errors import InconsistentBranchError
from .pauli import PauliString, expectation_on_stabilizer_input

__all__ = [
    "backpropagate",
    "check_codes",
    "ideal_path_expectation",
    "ideal_clifford_expectation",
]


def check_codes(codes: str, num_rotations: int) -> None:
    """Reject codes longer than the circuit's rotations or not all c/s/p."""
    if len(codes) > num_rotations:
        raise ValueError(
            f"{len(codes)} branch codes for {num_rotations} rotations")
    if not set(codes) <= set("csp"):
        raise ValueError(f"branch codes must be c, s or p, got {codes!r}")


def backpropagate(circuit: Circuit, observable: PauliString,
                  codes: str) -> PauliString:
    """Final frame U^dag(O) along the path selected by ``codes``.

    Raises :class:`InconsistentBranchError` if the codes stop short of the
    last rotation, or if a code contradicts the commutation structure
    actually met during the walk (``c``/``s`` at a commuting rotation, ``p``
    at an anticommuting one).
    """
    if observable.num_qubits != circuit.num_qubits:
        raise ValueError("observable size does not match circuit")
    num_rotations = circuit.num_rotations
    check_codes(codes, num_rotations)
    if len(codes) < num_rotations:
        raise InconsistentBranchError(len(codes) + 1, "no branch code")
    x, z, sign = observable.x, observable.z, observable.sign
    j = num_rotations  # the walk meets the rotations last first
    for op in reversed(circuit.ops):
        step = op_step(op)
        if step[0] != STEP_ROTATION:
            x, z, sign = apply_clifford_step(step, x, z, sign)
            continue
        _, gx, gz, _, _ = step
        code = codes[j - 1]
        if anticommutes_bits(gx, gz, x, z):
            if code == "s":
                x, z, sign = sin_branch_bits(gx, gz, x, z, sign)
            elif code != "c":
                raise InconsistentBranchError(
                    j, f"anticommuting rotation needs c or s, got {code}")
        elif code != "p":
            raise InconsistentBranchError(
                j, f"commuting rotation must be p, got {code}")
        j -= 1
    return PauliString(circuit.num_qubits, x, z, sign)


def ideal_path_expectation(circuit: Circuit, observable: PauliString,
                           codes: str) -> int:
    """Tr[rho C^dag(O)] for the selected path: always -1, 0, or +1."""
    frame = backpropagate(circuit, observable, codes)
    return expectation_on_stabilizer_input(frame, circuit.input_kind)


def ideal_clifford_expectation(circuit: Circuit,
                               observable: PauliString) -> int:
    """Exact expectation for a circuit whose rotations all sit at k*pi/2.

    This is the noiseless case of the backend's Pauli propagation: with
    every rotation a quarter-turn multiple the sum stays one term, so the
    answer is a single stabilizer expectation.  Angles are checked at the
    tolerance ``exact_step`` snaps at, ``clifford_angle_steps``' default.
    """
    if observable.num_qubits != circuit.num_qubits:
        raise ValueError("observable size does not match circuit")
    for j, _, op in circuit.rotations():
        if clifford_angle_steps(op.angle) is None:
            raise ValueError(
                f"rotation {j} at angle {op.angle} is not a Clifford multiple")
    terms = {(observable.x, observable.z): float(observable.sign)}
    for op in reversed(circuit.ops):
        terms = propagate_step(exact_step(op), terms)
    return int(stabilizer_input_sum(terms, circuit.input_kind))
