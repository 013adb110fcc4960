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

``backpropagate`` is the op-by-op reference walk for one path, and the
walks that step only the rotations are checked against it.  A path's ideal
expectation is ``expectation_on_stabilizer_input`` of its final frame; the
exact mean of a whole Clifford-equivalent circuit is the noiseless case of
the backend's kernel.
"""

from ._walk import (
    STEP_ROTATION,
    anticommutes_bits,
    apply_clifford_step,
    op_step,
    sin_branch_bits,
)
from .circuits import Circuit
from .errors import InconsistentBranchError
from .pauli import PauliString

__all__ = [
    "backpropagate",
    "check_codes",
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

