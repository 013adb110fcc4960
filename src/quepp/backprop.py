"""Exact Heisenberg back-propagation of an observable through a circuit.

Walking the ops in reverse, Clifford gates map the observable frame to a
single signed Pauli.  Each rotation R_P(theta) either commutes with the
current frame (the frame passes through untouched) or branches into a
cosine part (frame unchanged) and a sine part (frame replaced by i*P*frame,
itself the image under the quarter-turn Clifford R_P(pi/2)).  A
:class:`BranchAssignment` pins one decision per rotation, selecting a single
Pauli path; the trigonometric weight of that path is handled separately by
the enumeration engine.
"""

from dataclasses import dataclass, field
from typing import Mapping

from ._walk import (
    STEP_ROTATION,
    anticommutes_bits,
    apply_clifford_step,
    compile_exact,
    compile_reversed,
    propagate_step,
    sin_branch_bits,
    stabilizer_input_sum,
)
from .circuits import Circuit, clifford_angle_steps
from .errors import InconsistentBranchError
from .pauli import PauliString, expectation_on_stabilizer_input

__all__ = [
    "COS",
    "SIN",
    "PASSTHROUGH",
    "BranchAssignment",
    "backpropagate",
    "ideal_path_expectation",
    "ideal_clifford_expectation",
]

COS = "cos"
SIN = "sin"
PASSTHROUGH = "passthrough"

_CODE = {COS: "c", SIN: "s", PASSTHROUGH: "p"}
_DECISION = {code: decision for decision, code in _CODE.items()}


@dataclass(frozen=True)
class BranchAssignment:
    """One decision per rotation index: cos, sin, or passthrough."""

    items: tuple[tuple[int, str], ...] = field(default=())

    def __post_init__(self):
        seen = set()
        for index, decision in self.items:
            if index < 1:
                raise ValueError(f"rotation indices start at 1, got {index}")
            if decision not in _CODE:
                raise ValueError(f"unknown decision {decision!r}")
            if index in seen:
                raise ValueError(f"duplicate decision for rotation {index}")
            seen.add(index)
        object.__setattr__(self, "items", tuple(sorted(self.items)))

    @classmethod
    def from_mapping(cls, decisions: Mapping[int, str]) -> "BranchAssignment":
        return cls(tuple(decisions.items()))

    @classmethod
    def from_codes(cls, codes: str) -> "BranchAssignment":
        """Inverse of :meth:`codes`: one c/s/p character per rotation."""
        return cls(tuple((j, _DECISION[code])
                         for j, code in enumerate(codes, 1)))

    def decisions(self) -> dict[int, str]:
        return dict(self.items)

    def decision_for(self, index: int):
        for j, decision in self.items:
            if j == index:
                return decision
        return None

    def sin_indices(self) -> tuple[int, ...]:
        return tuple(j for j, d in self.items if d == SIN)

    def cos_indices(self) -> tuple[int, ...]:
        return tuple(j for j, d in self.items if d == COS)

    def order(self) -> int:
        return sum(1 for _, d in self.items if d == SIN)

    def codes(self, num_rotations: int) -> str:
        """Canonical one-char-per-rotation encoding, used for path identity."""
        lookup = dict(self.items)
        out = []
        for j in range(1, num_rotations + 1):
            decision = lookup.get(j)
            if decision is None:
                raise ValueError(f"no decision recorded for rotation {j}")
            out.append(_CODE[decision])
        return "".join(out)


def backpropagate(circuit: Circuit, observable: PauliString,
                  branches: BranchAssignment) -> PauliString:
    """Final frame U^dag(O) along the path selected by ``branches``.

    Raises :class:`InconsistentBranchError` if a decision contradicts the
    commutation structure actually encountered during the walk (cos/sin at a
    commuting rotation, passthrough or a missing entry at an anticommuting
    one).
    """
    if observable.num_qubits != circuit.num_qubits:
        raise ValueError("observable size does not match circuit")
    steps, _ = compile_reversed(circuit)
    decisions = dict(branches.items)
    x, z, sign = observable.x, observable.z, observable.sign
    for step in steps:
        if step[0] == STEP_ROTATION:
            _, j, gx, gz, _, _ = step
            decision = decisions.get(j)
            if anticommutes_bits(gx, gz, x, z):
                if decision == SIN:
                    x, z, sign = sin_branch_bits(gx, gz, x, z, sign)
                elif decision != COS:
                    raise InconsistentBranchError(
                        j, f"anticommuting rotation needs cos or sin, got {decision}")
            else:
                if decision != PASSTHROUGH:
                    raise InconsistentBranchError(
                        j, f"commuting rotation must be passthrough, got {decision}")
        else:
            x, z, sign = apply_clifford_step(step, x, z, sign)
    return PauliString(circuit.num_qubits, x, z, sign)


def ideal_path_expectation(circuit: Circuit, observable: PauliString,
                           branches: BranchAssignment) -> int:
    """Tr[rho C^dag(O)] for the selected path: always -1, 0, or +1."""
    frame = backpropagate(circuit, observable, branches)
    return expectation_on_stabilizer_input(frame, circuit.input_kind)


def ideal_clifford_expectation(circuit: Circuit, observable: PauliString,
                               tol: float = 1e-9) -> int:
    """Exact expectation for a circuit whose rotations all sit at k*pi/2.

    This is the noiseless case of the backend's Pauli propagation: with
    every rotation a quarter-turn multiple the sum stays one term, so the
    answer is a single stabilizer expectation.
    """
    if observable.num_qubits != circuit.num_qubits:
        raise ValueError("observable size does not match circuit")
    for j, _, op in circuit.rotations():
        if clifford_angle_steps(op.angle, tol) is None:
            raise ValueError(
                f"rotation {j} at angle {op.angle} is not a Clifford multiple")
    terms = {(observable.x, observable.z): float(observable.sign)}
    for step in compile_exact(circuit, tol):
        terms = propagate_step(step, terms)
    return int(stabilizer_input_sum(terms, circuit.input_kind))
