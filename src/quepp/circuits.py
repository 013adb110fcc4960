"""Circuit representation: Clifford gates interleaved with Pauli rotations.

A circuit is an ordered op list over a fixed qubit count plus a declared
stabilizer input state (``all_zero`` or ``all_plus``).  Rotations are
``exp(-i theta P / 2)`` for a +1-signed, non-identity Pauli generator P and
are numbered 1..K in circuit order; those indices are what branch records
refer to.

The text format is line based::

    qubits 4
    input all_plus        # optional, defaults to all_zero
    h 0
    cz 0 1
    rx 2 0.6283185307179586
    rot XIZY -0.1

with ``#`` starting a comment and angles in decimal radians.  ``rx q t`` is
sugar for a single-qubit X rotation.
"""

import functools
import math
from dataclasses import dataclass
from typing import Union

from .errors import ParseError
from .pauli import CliffordGate, PauliString, GATE_KINDS, INPUT_KINDS

__all__ = [
    "PauliRotation",
    "GateOp",
    "Circuit",
    "parse_circuit",
    "serialize_circuit",
    "normalize_rotations",
    "inverse_circuit",
    "clifford_angle_steps",
    "is_clifford_equivalent",
]

# An angle this close to m*pi/2 counts as m quarter turns: normalization
# drops such a residual, and every walk takes the turn as exact.
QUARTER_TURN_TOLERANCE = 1e-9

_HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class PauliRotation:
    """exp(-i angle/2 * generator); generator is non-identity with sign +1."""

    generator: PauliString
    angle: float

    def __post_init__(self):
        if self.generator.is_identity():
            raise ValueError("rotation generator must be non-identity")
        if self.generator.sign != 1:
            raise ValueError("rotation generator must carry sign +1")
        if not math.isfinite(self.angle):
            raise ValueError(f"rotation angle must be finite, got {self.angle}")


GateOp = Union[CliffordGate, PauliRotation]


@dataclass(frozen=True)
class Circuit:
    """Immutable gate list over ``num_qubits`` qubits with a declared input;
    one op object may sit at several positions (``parse_circuit``)."""

    num_qubits: int
    ops: tuple[GateOp, ...]
    input_kind: str = "all_zero"

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be positive")
        if self.input_kind not in INPUT_KINDS:
            raise ValueError(f"unknown input kind {self.input_kind!r}")
        object.__setattr__(self, "ops", tuple(self.ops))
        # each distinct op object once, in the order of first positions
        def first(op) -> int:
            return [id(other) for other in self.ops].index(id(op))

        for op in {id(op): op for op in self.ops}.values():
            if isinstance(op, CliffordGate):
                if max(op.qubits) >= self.num_qubits:
                    raise ValueError(
                        f"op {first(op)}: qubit out of range in {op}")
            elif isinstance(op, PauliRotation):
                if op.generator.num_qubits != self.num_qubits:
                    raise ValueError(
                        f"op {first(op)}: rotation generator on "
                        f"{op.generator.num_qubits} qubits in a "
                        f"{self.num_qubits}-qubit circuit")
            else:
                raise TypeError(f"op {first(op)}: not a gate op: {op!r}")

    @functools.cached_property
    def _rotation_slots(self):
        """(op position, (R(0), R(pi/2)) on its generator) per rotation: the
        ops of every path circuit, built once per circuit."""
        return tuple((pos, (PauliRotation(op.generator, 0.0),
                            PauliRotation(op.generator, _HALF_PI)))
                     for _, pos, op in self.rotations())

    @functools.cached_property
    def _target(self):
        """The circuit the backend walks this one with: a path circuit's
        (``_with_angles``) is the circuit it was built from, a plain
        circuit's is itself."""
        return self

    def _with_angles(self, ops: tuple) -> "Circuit":
        """This circuit with ``ops`` in place of its own, skipping the
        per-op checks: ``ops`` must differ from its own in rotation angles
        only.  The result names this circuit's target as its own, so the
        backend walks the two in one lockstep group, and a pickled or
        copied result carries its target along."""
        circuit = object.__new__(Circuit)
        circuit.__dict__.update(num_qubits=self.num_qubits, ops=ops,
                                input_kind=self.input_kind,
                                _target=self._target)
        return circuit

    @property
    def num_rotations(self) -> int:
        return sum(1 for op in self.ops if isinstance(op, PauliRotation))

    def rotations(self) -> tuple[tuple[int, int, PauliRotation], ...]:
        """All rotations as (rotation_index from 1, op position, rotation)."""
        out = []
        j = 0
        for pos, op in enumerate(self.ops):
            if isinstance(op, PauliRotation):
                j += 1
                out.append((j, pos, op))
        return tuple(out)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def parse_circuit(text: str) -> Circuit:
    """Parse the line format; raises :class:`ParseError` with a line number.
    The op types check each op: any ``ValueError`` becomes a ``ParseError``
    on its line.  A gate line repeated verbatim yields the op object it
    first built."""
    num_qubits = None
    input_kind = None
    ops: list[GateOp] = []
    made: dict[str, GateOp] = {}  # only lines that built an op

    for line_no, raw in enumerate(text.splitlines(), start=1):
        if raw in made:
            ops.append(made[raw])
            continue
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        head = fields[0]
        try:
            if num_qubits is None:
                if head != "qubits":
                    raise ValueError(
                        f"expected 'qubits <n>' header, got {head!r}")
                if len(fields) != 2:
                    raise ValueError(
                        "qubits header takes exactly one argument")
                num_qubits = int(fields[1])
                if num_qubits < 1:
                    raise ValueError("qubit count must be positive")
                continue
            if head in GATE_KINDS:
                op = CliffordGate(head, tuple(
                    [_parse_qubit(token, num_qubits) for token in fields[1:]]))
            elif head == "rx":
                if len(fields) != 3:
                    raise ValueError("rx takes a qubit and an angle")
                x = 1 << _parse_qubit(fields[1], num_qubits)
                op = PauliRotation(PauliString(num_qubits, x),
                                   float(fields[2]))
            elif head == "rot":
                if len(fields) != 3:
                    raise ValueError("rot takes a Pauli string and an angle")
                if fields[1][0] in "+-":
                    raise ValueError("rotation generator must be unsigned")
                gen = PauliString.from_label(fields[1])
                if gen.num_qubits != num_qubits:
                    raise ValueError(
                        f"generator has {gen.num_qubits} letters, circuit "
                        f"has {num_qubits} qubits")
                op = PauliRotation(gen, float(fields[2]))
            elif head == "input":
                if ops or input_kind:
                    raise ValueError("input line must come before gates")
                if len(fields) != 2 or fields[1] not in INPUT_KINDS:
                    raise ValueError(
                        f"input expects one of {'/'.join(INPUT_KINDS)}")
                input_kind = fields[1]
                continue
            elif head == "qubits":
                raise ValueError("duplicate qubits header")
            else:
                raise ValueError(f"unknown op {head!r}")
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from None
        ops.append(op)
        made[raw] = op

    if num_qubits is None:
        raise ParseError("missing 'qubits <n>' header", max(1, text.count("\n") + 1))
    return Circuit(num_qubits, tuple(ops), input_kind or "all_zero")


def _parse_qubit(token: str, num_qubits: int) -> int:
    q = int(token)
    if not 0 <= q < num_qubits:
        raise ValueError(f"qubit {q} out of range [0, {num_qubits})")
    return q


def serialize_circuit(circuit: Circuit) -> str:
    """Render to the text format; ``parse_circuit`` inverts this exactly."""
    lines = [f"qubits {circuit.num_qubits}"]
    if circuit.input_kind != "all_zero":
        lines.append(f"input {circuit.input_kind}")
    for op in circuit.ops:
        if isinstance(op, CliffordGate):
            lines.append(" ".join([op.kind, *map(str, op.qubits)]))
        else:
            gen = op.generator
            if gen.weight() == 1 and gen.x and not gen.z:
                lines.append(f"rx {gen.support()[0]} {op.angle!r}")
            else:
                lines.append(f"rot {gen.label()} {op.angle!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Rotation normalization
# ---------------------------------------------------------------------------


def clifford_angle_steps(angle: float):
    """Return m with angle == m*pi/2 within ``QUARTER_TURN_TOLERANCE`` (m in
    0..3), else None."""
    m = round(angle / _HALF_PI)
    if abs(angle - m * _HALF_PI) <= QUARTER_TURN_TOLERANCE:
        return m % 4
    return None


def is_clifford_equivalent(circuit: Circuit) -> bool:
    """True when every rotation sits at a multiple of pi/2."""
    return all(
        clifford_angle_steps(op.angle) is not None
        for op in circuit.ops
        if isinstance(op, PauliRotation)
    )


def in_residual_range(angle: float) -> bool:
    """The one normalized range: tolerance < |angle| <= pi/4 + tolerance."""
    return QUARTER_TURN_TOLERANCE < abs(angle) \
        <= math.pi / 4 + QUARTER_TURN_TOLERANCE


def normalize_rotations(circuit: Circuit) -> Circuit:
    """Fold every rotation into ``in_residual_range`` by quarter turns.

    An R_P(theta) out of range, any finite theta, becomes Clifford quarter
    turns about P and a residual in range, none within the tolerance of
    zero, which every walk takes as exact.  A rotation in range keeps its
    op, and a circuit with nothing to change is returned itself: equal
    circuits normalize alike, and a rerun costs one pass.
    """
    ops: list[GateOp] = []
    for op in circuit.ops:
        if isinstance(op, CliffordGate) or in_residual_range(op.angle):
            ops.append(op)
            continue
        m = round(op.angle / _HALF_PI)
        residual = op.angle - m * _HALF_PI
        if abs(residual) > QUARTER_TURN_TOLERANCE \
                and not in_residual_range(residual):
            # far from zero m * pi/2 rounds; the exact remainder does not
            residual = math.remainder(op.angle, _HALF_PI)
            m = round((op.angle - residual) / _HALF_PI)
        ops.extend(_quarter_turn_ops(op.generator, m % 4))
        if abs(residual) > QUARTER_TURN_TOLERANCE:
            ops.append(PauliRotation(op.generator, residual))
    if ops != list(circuit.ops):  # the same objects compare by identity
        circuit = Circuit(circuit.num_qubits, tuple(ops), circuit.input_kind)
    return circuit


_X_QUARTER = {1: "sx", 2: "x", 3: "sxdg"}
_Z_QUARTER = {1: "s", 2: "z", 3: "sdg"}


def _quarter_turn_ops(generator: PauliString, m: int) -> list[CliffordGate]:
    """Clifford gates realizing R_P(m * pi/2) up to global phase."""
    if m == 0:
        return []
    support = generator.support()
    if len(support) == 1:
        q = support[0]
        letter = generator.letter(q)
        if letter == "X":
            return [CliffordGate(_X_QUARTER[m], (q,))]
        if letter == "Z":
            return [CliffordGate(_Z_QUARTER[m], (q,))]
    # General case: rotate every support qubit into the Z basis, fan parities
    # into a pivot with CX, apply the quarter turn there, then undo.
    pivot = support[-1]
    basis: list[CliffordGate] = []
    basis_dag: list[CliffordGate] = []
    for q in support:
        letter = generator.letter(q)
        if letter == "X":
            basis.append(CliffordGate("h", (q,)))
            basis_dag.append(CliffordGate("h", (q,)))
        elif letter == "Y":
            # B = S H maps Z to Y; time order below is B^dag ... B
            basis.append(CliffordGate("h", (q,)))
            basis.append(CliffordGate("s", (q,)))
            basis_dag.append(CliffordGate("sdg", (q,)))
            basis_dag.append(CliffordGate("h", (q,)))
    ladder = [CliffordGate("cx", (q, pivot)) for q in support[:-1]]
    turn = CliffordGate(_Z_QUARTER[m], (pivot,))
    return basis_dag + ladder + [turn] + ladder + basis


def inverse_circuit(circuit: Circuit) -> Circuit:
    """Exact inverse: reversed ops with each op inverted."""
    inverse_kind = {"s": "sdg", "sdg": "s", "sx": "sxdg", "sxdg": "sx"}
    ops: list[GateOp] = []
    for op in reversed(circuit.ops):
        if isinstance(op, CliffordGate):
            ops.append(CliffordGate(inverse_kind.get(op.kind, op.kind), op.qubits))
        else:
            ops.append(PauliRotation(op.generator, -op.angle))
    return Circuit(circuit.num_qubits, tuple(ops), circuit.input_kind)
