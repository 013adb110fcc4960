"""Internal helpers for Heisenberg walks over compiled circuits.

Back-propagation engines (exact branch evaluation, DFS enumeration, Monte
Carlo sampling, the noisy propagation backend) all walk the same reversed
op stream.  Compiling the circuit once into flat tuples keeps the per-step
work down to bit twiddling and table lookups on plain integers.
"""

import math

from .circuits import Circuit
from .errors import ConsistencyError
from .pauli import CliffordGate, _TABLE1, _TABLE2, _mul_phase

STEP_CLIFFORD_1 = 0
STEP_CLIFFORD_2 = 1
STEP_ROTATION = 2


def compile_reversed(circuit: Circuit):
    """Compile to steps in reverse circuit order; returns (steps, K).

    Step layouts:
      (STEP_CLIFFORD_1, table, q)
      (STEP_CLIFFORD_2, table, qa, qb)
      (STEP_ROTATION, j, gen_x, gen_z, cos_theta, sin_theta)
    with j the 1-based rotation index in forward circuit order.
    """
    steps = []
    j = 0
    for op in circuit.ops:
        if isinstance(op, CliffordGate):
            if op.is_two_qubit():
                steps.append((STEP_CLIFFORD_2, _TABLE2[op.kind], op.qubits[0], op.qubits[1]))
            else:
                steps.append((STEP_CLIFFORD_1, _TABLE1[op.kind], op.qubits[0]))
        else:
            j += 1
            gen = op.generator
            steps.append(
                (STEP_ROTATION, j, gen.x, gen.z,
                 math.cos(op.angle), math.sin(op.angle)))
    steps.reverse()
    return steps, j


def apply_clifford_step(step, x: int, z: int, sign: int):
    """Conjugate raw frame bits through one compiled Clifford step."""
    if step[0] == STEP_CLIFFORD_1:
        _, table, q = step
        nx, nz, s = table[(((x >> q) & 1) << 1) | ((z >> q) & 1)]
        return (x & ~(1 << q)) | (nx << q), (z & ~(1 << q)) | (nz << q), sign * s
    _, table, a, b = step
    code = ((((x >> a) & 1) << 1) | ((z >> a) & 1)
            | (((x >> b) & 1) << 3) | (((z >> b) & 1) << 2))
    nx, nz, s = table[code]
    keep = ~((1 << a) | (1 << b))
    x = (x & keep) | ((nx & 1) << a) | (((nx >> 1) & 1) << b)
    z = (z & keep) | ((nz & 1) << a) | (((nz >> 1) & 1) << b)
    return x, z, sign * s


def anticommutes_bits(gx: int, gz: int, x: int, z: int) -> bool:
    """True when the generator (gx, gz) anticommutes with the frame (x, z)."""
    return ((gx & z) ^ (gz & x)).bit_count() & 1 == 1


def sin_branch_bits(gx: int, gz: int, x: int, z: int, sign: int):
    """Raw-bit form of i * gen * frame for an anticommuting generator."""
    nx, nz, k = _mul_phase(gx, gz, x, z, gx | gz)
    k = (k + 1) & 3
    if k & 1:
        raise ConsistencyError(
            "sine branch produced an imaginary phase; the generator must "
            "anticommute with the frame")
    return nx, nz, sign * (1 if k == 0 else -1)


def stabilizer_input_sum(terms, input_kind: str) -> float:
    """Exact sum of frame -> coefficient terms on |0..0> or |+..+>.

    An unsigned frame has expectation 1 on the input when it is diagonal in
    the input's basis and 0 otherwise.
    """
    if input_kind == "all_zero":
        return math.fsum(v for (x, _), v in terms.items() if x == 0)
    if input_kind == "all_plus":
        return math.fsum(v for (_, z), v in terms.items() if z == 0)
    raise ValueError(f"unknown input kind {input_kind!r}")
