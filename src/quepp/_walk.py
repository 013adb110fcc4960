"""Internal core of every Heisenberg walk over a circuit.

Steps are flat tuples, so the per-step work is bit twiddling and table
lookups on plain integers (layouts in ``op_step``).  Single-frame walks that
choose branches (the depth-first enumerator in ``engine``, Monte Carlo
sampling) step the rotations only: ``compile_rotations`` pushes every
Clifford through once, so a walk starts from the observable's image under
all the Cliffords and meets each rotation with its generator pushed through
the Cliffords before it.  Each frame is then the op-by-op frame conjugated
by those Cliffords, so commutation, codes, coefficients and the final
frame are unchanged.  Every op-by-op walk loops over
``reversed(circuit.ops)`` and builds each op's step where it uses it, with
``op_step`` (``exact_step`` where a quarter turn must stay one term): the
reference walk in ``backprop`` with ``apply_clifford_step`` and
``sin_branch_bits``, and the Pauli-sum walks (the merged breadth-first
baseline and the noisy backend's reference kernel, whose noiseless case
gives exact Clifford expectations) with a frame -> coefficient map through
``propagate_step``.  ``pauli`` holds only
the tables, the one site code ``_local_code`` that indexes them and the
phase-exact product; the steps that apply them to a frame live here.
"""

import functools
import math

from .circuits import Circuit, clifford_angle_steps
from .errors import ConsistencyError
from .pauli import (CliffordGate, PauliString, _LOCAL_IMAGES, _TABLES,
                    _image_product, _local_code, _mul_phase)

STEP_CLIFFORD = 0
STEP_ROTATION = 1


def op_step(op):
    """The compiled Heisenberg step of one op.

    Step layouts:
      (STEP_CLIFFORD, table, qubits), the table indexed by ``_local_code``
      (STEP_ROTATION, gen_x, gen_z, cos_theta, sin_theta)
    """
    if isinstance(op, CliffordGate):
        return (STEP_CLIFFORD, _TABLES[op.kind], op.qubits)
    gen = op.generator
    return (STEP_ROTATION, gen.x, gen.z, math.cos(op.angle),
            math.sin(op.angle))


@functools.lru_cache(maxsize=8)
def compile_rotations(circuit: Circuit):
    """Push every Clifford through to the end once; returns (tableau, rotations).

    Sweeps the ops forward keeping the inverse tableau T: the images
    D^dag X_q D and D^dag Z_q D under the Cliffords D met so far, as two
    tuples of (x, z, k) for i^k * sigma(x, z).  A gate g sets
    T <- T o (g^dag . g), which changes only the images on g's qubits.  At
    rotation j it records G~_j = T(G_j) = s * sigma(x, z) as
    ``(x, z, s, cos theta_j, sin theta_j)``.  ``rotations`` lists them last
    rotation first, the order of a Heisenberg walk, which starts from
    T(O) (``compile_walk``).  The circuit is frozen, so the result is cached
    per circuit.
    """
    n = circuit.num_qubits
    x_images = [(1 << q, 0, 0) for q in range(n)]
    z_images = [(0, 1 << q, 0) for q in range(n)]
    rotations = []
    for op in circuit.ops:
        if isinstance(op, CliffordGate):
            # T's images on the gate's sites, indexed by local bits
            local = ([x_images[q] for q in op.qubits],
                     [z_images[q] for q in op.qubits])
            for images, gate_images in zip((x_images, z_images),
                                           _LOCAL_IMAGES[op.kind]):
                for q, (lx, lz, lk) in zip(op.qubits, gate_images):
                    ix, iz, k = _image_product(*local, lx, lz)
                    images[q] = (ix, iz, (k + lk) & 3)
        else:
            gen = op.generator
            gx, gz, sign = tableau_image((x_images, z_images), gen.x, gen.z, 1)
            rotations.append((gx, gz, sign, math.cos(op.angle),
                              math.sin(op.angle)))
    rotations.reverse()
    return (tuple(x_images), tuple(z_images)), tuple(rotations)


def compile_walk(circuit: Circuit, observable: PauliString):
    """``compile_rotations`` rotations and the walk's starting frame bits,
    the observable's image (x, z, sign) under every Clifford."""
    tableau, rotations = compile_rotations(circuit)
    return rotations, tableau_image(tableau, observable.x, observable.z,
                                    observable.sign)


def tableau_image(tableau, x: int, z: int, sign: int):
    """Signed frame bits of T(sign * sigma(x, z)) for a ``compile_rotations``
    tableau T."""
    nx, nz, k = _image_product(tableau[0], tableau[1], x, z)
    if k & 1:
        raise ConsistencyError("Clifford image of a Hermitian Pauli has an "
                               "imaginary phase")
    return nx, nz, sign if k == 0 else -sign


# exact (cos, sin) of a rotation by m quarter turns
_QUARTER_TURNS = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))


def exact_step(op):
    """``op_step`` with the exact (cos, sin) at a rotation within
    ``clifford_angle_steps``' tolerance of m quarter turns, where
    ``propagate_step`` then maps one term to exactly one term."""
    m = (None if isinstance(op, CliffordGate)
         else clifford_angle_steps(op.angle))
    if m is None:
        return op_step(op)
    return (STEP_ROTATION, op.generator.x, op.generator.z) + _QUARTER_TURNS[m]


def apply_clifford_step(step, x: int, z: int, sign: int):
    """Conjugate raw frame bits through one compiled Clifford step: look
    the sites' code up, then write site i's image bits to qubits[i]."""
    _, table, qubits = step
    nx, nz, s = table[_local_code(x, z, qubits)]
    for q in qubits:
        x ^= ((x >> q ^ nx) & 1) << q
        z ^= ((z >> q ^ nz) & 1) << q
        nx >>= 1
        nz >>= 1
    return x, z, sign * s


def anticommutes_bits(gx: int, gz: int, x: int, z: int) -> bool:
    """True when the generator (gx, gz) anticommutes with the frame (x, z)."""
    return ((gx & z) ^ (gz & x)).bit_count() & 1 == 1


def sin_branch_bits(gx: int, gz: int, x: int, z: int, sign: int):
    """Raw-bit form of i * gen * frame for an anticommuting generator."""
    nx, nz, k = _mul_phase(gx, gz, x, z)
    k = (k + 1) & 3
    if k & 1:
        raise ConsistencyError(
            "sine branch produced an imaginary phase; the generator must "
            "anticommute with the frame")
    return nx, nz, sign * (1 if k == 0 else -1)


def propagate_step(step, terms):
    """Conjugate a frame -> coefficient map through one compiled step.

    A frame that anticommutes with a rotation's generator keeps weight cos
    and adds its sine image with weight sin; a zero weight adds no term.
    Frames that meet in the result are summed.
    """
    new_terms = {}
    if step[0] != STEP_ROTATION:
        # a Clifford step permutes frames, so no two terms meet
        for (x, z), value in terms.items():
            nx, nz, sign = apply_clifford_step(step, x, z, 1)
            new_terms[(nx, nz)] = value * sign
        return new_terms
    _, gx, gz, cos_t, sin_t = step
    for (x, z), value in terms.items():
        if not anticommutes_bits(gx, gz, x, z):
            new_terms[(x, z)] = new_terms.get((x, z), 0.0) + value
            continue
        if cos_t:
            new_terms[(x, z)] = new_terms.get((x, z), 0.0) + value * cos_t
        if sin_t:
            nx, nz, sign = sin_branch_bits(gx, gz, x, z, 1)
            new_terms[(nx, nz)] = (new_terms.get((nx, nz), 0.0)
                                   + value * sin_t * sign)
    return new_terms


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
