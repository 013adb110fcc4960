"""Internal core of every Heisenberg walk over a circuit.

Single-frame walks that choose branches (the depth-first enumerator in
``engine``, Monte Carlo sampling) step the rotations only, as bit twiddling
on plain integers: ``compile_rotations`` pushes every Clifford through
once, so a walk starts from the observable's image under all the Cliffords
and meets each rotation with its generator pushed through the Cliffords
before it.  Each frame is then the op-by-op frame conjugated by those
Cliffords, so commutation, codes, coefficients and the final frame are
unchanged; the tests check this against an op-by-op reference walk with a
scalar table step of their own.  The one Pauli-sum walk, ``walk_rows``,
loops over ``reversed(circuit.ops)`` and steps the merged sums of items that
share their ops as numpy rows under its caller's rule (the noisy backend's
term cap, the merged breadth-first baseline's floor and cap).  ``pauli``
holds only the tables, the layout of the site code that indexes them
(``_local_bits``) and the phase-exact product.
"""

import functools
import math

import numpy as np

from .circuits import Circuit, clifford_angle_steps
from .errors import ConsistencyError
from .pauli import (CliffordGate, PauliString, _LOCAL_IMAGES, _TABLES,
                    _image_product, _local_bits, _mul_phase)


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


def exact_turn(angle: float) -> tuple[float, float]:
    """(cos, sin) of a rotation angle, exact within ``clifford_angle_steps``'
    tolerance of m quarter turns, where a Pauli-sum walk then maps one term
    to exactly one term."""
    m = clifford_angle_steps(angle)
    return (math.cos(angle), math.sin(angle)) if m is None \
        else _QUARTER_TURNS[m]


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


# ---------------------------------------------------------------------------
# Pauli sums as lockstep rows.
#
# A row is one (item, frame) term: the frame as uint64 words of x and z bits
# (W = ceil(n / 64) columns each, low qubits first), its coefficient, and the
# item's position in its group.
# ---------------------------------------------------------------------------

_WORD_MASK = (1 << 64) - 1


def _words(bits: int, width: int) -> list[int]:
    """An n-qubit bit mask as ``width`` 64-bit words, low qubits first."""
    return [(bits >> (64 * w)) & _WORD_MASK for w in range(width)]


@functools.lru_cache(maxsize=None)
def _frame_table(kind: str, width: int):
    """A ``width``-qubit gate's ``_TABLES`` conjugation table as gathers.

    Returns (flips, signs): ``flips[i]`` holds the x and z bits the gate
    flips on site i, each a 0/1 uint64 array over the site codes,
    and ``signs`` the image's sign as a float array.
    """
    table = _TABLES[kind]
    sites = [_local_bits(code, width) for code in range(len(table))]
    flips = tuple(
        tuple(np.array([((image[axis] ^ site[axis]) >> i) & 1
                        for image, site in zip(table, sites)], dtype=np.uint64)
              for axis in (0, 1))
        for i in range(width))
    return flips, np.array([float(sign) for _, _, sign in table])


def _frame_codes(x, z, places):
    """The site code of every frame row at the given (word, bit) places:
    x_i at bit 2i and z_i at bit 2i + 1 for place i."""
    code = 0
    for i, (w, b) in enumerate(places):
        code = (code | (((x[:, w] >> b) & 1) << (2 * i))
                | (((z[:, w] >> b) & 1) << (2 * i + 1)))
    return code


def _merge_rows(item, x, z, value):
    """Sum the rows of equal (item, frame) from 0.0.  A merged frame meets
    at most two terms, its own cosine term and its partner's sine term, and
    IEEE addition commutes, so the row order changes no bit."""
    keys = np.concatenate([item[:, None].astype(np.uint64), x, z], axis=1)
    _, rows, inverse = np.unique(keys, axis=0, return_index=True,
                                 return_inverse=True)
    return item[rows], x[rows], z[rows], np.bincount(
        inverse.reshape(-1), weights=value, minlength=len(rows))


def label_keys(x, z, num_qubits: int) -> list:
    """uint64 key columns that order frame rows as their ``label()``s, the
    most significant column first: each packs 32 qubits' letter ranks
    x ^ 3z (I < X < Y < Z) as two-bit digits, qubit 0 the most significant,
    ready for ``np.lexsort``."""
    columns = []
    for start in range(0, num_qubits, 32):
        key = np.zeros(len(x), dtype=np.uint64)
        for q in range(start, min(start + 32, num_qubits)):
            w, b = divmod(q, 64)
            key = ((key << 2) | (((x[:, w] ^ z[:, w]) >> b) & 1)
                   | (((z[:, w] >> b) & 1) << 1))
        columns.append(key)
    return columns


def walk_rows(circuit: Circuit, observables, turns, rule,
              damping=None) -> list[float]:
    """Walk the merged Pauli sums of items that share ``circuit``'s ops,
    in lockstep; returns each item's exact sum on the circuit's input.

    Item i starts from ``observables[i]`` and takes ``turns[j, i]``, its
    (cos, sin) at rotation j in circuit order.  ``damping``, if given,
    holds per op None or the factors of the noise channel after it, by
    site code on the op's qubits (a rotation's generator support).  A
    row that anticommutes with a rotation branches into a cosine and a sine
    row, a zero weight adding none, and rows of equal (item, frame) merge.
    After every op ``rule(item, x, z, value)`` returns the rows to keep.

    Each row takes a frame -> coefficient walk's multiplications in order:
    the damping factor, the Clifford sign, and ``0.0 + value * weight`` at a
    rotation, whose weight is 1, cos, or sin times the sine image's sign
    (products of +-1 are exact).  ``math.fsum`` is correctly rounded, so
    the row order changes no sum.
    """
    words = (circuit.num_qubits + 63) // 64
    x = np.zeros((len(observables), words), dtype=np.uint64)
    z = np.zeros_like(x)
    for i, o in enumerate(observables):
        x[i], z[i] = _words(o.x, words), _words(o.z, words)
    value = np.array([float(o.sign) for o in observables])
    item = np.arange(len(observables))
    j = len(turns)
    for op, factors in zip(reversed(circuit.ops),
                           reversed(damping or [None] * len(circuit.ops))):
        is_gate = isinstance(op, CliffordGate)
        if is_gate or factors is not None:
            places = [divmod(q, 64) for q in (
                op.qubits if is_gate else op.generator.support())]
            code = _frame_codes(x, z, places)
        if factors is not None:
            value = value * factors[code]
        if is_gate:
            flips, signs = _frame_table(op.kind, len(places))
            for (w, b), (flip_x, flip_z) in zip(places, flips):
                x[:, w] ^= flip_x[code] << b
                z[:, w] ^= flip_z[code] << b
            value = value * signs[code]
            item, x, z, value = rule(item, x, z, value)
            continue
        j -= 1
        gen = op.generator
        gx = np.array(_words(gen.x, words), dtype=np.uint64)
        gz = np.array(_words(gen.z, words), dtype=np.uint64)
        # the sites where generator and frame anticommute
        sites = (x & gz) ^ (z & gx)
        count = np.bitwise_count(sites).sum(axis=1)
        anti = (count & 1).astype(bool)
        cos_t, sin_t = turns[j, item].T
        weight = np.where(anti, cos_t, 1.0)
        sine = anti & (sin_t != 0.0)
        if sine.any():
            # _mul_phase(gx, gz, x, z): i * gen * frame on the sine rows
            reverse = (x ^ z ^ gx ^ gz ^ (gx & z)) & sites
            k = (count + 2 * np.bitwise_count(reverse).sum(axis=1) + 1) & 3
            if np.any(k[sine] & 1):
                raise ConsistencyError(
                    "sine branch produced an imaginary phase; the generator "
                    "must anticommute with the frame")
            sin_t = sin_t * np.where(k == 0, 1.0, -1.0)
        if not (sine & (cos_t != 0.0)).any():
            x[sine] ^= gx
            z[sine] ^= gz
            value = 0.0 + value * np.where(sine, sin_t, weight)
        else:
            # each row's cosine term, then its sine term
            take = np.stack([~anti | (cos_t != 0.0), sine], axis=1)
            item, x, z, value = _merge_rows(
                np.stack([item, item], axis=1)[take],
                np.stack([x, x ^ gx], axis=1)[take],
                np.stack([z, z ^ gz], axis=1)[take],
                np.stack([value * weight, value * sin_t], axis=1)[take])
        item, x, z, value = rule(item, x, z, value)
    diagonal = ~(x if circuit.input_kind == "all_zero" else z).any(axis=1)
    sums = [[] for _ in observables]
    for i, v in zip(item[diagonal].tolist(), value[diagonal].tolist()):
        sums[i].append(v)
    # fsum also maps -0.0 to 0.0
    return [math.fsum(terms) for terms in sums]
