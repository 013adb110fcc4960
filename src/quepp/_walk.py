"""Internal core of every Heisenberg walk over a circuit.

Every walk steps the rotations only: ``compile_rotations`` pushes every
Clifford through once, so a walk starts from the observable's image under
all the Cliffords and meets each rotation with its generator pushed
through the Cliffords before it.  Each frame is then the op-by-op frame
conjugated by the prefix tableau T_l of the Cliffords up to op l, so
commutation, codes, coefficients and the final frame are unchanged; the
tests check this against an op-by-op reference walk of their own.  The
walks that choose branches (the depth-first enumerator in ``engine``,
Monte Carlo sampling) keep one frame as plain integers and jump between
the rotations it anticommutes with on ``compile_walk``'s masks.  The one
Pauli-sum walk, ``walk_rows``, steps numpy rows under its caller's rule
(the noisy backend's term cap, the merged breadth-first baseline's floor
and cap), and damps them by all the noise locations between two rotations
as one block, reading each location's site code off the compiled rows
through T_l.
"""

import functools
import math

import numpy as np

from .circuits import Circuit, clifford_angle_steps
from .errors import ConsistencyError
from .pauli import (CliffordGate, PauliString, _LOCAL_IMAGES,
                    _image_product, _mul_phase)


@functools.lru_cache(maxsize=8)
def compile_rotations(circuit: Circuit):
    """Push every Clifford through to the end once; returns (rotations,
    tableaux).

    Sweeps the ops forward keeping the inverse tableau T: the images
    D^dag X_q D and D^dag Z_q D under the Cliffords D met so far, as two
    tuples of (x, z, k) for i^k * sigma(x, z).  A gate g sets
    T <- T o (g^dag . g), which changes only the images on g's qubits.  At
    rotation j it records G~_j = T(G_j) = s * sigma(x, z) as
    ``(x, z, s, cos theta_j, sin theta_j)``.  ``rotations`` lists them last
    rotation first, the order of a Heisenberg walk, which starts from
    T(O) (``compile_walk``), with T = ``tableaux[-1]``; ``tableaux[l]`` is T
    after l ops, which maps an op-by-op walk's frame there to the compiled
    frame.  The circuit is frozen, so the result is cached per circuit.
    """
    n = circuit.num_qubits
    x_images = [(1 << q, 0, 0) for q in range(n)]
    z_images = [(0, 1 << q, 0) for q in range(n)]
    rotations, tableaux = [], [(tuple(x_images), tuple(z_images))]
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
            gx, gz, sign = tableau_image(tableaux[-1], gen.x, gen.z, 1)
            rotations.append((gx, gz, sign, math.cos(op.angle),
                              math.sin(op.angle)))
        tableaux.append((tuple(x_images), tuple(z_images)))
    rotations.reverse()
    return tuple(rotations), tuple(tableaux)


def compile_walk(circuit: Circuit, observable: PauliString):
    """(steps, start): ``compile_rotations``' rotations, each with the
    sampler's cosine and keep probabilities |cos| / w and 1 / w (w = |cos|
    + |sin|) and the mask of the later ones that anticommute with it (bit j
    for rotation j), and the observable's image (x, z, sign) under every
    Clifford with its mask.  Anticommutation is linear over GF(2), so a
    sine branch at j updates the frame's mask by XOR-ing in j's."""
    rotations, tableaux = compile_rotations(circuit)
    steps, columns = _compile_masks(rotations, circuit.num_qubits)
    x, z, sign = tableau_image(tableaux[-1], observable.x, observable.z,
                               observable.sign)
    return steps, (x, z, sign, _mask(columns, x, z))


@functools.lru_cache(maxsize=8)
def _compile_masks(rotations, num_qubits: int):
    """``compile_walk``'s steps, and per qubit q the masks of the rotations
    with an X on q and of those with a Z on q."""
    columns = ([0] * num_qubits, [0] * num_qubits)
    for j, rotation in enumerate(rotations):
        for column, bits in zip(columns, rotation):
            while bits:
                column[(bits & -bits).bit_length() - 1] |= 1 << j
                bits &= bits - 1
    return tuple((gx, gz, gs, c, s, abs(c) / (abs(c) + abs(s)),
                  1.0 / (abs(c) + abs(s)),
                  _mask(columns, gx, gz) >> j + 1 << j + 1)
                 for j, (gx, gz, gs, c, s) in enumerate(rotations)), \
        tuple(map(tuple, columns))


def _mask(columns, x: int, z: int) -> int:
    """The mask of the rotations that anticommute with the frame (x, z),
    from the X columns of its Z sites and the Z columns of its X sites."""
    mask = 0
    for column, bits in zip(columns, (z, x)):
        while bits:
            mask ^= column[(bits & -bits).bit_length() - 1]
            bits &= bits - 1
    return mask


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
# A row is one (item, frame) term: the compiled frame as uint64 words of x
# and z bits (W = ceil(n / 64) columns each, low qubits first), its
# coefficient, and the item's position in its group.
# ---------------------------------------------------------------------------

def _packed(images, width: int):
    """Paulis (x, z, ...) as (x, z) arrays of rows of ``width`` words."""
    return tuple(np.frombuffer(b"".join(
        [image[axis].to_bytes(8 * width, "little") for image in images]),
        dtype="<u8").astype(np.uint64).reshape(-1, width) for axis in (0, 1))


def _parities(x, z, images_x, images_z):
    """Each row's anticommutation parity (0 or 1) with each ``_packed``
    Pauli, as a rows-by-Paulis uint8 array."""
    anti = (x[:, None, :] & images_z) ^ (z[:, None, :] & images_x)
    # a sum of popcounts has the parity of the popcount of the words' XOR
    return np.bitwise_count(np.bitwise_xor.reduce(anti, axis=2)) & 1


def _local_labels(tableau, width: int, x, z):
    """``label_keys`` of the op-by-op frames of compiled rows, whose x_q is
    a row's parity with T(Z_q), and z_q its parity with T(X_q)."""
    bits = _parities(x, z, *_packed(tableau[1] + tableau[0], width))
    return label_keys(bits[:, :len(tableau[0])], bits[:, len(tableau[0]):])


def label_keys(x, z) -> list:
    """uint64 key columns, most significant first, that order frames given
    as 0/1 columns of x and z bits per qubit as their ``label()``s: each
    packs 32 letter ranks x ^ 3z (I < X < Y < Z), qubit 0 the highest."""
    rank = (x ^ z | z << 1).astype(np.uint64)
    return [(rank[:, s:s + 32] << np.arange(
        2 * min(32, rank.shape[1] - s) - 2, -1, -2, dtype=np.uint64)
             ).sum(axis=1, dtype=np.uint64) for s in range(0, rank.shape[1], 32)]


def _noise_blocks(circuit: Circuit, edges, tableaux, damping, width: int):
    """``walk_rows``' damping in K + 1 blocks, packed once per walk: block b
    holds the locations from ``edges[b]`` up to ``edges[b + 1]``, which the
    rows meet before rotation b - 1.  Location l reads its site code off a
    row as the parities with T_l(Z_q), then T_l(X_q), per site q.  A block
    is None without a channel, else (images_x, images_z, shifts, starts,
    offsets, table): each image's bit in its code, and where each
    location's images and factors start."""
    blocks = []
    for low, high in zip(edges, edges[1:]):
        images, shifts, starts, tables = [], [], [], []
        for pos in range(high - 1, low - 1, -1):
            op = circuit.ops[pos]
            if damping[pos] is not None:
                starts.append(len(images))
                tables.append(damping[pos])
                x_images, z_images = tableaux[pos + 1]
                for q in (op.qubits if isinstance(op, CliffordGate)
                          else op.generator.support()):
                    images += [z_images[q], x_images[q]]
                shifts.extend(range(len(images) - starts[-1]))
        blocks.append((*_packed(images, width), np.array(shifts, np.uint8),
                       starts, np.cumsum([0] + [len(t) for t in tables[:-1]]),
                       np.concatenate(tables)) if images else None)
    return blocks


def _damp(x, z, value, block):
    """The rows' values after one ``_noise_blocks`` block of damping."""
    if block is None:
        return value
    images_x, images_z, shifts, starts, offsets, table = block
    codes = np.add.reduceat(_parities(x, z, images_x, images_z) << shifts,
                            starts, axis=1, dtype=np.intp)
    # each row's factors multiply in walk order, as one at a time would
    return np.multiply.accumulate(
        np.concatenate([value[:, None], table[codes + offsets]], axis=1),
        axis=1)[:, -1]


def _rotate(item, x, z, value, gx, gz, gsign, cos_t, sin_t):
    """The rows after one rotation on the compiled generator
    gsign * sigma(gx, gz), with each row's (cos, sin)."""
    # the sites where generator and frame anticommute
    sites = (x & gz) ^ (z & gx)
    count = np.bitwise_count(sites).sum(axis=1)
    anti = (count & 1).astype(bool)
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
        sin_t = sin_t * np.where(k == 0, gsign, -gsign)
    if not (sine & (cos_t != 0.0)).any():
        x[sine] ^= gx
        z[sine] ^= gz
        return item, x, z, 0.0 + value * np.where(sine, sin_t, weight)
    # each row's cosine term, then its sine term
    take = np.stack([~anti | (cos_t != 0.0), sine], axis=1)
    item = np.stack([item, item], axis=1)[take]
    x = np.stack([x, x ^ gx], axis=1)[take]
    z = np.stack([z, z ^ gz], axis=1)[take]
    value = np.stack([value * weight, value * sin_t], axis=1)[take]
    # sum the rows of equal (item, frame) from 0.0: a frame meets at most
    # its own cosine term and its partner's sine term, and IEEE addition
    # commutes, so the row order changes no bit
    keys = np.concatenate([item[:, None].astype(np.uint64), x, z], axis=1)
    order = np.lexsort(keys.T)
    keys = keys[order]
    first = np.concatenate([[True], (keys[1:] != keys[:-1]).any(axis=1)])
    rows = order[first]
    return item[rows], x[rows], z[rows], np.bincount(
        np.cumsum(first) - 1, weights=value[order], minlength=len(rows))


def walk_rows(circuit: Circuit, observables, turns, rule,
              damping=None) -> list[float]:
    """Walk the merged Pauli sums of items that share ``circuit``'s ops,
    in lockstep; returns each item's exact sum on the circuit's input.

    Item i starts from ``observables[i]`` pushed through every Clifford and
    takes ``turns[j, i]``, its (cos, sin) at rotation j in circuit order.
    ``damping``, if given, holds per op None or the factors of the noise
    channel after it, by site code on the op's qubits (a rotation's
    generator support).  A row that anticommutes with a rotation branches
    into a cosine and a sine row, a zero weight adding none, and rows of
    equal (item, frame) merge.  No Clifford changes the number of rows or
    any |value|, so ``rule(item, x, z, value, labels)`` returns the rows to
    keep at the start, if there are ops, and after each rotation, where
    ``labels(x, z)`` are the ``label_keys`` of the rows' op-by-op frames.
    Each row takes an op-by-op walk's multiplications in order, but for
    the Clifford signs its compiled frame carries, which are exact and
    change only the signs of zeros; ``math.fsum`` maps -0.0 to 0.0.
    """
    rotations, tableaux = compile_rotations(circuit)
    width = (circuit.num_qubits + 63) // 64
    # the items of a group often share their observable
    image = functools.cache(functools.partial(tableau_image, tableaux[-1]))
    starts = [image(o.x, o.z, o.sign) for o in observables]
    x, z = _packed(starts, width)
    value = np.array([float(start[2]) for start in starts])
    item = np.arange(len(observables))
    # 0, the rotations' positions and the op count
    edges = [0] + [pos for pos, op in enumerate(circuit.ops)
                   if not isinstance(op, CliffordGate)] + [len(circuit.ops)]
    blocks = _noise_blocks(circuit, edges, tableaux,
                           damping or [None] * len(circuit.ops), width)
    # after rotation j, and at the start for j = K
    labels = [functools.partial(_local_labels, tableaux[pos], width)
              for pos in edges[1:]]
    j = len(rotations)
    if circuit.ops:
        item, x, z, value = rule(item, x, z, value, labels[j])
    # the rotations come last first
    for gx, gz, (_, _, gsign, _, _) in zip(*_packed(rotations, width),
                                           rotations):
        value = _damp(x, z, value, blocks[j])
        j -= 1
        cos_t, sin_t = turns[j, item].T
        item, x, z, value = _rotate(item, x, z, value, gx, gz, gsign,
                                    cos_t, sin_t)
        item, x, z, value = rule(item, x, z, value, labels[j])
    value = _damp(x, z, value, blocks[0])
    diagonal = ~(x if circuit.input_kind == "all_zero" else z).any(axis=1)
    item, value = item[diagonal], value[diagonal]
    # fsum also maps -0.0 to 0.0
    return [math.fsum(value[item == i].tolist())
            for i in range(len(observables))]
