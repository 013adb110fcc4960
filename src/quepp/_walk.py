"""Internal core of every Heisenberg walk over a circuit.

Every walk steps the rotations only: ``compile_circuit`` pushes every
Clifford through once, so a walk starts from the observable's image under
all the Cliffords and meets each rotation with its generator pushed
through the Cliffords before it.  Each frame is then the op-by-op frame
conjugated by the prefix tableau T_l of the Cliffords up to op l, so
commutation, codes, coefficients and the final frame are unchanged; the
tests check this against an op-by-op reference walk of their own.  The
walks that choose branches (the enumerator in ``engine``, the sampler's walk
generator, drawing as one walk per call) keep one unsigned frame as integers,
jump between the rotations it anticommutes with on ``compile_circuit``'s masks
and name a path by its sine bits; ``path_of`` replays only the paths kept.
The one Pauli-sum walk, ``walk_rows``, steps numpy rows under its caller's rule
(the backend's term cap, the merged breadth-first walk's floor and cap)
only at the rotations some row anticommutes with, and damps them by all
the noise locations between two such rotations as one slice, reading each
location's site code off the compiled rows through T_l.  It packs all of a
walk's noise images in one pass, takes a rotation in a few whole-array
steps (rows sort and merge only when an item takes both terms) and sums
the items after one sort.
"""

import functools
import math

import numpy as np

from .circuits import Circuit, clifford_angle_steps
from .errors import ConsistencyError
from .pauli import (CliffordGate, PauliString, _LOCAL_IMAGES,
                    _image_product, _mul_phase)


@functools.lru_cache(maxsize=8)
def compile_circuit(circuit: Circuit):
    """Push every Clifford through to the end once; returns (steps,
    tableaux, columns).

    Sweeps the ops forward keeping the inverse tableau T: the images
    D^dag X_q D and D^dag Z_q D under the Cliffords D met so far, as two
    tuples of (x, z, k) for i^k * sigma(x, z).  A gate g sets
    T <- T o (g^dag . g), which changes only the images on g's qubits.  At
    rotation j it records G~_j = T(G_j) = s * sigma(x, z) as a step
    ``(x, z, s, cos theta_j, sin theta_j, |cos| / w, 1 / w, flips)``, with
    the sampler's keep probabilities (w = |cos| + |sin|) and the mask of
    the later steps that anticommute with it (bit j for step j).  ``steps``
    lists them last rotation first, the order of a Heisenberg walk, which
    starts from T(O) (``compile_walk``), with T = ``tableaux[-1]``;
    ``tableaux[l]`` is T after l ops, which maps an op-by-op walk's frame
    there to the compiled frame.  ``columns`` holds per qubit q the masks
    of the steps with an X on q and of those with a Z on q.  The circuit is
    frozen, so the result is cached per circuit.
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
    columns = ([0] * n, [0] * n)
    for j, rotation in enumerate(rotations):
        for column, bits in zip(columns, rotation):
            while bits:
                column[(bits & -bits).bit_length() - 1] |= 1 << j
                bits &= bits - 1
    steps = tuple((gx, gz, gs, c, s, abs(c) / (abs(c) + abs(s)),
                   1.0 / (abs(c) + abs(s)),
                   _mask(columns, gx, gz) >> j + 1 << j + 1)
                  for j, (gx, gz, gs, c, s) in enumerate(rotations))
    return steps, tuple(tableaux), tuple(map(tuple, columns))


def compile_walk(circuit: Circuit, observable: PauliString):
    """(steps, start): ``compile_circuit``'s steps and the observable's
    image (x, z, sign) under every Clifford with its mask.  Anticommutation
    is linear over GF(2), so a sine branch at j updates the frame's mask by
    XOR-ing in j's."""
    steps, tableaux, columns = compile_circuit(circuit)
    x, z, sign = tableau_image(tableaux[-1], observable.x, observable.z,
                               observable.sign)
    return steps, (x, z, sign, _mask(columns, x, z))


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
    """Signed frame bits of T(sign * sigma(x, z)) for a ``compile_circuit``
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


_C, _S = b"cs"


def path_of(steps, start, sines: int):
    """Replay the path of a branching walk over ``compile_walk``'s steps
    from ``start`` that takes the sine where ``sines`` has a rotation's
    walk-order bit, else the cosine.  Returns (codes, x, z, sign, coeff,
    order), with a walk's products in its order and c/s/p codes forward
    (rotation j of the walk is codes[~j])."""
    x, z, sign, anti = start
    coeff, order = 1.0, 0
    codes = bytearray(b"p" * len(steps))
    while anti:
        low = anti & -anti
        anti ^= low
        j = low.bit_length() - 1
        gx, gz, gsign, cos_t, sin_t, _, _, flips = steps[j]
        if sines & low:
            x, z, sign = sin_branch_bits(gx, gz, x, z, sign * gsign)
            coeff *= sin_t
            order += 1
            codes[~j] = _S
            anti ^= flips
        else:
            coeff *= cos_t
            codes[~j] = _C
    return codes.decode(), x, z, sign, coeff, order


# ---------------------------------------------------------------------------
# Pauli sums as lockstep rows.
#
# A row is one (item, frame) term: the compiled frame, its coefficient and
# the item's position in its group.  The rows' frames are the columns of
# one uint64 array: W = ceil(n / 64) words of x bits over W words of z bits
# (low qubits first).
# ---------------------------------------------------------------------------

def _packed(images, width: int, axes=(0, 1)):
    """Paulis (x, z, ...) as the columns of ``width`` words per axis in
    ``axes``."""
    return np.frombuffer(b"".join([image[axis].to_bytes(8 * width, "little")
                                   for image in images for axis in axes]),
                         dtype="<u8").reshape(-1, len(axes) * width).T.astype(
                             np.uint64, order="C")


def _parities(frames, images):
    """Each frame's anticommutation parity (0 or 1) with each Pauli of
    ``images``, packed z before x, as a Paulis-by-rows uint8 array."""
    anti = images[:, :, None] & frames[:, None]
    # the parity of the words' popcounts, summed mod 256
    return np.bitwise_count(anti).sum(axis=0, dtype=np.uint8) & 1


def _local_labels(tableau, width: int, frames):
    """``label_keys`` of the op-by-op frames of compiled rows, whose x_q is
    a row's parity with T(Z_q), and z_q its parity with T(X_q)."""
    bits = _parities(frames, _packed(tableau[1] + tableau[0], width, (1, 0)))
    return label_keys(bits[:len(tableau[0])].T, bits[len(tableau[0]):].T)


def label_keys(x, z) -> list:
    """uint64 key columns, most significant first, that order frames given
    as 0/1 columns of x and z bits per qubit as their ``label()``s: each
    packs 32 letter ranks x ^ 3z (I < X < Y < Z), qubit 0 the highest."""
    rank = (x ^ z | z << 1).astype(np.uint64)
    return [(rank[:, s:s + 32] << np.arange(
        2 * min(32, rank.shape[1] - s) - 2, -1, -2, dtype=np.uint64)
             ).sum(axis=1, dtype=np.uint64) for s in range(0, rank.shape[1], 32)]


def _noise_blocks(circuit: Circuit, tableaux, damping, width: int):
    """``walk_rows``' noise locations in walk order, last op first, as
    (images, offsets, table), and per rotation, last first, its position and
    the number of locations before it.  Location l reads bits 2i and 2i + 1
    of its site code off a row as the parities with T_l(Z_q) and T_l(X_q)
    for its i-th site q, from four images (zeros pad one site), packed in
    one pass; its factors start at ``table[offsets[l]]``."""
    images, tables, marks = [], [], []
    for pos in range(len(circuit.ops) - 1, -1, -1):
        op = circuit.ops[pos]
        if damping[pos] is not None:
            x_images, z_images = tableaux[pos + 1]
            sites = (op.qubits if isinstance(op, CliffordGate)
                     else op.generator.support())
            images += [image for q in sites
                       for image in (z_images[q], x_images[q])]
            images += [(0, 0)] * (4 - 2 * len(sites))
            tables.append(damping[pos])
        if not isinstance(op, CliffordGate):
            marks.append((pos, len(tables)))
    offsets = np.cumsum([0] + [len(t) for t in tables])[:-1, None]
    return (_packed(images, width, (1, 0)), offsets,
            np.concatenate(tables) if tables else None), marks


# a noise location's image i gives bit i of its site code
_CODE_SHIFTS = np.arange(4, dtype=np.uint8)[:, None]


def _damp(frames, value, noise, low: int, high: int):
    """The rows' values after ``_noise_blocks``' locations ``low`` up to
    ``high``, one slice of the walk order."""
    if low == high:
        return value
    images, offsets, table = noise
    bits = _parities(frames, images[:, 4 * low:4 * high]).reshape(
        high - low, 4, frames.shape[1])
    factors = table[(bits << _CODE_SHIFTS).sum(axis=1, dtype=np.intp)
                    + offsets[low:high]]
    # each row's factors multiply in walk order, as one at a time would
    factors[0] *= value
    return np.multiply.accumulate(factors, axis=0)[-1]


def _rotate(item, frames, value, generator, gsign, turns, sites, count,
            anti):
    """The rows after one rotation on the compiled generator gsign *
    sigma(gx, gz), ``generator`` = [gx | gz], item i taking ``turns[i]`` as
    its (cos, sin).  ``sites`` holds where each row anticommutes with it,
    ``count`` their number mod 256 and ``anti`` the rows where it is odd."""
    width = len(generator) // 2
    x, z, gx, gz = (frames[:width], frames[width:], generator[:width],
                    generator[width:])
    cos_t, sin_t = turns.take(item[anti], 0).T
    sine = sin_t != 0.0
    if not sine.any():
        value[anti] *= cos_t
        return item, frames, 0.0 + value
    # _mul_phase(gx, gz, x, z): i * gen * frame is i^k sigma(gx ^ x, gz ^ z)
    reverse = (x ^ z ^ (z & gx) ^ (gx ^ gz)) & sites
    k = (count + 2 * np.bitwise_count(reverse).sum(axis=0, dtype=np.uint8)
         + 1)[anti] & 3
    if (k & sine).any():
        raise ConsistencyError(
            "sine branch produced an imaginary phase; the generator "
            "must anticommute with the frame")
    sin_t = sin_t * np.where(k == 0, gsign, -gsign)
    # the anticommuting rows of an item with both terms add their sine
    # terms; a sine term anticommutes too, so it can only meet one of those
    # rows' cosine terms
    cosine = cos_t != 0.0
    both = cosine & sine
    branch = anti[both]
    if branch.size:
        item = np.concatenate([item, item[branch]])
        frames = np.concatenate([frames, frames[:, branch] ^ generator], 1)
        value = np.concatenate([value, value[branch] * sin_t[both]])
    # the rows take their cosine terms, or their sine terms where cos is 0
    frames[:, anti[~cosine]] ^= generator
    value[anti] *= np.where(cosine, cos_t, sin_t)
    if not branch.size:
        return item, frames, 0.0 + value
    order = np.lexsort((*frames, item))
    item, frames = item[order], frames[:, order]
    # sum the rows of equal (item, frame) from 0.0: IEEE addition commutes,
    # so the row order changes no bit
    first = np.concatenate([[True], (item[1:] != item[:-1])
                            | (frames[:, 1:] != frames[:, :-1]).any(axis=0)])
    return item[first], frames[:, first], np.bincount(
        np.cumsum(first) - 1, weights=value[order])


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
    any |value|, so ``rule(item, frames, value, labels)`` returns the rows
    to keep at the start, if there are ops, and after each rotation some
    row anticommutes with, ``labels(frames)`` giving the ``label_keys`` of
    the op-by-op frames there.  Other rotations are skipped whole, their
    damping joining the next stepped one's, so a rule must keep the rows
    it kept, damped or not.  Each row takes an op-by-op walk's products in
    order, but for the Clifford signs its compiled frame carries, which are
    exact and change only the signs of zeros; ``math.fsum`` maps -0.0 to
    0.0.  Rows sort and merge only where an item takes both terms.
    """
    steps, tableaux, _ = compile_circuit(circuit)
    width = (circuit.num_qubits + 63) // 64
    # the items of a group often share their observable
    image = functools.cache(functools.partial(tableau_image, tableaux[-1]))
    starts = [image(o.x, o.z, o.sign) for o in observables]
    frames = _packed(starts, width)
    value = np.array([float(start[2]) for start in starts])
    item = np.arange(len(observables))
    noise, marks = _noise_blocks(circuit, tableaux,
                                 damping or [None] * len(circuit.ops), width)
    if circuit.ops:
        item, frames, value = rule(item, frames, value, functools.partial(
            _local_labels, tableaux[-1], width))
    done = 0
    # the rotations come last first
    for generator, (_, _, gsign, *_), turn, (pos, mark) in zip(
            _packed(steps, width).T[:, :, None], steps, turns[::-1], marks):
        sites = ((frames[:width] & generator[width:])
                 ^ (frames[width:] & generator[:width]))
        count = np.bitwise_count(sites).sum(axis=0, dtype=np.uint8)
        anti = np.flatnonzero(count & 1)
        if not anti.size:
            continue
        value, done = _damp(frames, value, noise, done, mark), mark
        item, frames, value = _rotate(item, frames, value, generator, gsign,
                                      turn, sites, count, anti)
        item, frames, value = rule(item, frames, value, functools.partial(
            _local_labels, tableaux[pos], width))
    value = _damp(frames, value, noise, done, len(noise[1]))
    # the rows diagonal on the input: no x bits on all_zero, no z on all_plus
    diagonal = ~(frames[:width] if circuit.input_kind == "all_zero"
                 else frames[width:]).any(axis=0)
    item, value = item[diagonal], value[diagonal]
    # fsum is correctly rounded, so the row order changes no bit, and it
    # maps -0.0 to 0.0
    ends = np.cumsum(np.bincount(item, minlength=len(observables))).tolist()
    value = value[np.argsort(item, kind="stable")].tolist()
    return [math.fsum(value[start:end])
            for start, end in zip([0] + ends, ends)]
