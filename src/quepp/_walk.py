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
and name a path by its sine bits; ``path_of`` replays only the paths kept.  A
step holds a rotation's frame bits, sign, cos, sin and mask only: the sampler
derives its coin law from the cos and sin itself.
The one Pauli-sum walk, ``walk_rows``, steps numpy rows only at the rotations
some row anticommutes with, keeps the rows its caller's rule (the backend's
term cap, the merged breadth-first walk's floor and cap) masks and counts each
item's peak, and damps them by all the noise locations between two such
rotations as one slice, reading each location's site code off the compiled
rows through T_l.  It weighs each rotation by ``exact_turn`` itself, and it
owns how a ``NoiseModel`` acts: it builds each op width's damping factors from
the model's rates and scales each noisy sum by the readout factor.  It packs a
circuit's noise images on its first noisy walk, takes a rotation in a few
whole-array steps (an item's rows that take both terms pair by frame times the
generator, and only they sort) and sums each item's rows, which keep no
order until one sort by item at the end.  Given a noise model, each row also
carries its term undamped, the item's noiseless value.
"""

import functools
import math

import numpy as np

from .circuits import Circuit, clifford_angle_steps
from .errors import CapabilityError, ConsistencyError
from .pauli import (CliffordGate, PauliString, _LOCAL_IMAGES,
                    _image_product, _mul_phase)


@functools.lru_cache(maxsize=8)
def compile_circuit(circuit: Circuit):
    """Push every Clifford through to the end once; returns (steps,
    tableaux, columns, noise).

    Sweeps the ops forward keeping the inverse tableau T: the images
    D^dag X_q D and D^dag Z_q D under the Cliffords D met so far, as two
    tuples of (x, z, k) for i^k * sigma(x, z).  A gate g sets
    T <- T o (g^dag . g), which changes only the images on g's qubits.  At
    rotation j it records G~_j = T(G_j) = s * sigma(x, z) as a step
    ``(x, z, s, cos theta_j, sin theta_j, flips)``, with the mask of the
    later steps that anticommute with it (bit j for step j).  ``steps``
    lists them last rotation first, the order of a Heisenberg walk, which
    starts from T(O) (``compile_walk``), with T = ``tableaux[-1]``;
    ``tableaux[l]`` is T after l ops, which maps an op-by-op walk's frame
    there to the compiled frame.  ``columns`` holds per qubit q the masks
    of the steps with an X on q and of those with a Z on q; ``noise`` holds
    ``_noise_images`` from the first noisy ``walk_rows`` on.  The circuit is
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
    steps = tuple((gx, gz, gs, c, s, _mask(columns, gx, gz) >> j + 1 << j + 1)
                  for j, (gx, gz, gs, c, s) in enumerate(rotations))
    return steps, tuple(tableaux), tuple(map(tuple, columns)), []


def compile_walk(circuit: Circuit, observable: PauliString):
    """(steps, start): ``compile_circuit``'s steps and the observable's
    image (x, z, sign) under every Clifford with its mask.  Anticommutation
    is linear over GF(2), so a sine branch at j updates the frame's mask by
    XOR-ing in j's."""
    steps, tableaux, columns, _ = compile_circuit(circuit)
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
    tolerance of m quarter turns, m read off the exact ``quarter_turns``,
    where a Pauli-sum walk then maps one term to exactly one term."""
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
        gx, gz, gsign, cos_t, sin_t, flips = steps[j]
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
# A row is one (item, frame) term: the compiled frame, its values and the
# item's position in its group.  The rows' frames are the columns of one
# uint64 array: W = ceil(n / 64) words of x bits over W words of z bits
# (low qubits first); their values are the columns of a float array:
# ``value[0]`` holds the noisy coefficient and ``value[1]``, given a noise
# model, the same term undamped.
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


def _noise_images(circuit: Circuit, tableaux, width: int):
    """(images, offsets) of ``walk_rows``' noise locations, one per op,
    last op first, or CapabilityError for an op wider than two qubits.
    Location l reads bits 2i and 2i + 1 of its site code off a row as the
    parities with T_l(Z_q) and T_l(X_q) for its i-th site q, from four
    images (zeros pad one site); its factors start at ``offsets[l]``."""
    images, offsets = [], []
    for pos, op in reversed(list(enumerate(circuit.ops))):
        sites = op.qubits if isinstance(op, CliffordGate) \
            else op.generator.support()
        if len(sites) > 2:
            raise CapabilityError(f"no noise channel defined for a "
                                  f"{len(sites)}-qubit operation")
        x_images, z_images = tableaux[pos + 1]
        images += [image for q in sites
                   for image in (z_images[q], x_images[q])]
        images += [(0, 0)] * (4 - 2 * len(sites))
        offsets.append(4 * (len(sites) == 2))
    return (_packed(images, width, (1, 0)),
            np.array(offsets, dtype=np.intp)[:, None])


def _noise_blocks(circuit: Circuit, compiled, noise, width: int):
    """``walk_rows``' noise locations as (images, offsets, table), or None
    without a rate set.  An op's factors are 1 - 2 a for each site code, a
    the total rate of the ``noise`` errors of its width that anticommute
    with the code, added in the model's label order; a width without errors
    reads 1.0, which changes no bit.  ``table`` holds the factors of one
    site, then of two; ``compile_circuit``'s slot keeps the images."""
    if noise is None or not any(prob for _, prob in noise.single_qubit_rates
                                + noise.two_qubit_rates):
        return None
    table = []
    for span, rates in ((1, noise.single_qubit_rates),
                        (2, noise.two_qubit_rates)):
        # an error's x_i anticommutes with code bit 2i + 1, its z_i with
        # bit 2i: letters I, Z, X, Y give site bits 0 to 3
        errors = [(sum("IZXY".index(letter) << 2 * i
                       for i, letter in enumerate(label)), prob)
                  for label, prob in rates if prob != 0.0]
        for code in range(4 ** span):
            rate = 0.0
            for mask, prob in errors:
                if (code & mask).bit_count() & 1:
                    rate += prob
            table.append(1.0 - 2.0 * rate)
    slot = compiled[3]
    if not slot:
        slot.append(_noise_images(circuit, compiled[1], width))
    return (*slot[0], np.array(table))


# a noise location's image i gives bit i of its site code
_CODE_SHIFTS = np.arange(4, dtype=np.uint8)[:, None]


def _damp(frames, value, blocks, low: int, high: int):
    """Damp the rows' noisy values in place by ``_noise_blocks``' locations
    ``low`` up to ``high``, one slice of the walk order, by blocks of rows."""
    if blocks is None or low == high:
        return
    images, offsets, table = blocks
    size = max(1, 4096 * 64 // (high - low))
    for at in range(0, value.shape[1], size):
        rows = slice(at, at + size)
        bits = _parities(frames[:, rows], images[:, 4 * low:4 * high]
                         ).reshape(high - low, 4, -1)
        factors = table.take((bits << _CODE_SHIFTS).sum(
            axis=1, dtype=np.intp) + offsets[low:high])
        # numpy multiplies each row's factors in walk order, one at a time
        factors[0] *= value[0, rows]
        value[0, rows] = np.multiply.reduce(factors, axis=0)


def _rotate(item, frames, value, generator, gsign, turns, sites, count,
            anti):
    """The rows after one rotation on the compiled generator gsign *
    sigma(gx, gz), ``generator`` = [gx | gz], item i taking ``turns[i]`` as
    its (cos, sin) and every line of ``value`` alike.  ``sites`` holds
    where each row anticommutes with it, ``count`` their number mod 256 and
    ``anti`` the rows where it is odd."""
    width, rows = len(generator) // 2, frames.take(anti, 1)
    x, z, gx, gz = (rows[:width], rows[width:], generator[:width],
                    generator[width:])
    # _mul_phase(gx, gz, x, z): i * gen * frame is i^k sigma(gx ^ x, gz ^ z)
    # with k = count + 2 |reverse| + 1, even as count is odd: a real phase
    reverse = (x ^ z ^ (z & gx) ^ (gx ^ gz)) & sites.take(anti, 1)
    k = (count.take(anti) + 2 * np.bitwise_count(reverse).sum(
        axis=0, dtype=np.uint8) + 1) & 3
    cos_t, sin_t = turns.take(item.take(anti), 0).T
    sin_t = sin_t * np.where(k == 0, gsign, -gsign)
    cosine = cos_t != 0.0
    # the rows take their cosine terms, or their sine terms where cos is 0
    turned = anti.compress(~cosine)
    frames[:, turned] = frames.take(turned, 1) ^ generator
    terms = value.take(anti, 1)
    value[:, anti] = terms * np.where(cosine, cos_t, sin_t)
    value += 0.0
    both = cosine & (sin_t != 0.0)
    branch = anti.compress(both)
    if not branch.size:
        return item, frames, value
    # a sine term f ^ g anticommutes, so it meets only its item's branch row
    # f ^ g, if any; the smaller of the two in a word where g is set names both
    terms, rows = (terms * sin_t).compress(both, 1), rows.compress(both, 1)
    partners, word = rows ^ generator, generator.argmax()
    names = np.where(rows[word] < partners[word], rows, partners)
    order = np.lexsort((*names, item.take(branch)))
    names, key = names.take(order, 1), item.take(branch.take(order))
    pair = ((key[1:] == key[:-1])
            & (names[:, 1:] == names[:, :-1]).all(axis=0)).nonzero()[0]
    first, second = order.take(pair), order.take(pair + 1)
    # each adds its partner's sine term to 0.0 + its cosine term, the sum
    # of a merge from 0.0 in any row order, as IEEE addition commutes
    value[:, branch.take(first)] += terms.take(second, 1)
    value[:, branch.take(second)] += terms.take(first, 1)
    lone = np.ones(len(branch), dtype=bool)
    lone[first] = lone[second] = False
    # the unpaired sine terms join from 0.0, at the end of the rows
    return (np.concatenate([item, item.take(branch.compress(lone))]),
            np.concatenate([frames, partners.compress(lone, 1)], 1),
            np.concatenate([value, 0.0 + terms.compress(lone, 1)], 1))


def walk_rows(circuits, observables, rule, noise=None):
    """Walk the merged Pauli sums of items that share ``circuits[0]``'s
    ops, in lockstep; returns (sums, peaks): each item's exact sum on the
    circuit's input and its most rows after any rule call, from 1.

    Item i starts from ``observables[i]`` pushed through every Clifford and
    takes at each rotation ``exact_turn`` of its own circuit's angle there,
    evaluated once per distinct angle.  ``noise``, a ``NoiseModel`` if
    given, damps the terms after each op by the rates of the op's width
    (``_noise_blocks``) and scales each sum by its readout factor; each row
    then also carries its term undamped, in ``value[1]``, so the walk
    returns the n exact noisy means, then the n noiseless sums.  A row that
    anticommutes with a rotation branches into a cosine and a sine row, a
    zero weight adding none, and rows of equal (item, frame) merge.  No
    Clifford changes the number of rows or any |value|, so the walk calls
    ``rule(item, coeff, labels)`` at the start, if there are ops, and after
    each rotation some row anticommutes with, on the rows' items, their
    noisy values ``coeff`` and ``labels(rows)``, the ``label_keys`` of the
    op-by-op frames of the rows indexed; it keeps the rows of the mask the
    rule returns, or all for None.  Other rotations are skipped whole,
    their damping joining the next stepped one's, so a rule must keep the
    rows it kept, damped or not.  The rows keep no order: a rotation
    appends its new rows at the end.  Each row takes an op-by-op walk's
    products in order, but for the Clifford signs its compiled frame
    carries, which are exact and change only the signs of zeros;
    ``math.fsum`` maps -0.0 to 0.0.  At a rotation, only an item's rows
    that take both terms are sorted, to pair those that merge.  No items
    give no sums.
    """
    if not circuits:
        return [], []
    circuit = circuits[0]
    compiled = compile_circuit(circuit)
    steps, tableaux = compiled[:2]
    # (cos, sin) per rotation, last first, and item, once per distinct angle
    positions = [pos for _, pos, _ in reversed(circuit.rotations())]
    angles = np.fromiter([c.ops[pos].angle for pos in positions
                          for c in circuits], float).reshape(-1, len(circuits))
    distinct = np.sort(angles, axis=None)  # np.unique imports numpy.ma
    distinct = distinct[np.diff(distinct, prepend=np.nan) != 0.0]
    turns = np.array([exact_turn(angle) for angle in distinct.tolist()]
                     ).reshape(-1, 2)[np.searchsorted(distinct, angles)]
    width = (circuit.num_qubits + 63) // 64
    # the items of a group often share their observable
    image = functools.cache(functools.partial(tableau_image, tableaux[-1]))
    starts = [image(o.x, o.z, o.sign) for o in observables]
    item, frames = np.arange(len(starts)), _packed(starts, width)
    value = np.array([[float(start[2]) for start in starts]]
                     * (1 if noise is None else 2))
    blocks = _noise_blocks(circuit, compiled, noise, width)
    peaks = np.ones(len(starts), np.int64)

    def ruled(item, frames, value, tableau):
        keep = rule(item, value[0], lambda rows: _local_labels(
            tableau, width, frames.take(rows, 1)))
        if keep is not None:
            item, frames, value = (array.compress(keep, -1)
                                   for array in (item, frames, value))
        np.maximum(peaks, np.bincount(item, minlength=len(peaks)), out=peaks)
        return item, frames, value

    if circuit.ops:
        item, frames, value = ruled(item, frames, value, tableaux[-1])
    done = 0
    for generator, (_, _, gsign, *_), turn, pos in zip(
            _packed(steps, width).T[:, :, None], steps, turns, positions):
        sites = ((frames[:width] & generator[width:])
                 ^ (frames[width:] & generator[:width]))
        count = np.bitwise_count(sites).sum(axis=0, dtype=np.uint8)
        anti = (count & 1).nonzero()[0]
        if not anti.size:
            continue
        _damp(frames, value, blocks, done, len(circuit.ops) - pos)
        done = len(circuit.ops) - pos
        item, frames, value = _rotate(item, frames, value, generator, gsign,
                                      turn, sites, count, anti)
        item, frames, value = ruled(item, frames, value, tableaux[pos])
    _damp(frames, value, blocks, done, len(circuit.ops))
    # the rows diagonal on the input: no x bits on all_zero, no z on all_plus
    diagonal = ~(frames[:width] if circuit.input_kind == "all_zero"
                 else frames[width:]).any(axis=0)
    item, value = item.compress(diagonal), value.compress(diagonal, 1)
    # sorted by item, an item's rows are one slice; fsum is correctly
    # rounded, so the row order changes no bit, and it maps -0.0 to 0.0
    order = item.argsort()
    ends = item.take(order).searchsorted(np.arange(len(peaks) + 1)).tolist()
    sums = [math.fsum(column[start:end])
            for column in value.take(order, 1).tolist()
            for start, end in zip(ends, ends[1:])]
    if noise is not None:
        flip = 1.0 - 2.0 * noise.readout_flip
        for i, observable in enumerate(observables):
            # an odd number of flips among the support's readouts flips the
            # sign; 1 - 2 * that probability is not always flip ** weight
            odd = (1.0 - flip ** observable.weight()) / 2.0
            sums[i] *= 1.0 - 2.0 * odd
    return sums, peaks.tolist()
