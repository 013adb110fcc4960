"""Map-kernel oracles for the lockstep Pauli-sum walk.

Every Pauli sum in the package walks as numpy rows (``_walk.walk_rows``).
These oracles walk one item at a time with a frame -> coefficient dict and
the scalar steps of ``_walk``, so the tests can check both of the row
walk's rules bit for bit: the backend's (``_exact_noisy_mean``, which
raises at its term cap) and the merged breadth-first baseline's
(``merged_bfs_oracle``, which drops terms below a floor and keeps the
largest ones at a cap).
"""

import math

from quepp._walk import (STEP_ROTATION, anticommutes_bits,
                         apply_clifford_step, exact_turn, op_step,
                         sin_branch_bits)
from quepp.backend import (NoiseModel, _channels, _op_channel,
                           _readout_flip_probability)
from quepp.circuits import Circuit
from quepp.errors import CapabilityError
from quepp.pauli import CliffordGate, PauliString, _local_code


def exact_step(op):
    """``op_step`` with ``exact_turn``'s weights at a rotation."""
    if isinstance(op, CliffordGate):
        return op_step(op)
    return op_step(op)[:3] + exact_turn(op.angle)


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


def _exact_noisy_mean(circuit: Circuit, observable: PauliString,
                      noise: NoiseModel, max_terms: int, index: int) -> float:
    """Exact noisy expectation of one item by merged Pauli propagation.

    A gate's noise channel acts after it in circuit time, so in the
    Heisenberg walk it damps each term by 1 - 2 a_l(frame) before the gate
    conjugates it.  Quarter-turn rotations take their single branch with
    exact weights, so a Clifford-equivalent circuit stays one term.  Raises
    CapabilityError as soon as the map holds more than ``max_terms`` frames.
    """
    channels = _channels(noise)
    terms = {(observable.x, observable.z): float(observable.sign)}
    for op in reversed(circuit.ops):
        qubits, (_, _, factors) = _op_channel(op, channels)
        if factors is not None:
            for key, value in terms.items():
                terms[key] = value * factors[_local_code(*key, qubits)]
        terms = propagate_step(exact_step(op), terms)
        if len(terms) > max_terms:
            raise CapabilityError(
                f"item {index}: Pauli propagation needs more than {max_terms} "
                "terms; reduce the circuit or raise max_terms")
    readout = 1.0 - 2.0 * _readout_flip_probability(noise, observable)
    return stabilizer_input_sum(terms, circuit.input_kind) * readout


def merged_bfs_oracle(circuit: Circuit, observable: PauliString,
                      max_terms: int, min_coefficient: float = 0.0, *,
                      label=PauliString.label) -> tuple[float, int]:
    """The merged breadth-first sum and its peak term count.

    After every op, terms below ``min_coefficient`` are dropped and the map
    is cut to its ``max_terms`` largest |coefficient|s, ties in the order
    of ``label`` of the frames.  Rotations take ``op_step``'s weights.
    """
    n = circuit.num_qubits
    terms = {(observable.x, observable.z): float(observable.sign)}
    peak = len(terms)
    for op in reversed(circuit.ops):
        terms = propagate_step(op_step(op), terms)
        if min_coefficient > 0.0:
            terms = {k: v for k, v in terms.items()
                     if abs(v) >= min_coefficient}
        if len(terms) > max_terms:
            ranked = sorted(terms.items(), key=lambda item: (
                -abs(item[1]), label(PauliString(n, *item[0]))))
            terms = dict(ranked[:max_terms])
        peak = max(peak, len(terms))
    return stabilizer_input_sum(terms, circuit.input_kind), peak
