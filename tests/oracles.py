"""Reference implementations the tests check the package against.

None of these runs in a command; each is slow, small or scalar on purpose,
so the fast paths of the package can be compared with it:

* the per-gate conjugation tables (``_TABLES``, derived from the gate
  images in ``pauli``), the scalar table step (``op_step``,
  ``apply_clifford_step``) and the op-by-op reference walk
  ``backpropagate``, which the rotation-only walks of ``_walk`` must
  reproduce frame for frame;
* the single-frame walks of the sampler and the enumerator with one
  commutation test (``anticommutes_bits``) per rotation
  (``walk_once_oracle``, ``walk_paths_oracle``), which the package's
  walks, jumping between anticommuting rotations on compiled masks, must
  match draw for draw and path for path, and ``paths_oracle``, the
  enumerator's walk as a stream of every surviving ``PauliPath``;
* the map-kernel oracles of the lockstep Pauli-sum walk
  (``_walk.walk_rows``): they walk one item at a time, op by op, with a
  frame -> coefficient dict and ``exact_step``'s weights, damping at every
  noise location and applying the rule after every op, so the tests can
  check the row walk's compiled rotations, noise blocks and both of its
  rules bit for bit, the backend's (``_exact_noisy_mean``, which raises at
  its term cap, builds each width's factors from the noise model's rates
  by ``PauliString`` anticommutation (``channel_factors``), computes the
  readout factor and picks each op's channel by its width itself) and the
  merged breadth-first baseline's (``merged_bfs_oracle``, which drops terms
  below a floor and keeps the largest ones at a cap, ties in the label
  order of the op-by-op frames);
* ``full_ranking_budgets``, the budget sweep on the row walk with a
  cap rule that labels and ranks every row and returns the mask of each
  item's first ``cap`` above the floor, which the package's rule,
  labelling only the rows tied at a cap, must match bit for bit;
* the shot oracle ``sampled_estimates``: one numpy generator per batch,
  seeded by ``SeedSequence(seed)``, and one scalar
  Binomial(``total_shots``, p) draw per item in item order, where the
  backend makes one vectorized draw.  The simulator's mean does not depend
  on the twirl instance, so each item's one draw has exactly the law of
  the sum of ``num_twirls`` draws of Binomial(``shots_per_twirl``, p);
* the dense builders ``circuit_unitary`` and ``pauli_matrix``, and the
  density-matrix oracle ``noisy_density_expectation``, which builds every
  gate's Pauli channel from the noise model's rates itself;
* ``empirical_distribution_check``, the chi-square test of the law of the
  sampler's production walks;
* ``eta_balance_oracle``, the balance estimator's scan with an inner
  loop over each run of equal values, and ``eta_weighted_average_oracle``,
  the weighted average of one sample by ``math.fsum``, which the
  pipeline's row estimators must match bit for bit on every row;
* ``bem_combine``, the generic combine step the boosted estimator
  specializes.
"""

import hashlib
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from quepp import statevector as sv
from quepp._walk import (compile_circuit, compile_walk, exact_turn,
                         sin_branch_bits, tableau_image, walk_rows)
from quepp.backend import ExecutionPlan, NoiseModel, NoisyEstimate
from quepp.circuits import Circuit, normalize_rotations
from quepp.engine import PauliPath, TruncationPolicy
from quepp.errors import (CapabilityError, ConsistencyError,
                          EnumerationLimitError, QueppError)
from quepp.pauli import (GATE_KINDS, CliffordGate, PauliString,
                         _LOCAL_IMAGES, _image_product)
from quepp.sampler import (D_POSTSELECTED, D_TILDE, _DISTRIBUTIONS,
                           _uniforms, _walks)


class InconsistentBranchError(QueppError):
    """A branch decision contradicts the commutation structure of the walk."""

    def __init__(self, rotation_index: int, message: str = ""):
        detail = message or "branch decision contradicts commutation"
        super().__init__(f"rotation {rotation_index}: {detail}")
        self.rotation_index = rotation_index


# ---------------------------------------------------------------------------
# The scalar table step and the op-by-op reference walk.
# ---------------------------------------------------------------------------

STEP_CLIFFORD = 0
STEP_ROTATION = 1


def _local_bits(code: int, width: int) -> tuple[int, int]:
    """The (x, z) site bits of a site code: two bits (x low, z high) per
    site, x_i at bit 2i and z_i at bit 2i + 1."""
    fx = fz = 0
    for i in range(width):
        fx |= ((code >> (2 * i)) & 1) << i
        fz |= ((code >> (2 * i + 1)) & 1) << i
    return fx, fz


def _build_table(kind: str) -> tuple:
    """Derive the full local conjugation table for one gate kind.

    Entry at site code c of sigma(x, z) is (x', z', sign) such that
    g^dag sigma(x, z) g = sign * sigma(x', z') in local bits.
    """
    images = _LOCAL_IMAGES[kind]
    width = len(images[0])
    table = []
    for code in range(4 ** width):
        ax, az, k = _image_product(*images, *_local_bits(code, width))
        if k & 1:
            raise ConsistencyError(f"non-Hermitian conjugation image for {kind}")
        table.append((ax, az, 1 if k == 0 else -1))
    return tuple(table)


# kind -> local conjugation table, indexed by site code
_TABLES = {kind: _build_table(kind) for kind in GATE_KINDS}


def anticommutes_bits(gx: int, gz: int, x: int, z: int) -> bool:
    """True when the generator (gx, gz) anticommutes with the frame (x, z)."""
    return ((gx & z) ^ (gz & x)).bit_count() & 1 == 1


def _local_code(x: int, z: int, qubits: tuple[int, ...]) -> int:
    """Frame bits on the given qubits, two bits (x low, z high) per qubit:
    x_i at bit 2i and z_i at bit 2i + 1 for site i = qubits[i]."""
    code = 0
    for i, q in enumerate(qubits):
        code |= (((x >> q) & 1) | (((z >> q) & 1) << 1)) << (2 * i)
    return code


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


def backpropagate(circuit: Circuit, observable: PauliString,
                  codes: str) -> PauliString:
    """Final frame U^dag(O) along the path selected by ``codes``, one c/s/p
    character per rotation in forward order.

    Raises ValueError for codes longer than the circuit's rotations or not
    all c/s/p, and :class:`InconsistentBranchError` if the codes stop short
    of the last rotation, or if a code contradicts the commutation structure
    actually met during the walk (``c``/``s`` at a commuting rotation, ``p``
    at an anticommuting one).
    """
    if observable.num_qubits != circuit.num_qubits:
        raise ValueError("observable size does not match circuit")
    num_rotations = circuit.num_rotations
    if len(codes) > num_rotations:
        raise ValueError(
            f"{len(codes)} branch codes for {num_rotations} rotations")
    if not set(codes) <= set("csp"):
        raise ValueError(f"branch codes must be c, s or p, got {codes!r}")
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


# ---------------------------------------------------------------------------
# The single-frame walks, one commutation test per rotation.
# ---------------------------------------------------------------------------


def compiled_start(circuit: Circuit, observable: PauliString):
    """``compile_circuit``'s rotations, each (x, z, sign, cos, sin) without
    the step's masks, and the observable's image (x, z, sign) under every
    Clifford: where the oracle walks below start."""
    steps, tableaux, *_ = compile_circuit(circuit)
    return tuple(step[:5] for step in steps), tableau_image(
        tableaux[-1], observable.x, observable.z, observable.sign)


def walk_once_oracle(rotations, x, z, sign, draw, postselect):
    """The sampler's walk, testing every rotation in turn: a branch coin
    at each anticommuting one, a post-selection coin at each commuting one
    if ``postselect``.  Returns (codes, x, z, sign, coeff, order), or None
    for an aborted walk."""
    coeff = 1.0
    order = 0
    codes = []
    for gx, gz, gsign, cos_t, sin_t in rotations:
        if anticommutes_bits(gx, gz, x, z):
            weight = abs(cos_t) + abs(sin_t)
            if draw() < abs(cos_t) / weight:
                coeff *= cos_t
                codes.append("c")
            else:
                x, z, sign = sin_branch_bits(gx, gz, x, z, sign * gsign)
                coeff *= sin_t
                order += 1
                codes.append("s")
        else:
            if postselect and draw() >= 1.0 / (abs(cos_t) + abs(sin_t)):
                return None
            codes.append("p")
    return "".join(reversed(codes)), x, z, sign, coeff, order


def walk_paths_oracle(circuit: Circuit, observable: PauliString,
                      policy: TruncationPolicy):
    """The enumerator's depth-first walk, testing every rotation in turn:
    yields each surviving path as (codes, x, z, sign, coeff, order), codes
    in forward order."""
    rotations, (x, z, sign) = compiled_start(circuit, observable)
    max_order = policy.max_order
    epsilon = policy.min_coefficient
    # entries resume just after a sine branch; codes in walk order
    stack = [(0, x, z, sign, 1.0, 0, [])]
    while stack:
        pos, x, z, sign, coeff, order, codes = stack.pop()
        while pos < len(rotations):
            gx, gz, gsign, cos_t, sin_t = rotations[pos]
            pos += 1
            if not anticommutes_bits(gx, gz, x, z):
                codes.append("p")
                continue
            sin_coeff = coeff * sin_t
            if ((max_order is None or order < max_order)
                    and abs(sin_coeff) >= epsilon):
                nx, nz, nsign = sin_branch_bits(gx, gz, x, z, sign * gsign)
                stack.append((pos, nx, nz, nsign, sin_coeff, order + 1,
                              codes + ["s"]))
            coeff *= cos_t
            codes.append("c")
            if abs(coeff) < epsilon:
                break
        else:
            yield "".join(reversed(codes)), x, z, sign, coeff, order


def paths_oracle(circuit: Circuit, observable: PauliString,
                 policy: TruncationPolicy):
    """``walk_paths_oracle``'s paths as :class:`PauliPath` values, in its
    order: every surviving path, the zero-expectation ones too, which the
    package's ``PathSet`` builds only where executed and otherwise counts."""
    # a frame's expectation on the input is its sign where it is diagonal
    # in the input's basis (no x bits on |0..0>, no z bits on |+..+>)
    basis = circuit.input_kind == "all_plus"
    for codes, *frame, coeff, order in walk_paths_oracle(circuit, observable,
                                                         policy):
        yield PauliPath(codes, coeff, order,
                        PauliString(circuit.num_qubits, *frame),
                        0 if frame[basis] else frame[2],
                        hashlib.sha256(codes.encode("ascii")).hexdigest()[:16])


# ---------------------------------------------------------------------------
# Map-kernel oracles of the lockstep Pauli-sum walk.
# ---------------------------------------------------------------------------


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


def _op_qubits(op) -> tuple[int, ...]:
    """The qubits an op acts on: a gate's, or its generator's support."""
    return op.qubits if isinstance(op, CliffordGate) \
        else op.generator.support()


def channel_factors(rates, width: int):
    """A gate channel's damping factor 1 - 2 a per ``_local_code`` site
    code of a ``width``-site op, a the total rate of the Paulis of
    ``rates`` that anticommute with the code's frame, added in the rates'
    order; None when no rate is set."""
    table = [(PauliString.from_label(label), prob)
             for label, prob in rates if prob != 0.0]
    if not table:
        return None
    factors = []
    for code in range(4 ** width):
        rate = 0.0
        for pauli, prob in table:
            if anticommutes_bits(pauli.x, pauli.z, *_local_bits(code, width)):
                rate += prob
        factors.append(1.0 - 2.0 * rate)
    return factors


def _exact_noisy_mean(circuit: Circuit, observable: PauliString,
                      noise: NoiseModel, max_terms: int, index: int) -> float:
    """Exact noisy expectation of one item by merged Pauli propagation.

    A gate's noise channel acts after it in circuit time, so in the
    Heisenberg walk it damps each term by 1 - 2 a_l(frame) before the gate
    conjugates it.  The oracle builds each width's factors from the model's
    rates itself (``channel_factors``), so the tests check the walk's factor
    table and readout as well as its walk; and it picks each op's channel
    by its width: an op wider than every channel raises CapabilityError if
    any channel has a rate, and is noiseless otherwise.  Quarter-turn
    rotations take their single branch with exact weights, so a
    Clifford-equivalent circuit stays one term.  Raises CapabilityError as soon as the map holds
    more than ``max_terms`` frames.
    """
    channels = {1: channel_factors(noise.single_qubit_rates, 1),
                2: channel_factors(noise.two_qubit_rates, 2)}
    gate_noise = any(factors is not None for factors in channels.values())
    terms = {(observable.x, observable.z): float(observable.sign)}
    for op in reversed(circuit.ops):
        qubits = _op_qubits(op)
        if len(qubits) not in channels and gate_noise:
            raise CapabilityError(
                f"no noise channel defined for a {len(qubits)}-qubit operation")
        factors = channels.get(len(qubits))
        if factors is not None:
            for key, value in terms.items():
                terms[key] = value * factors[_local_code(*key, qubits)]
        terms = propagate_step(exact_step(op), terms)
        if len(terms) > max_terms:
            raise CapabilityError(
                f"item {index}: Pauli propagation needs more than {max_terms} "
                "terms; reduce the circuit or raise max_terms")
    # the probability that an odd number of the support's readouts flip
    flip = 1.0 - 2.0 * noise.readout_flip
    odd = (1.0 - flip ** observable.weight()) / 2.0
    return stabilizer_input_sum(terms, circuit.input_kind) * (1.0 - 2.0 * odd)


def merged_bfs_oracle(circuit: Circuit, observable: PauliString,
                      max_terms: int, min_coefficient: float = 0.0, *,
                      label=PauliString.label) -> tuple[float, int]:
    """The merged breadth-first sum and its peak term count.

    After every op, terms below ``min_coefficient`` are dropped and the map
    is cut to its ``max_terms`` largest |coefficient|s, ties in the order
    of ``label`` of the frames.  Rotations take ``exact_step``'s weights.
    """
    n = circuit.num_qubits
    terms = {(observable.x, observable.z): float(observable.sign)}
    peak = len(terms)
    for op in reversed(circuit.ops):
        terms = propagate_step(exact_step(op), terms)
        if min_coefficient > 0.0:
            terms = {k: v for k, v in terms.items()
                     if abs(v) >= min_coefficient}
        if len(terms) > max_terms:
            ranked = sorted(terms.items(), key=lambda item: (
                -abs(item[1]), label(PauliString(n, *item[0]))))
            terms = dict(ranked[:max_terms])
        peak = max(peak, len(terms))
    return stabilizer_input_sum(terms, circuit.input_kind), peak


def full_ranking_budgets(circuit: Circuit, observable: PauliString, budgets,
                         min_coefficient: float = 0.0, *, tied=None):
    """``merged_bfs_cpt`` with a cap rule that labels every row and
    lexsorts all of them by (item, -|value|, label), keeping each item's
    first ``cap`` of the rows at or above the floor; the walk drops the
    rest.  ``tied``, if a list, collects at each binding cap, per over-cap
    item, the number of its rows tied at its cap-th largest |value|."""
    caps = np.array(budgets, dtype=np.int64)

    def rule(item, coeff, labels):
        keep = np.abs(coeff) >= min_coefficient
        counts = np.bincount(item[keep], minlength=len(caps))
        if (counts > caps).any():
            # a row under the floor ranks after every row above it
            order = np.lexsort(labels(np.arange(len(item)))[::-1]
                               + [-np.abs(coeff), item])
            ranked = item[order]
            rank = np.arange(len(order)) - np.searchsorted(ranked, ranked)
            if tied is not None:
                edges = {int(i): abs(coeff[o]) for i, o, r in
                         zip(ranked, order, rank)
                         if r == caps[i] - 1 and counts[i] > caps[i]}
                tied.append([sum(i == j and abs(v) == edge
                                 for j, v in zip(item, coeff))
                             for i, edge in sorted(edges.items())])
            keep[order[rank >= caps[ranked]]] = False
        return keep

    return list(zip(*walk_rows([circuit] * len(caps),
                               [observable] * len(caps), rule)))


# ---------------------------------------------------------------------------
# The shot oracle: one scalar draw per item.
# ---------------------------------------------------------------------------


def sampled_estimates(means: Sequence[float],
                      plan: ExecutionPlan) -> list[NoisyEstimate]:
    """Shots with exact means ``means``: each item's ``total_shots`` are one
    scalar binomial draw, in item order, from one generator of the plan's
    seed."""
    rng = np.random.default_rng(np.random.SeedSequence(plan.rng_seed))
    count = plan.total_shots
    estimates = []
    for mean in means:
        # rounding in the propagation sum can put |mean| a hair past 1
        p_plus = min(max((1.0 + mean) / 2.0, 0.0), 1.0)
        plus = int(rng.binomial(count, p_plus))
        mean = (2 * plus - count) / count
        std_error = 0.0
        if count > 1:
            # outcomes are +-1, so the sample variance has a closed form
            variance = count * (1.0 - mean * mean) / (count - 1)
            std_error = math.sqrt(max(variance, 0.0) / count)
        estimates.append(NoisyEstimate(mean=mean, std_error=std_error,
                                       total_shots=count))
    return estimates


# ---------------------------------------------------------------------------
# Dense matrices and the density-matrix oracle.
# ---------------------------------------------------------------------------


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full 2^n x 2^n unitary of the circuit, column by column (n <= 10)."""
    n = circuit.num_qubits
    if n > 10:
        raise CapabilityError(f"dense unitary for {n} qubits is too large")
    dim = 2 ** n
    unitary = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        state = np.zeros((2,) * n, dtype=complex)
        # basis index bit j of col addresses axis j
        idx = tuple((col >> j) & 1 for j in range(n))
        state[idx] = 1.0
        for op in circuit.ops:
            if isinstance(op, CliffordGate):
                state = sv.apply_clifford(state, op)
            else:
                state = sv.apply_rotation(state, op)
        flat = np.zeros(dim, dtype=complex)
        for row in range(dim):
            flat[row] = state[tuple((row >> j) & 1 for j in range(n))]
        unitary[:, col] = flat
    return unitary


def pauli_matrix(p: PauliString) -> np.ndarray:
    """Dense matrix of a signed Pauli string (row/col bit j = qubit j)."""
    if p.num_qubits > 12:
        raise CapabilityError("dense Pauli matrix too large")
    out = np.array([[p.sign]], dtype=complex)
    # qubit 0 must be the fastest-varying index bit, so kron new qubits on the left
    for q in range(p.num_qubits):
        out = np.kron(sv._PAULI_1Q[p.letter(q)], out)
    return out


_MAX_DENSITY_QUBITS = 7


def _embedded_pauli(n: int, qubits: tuple[int, ...], x_local: int,
                    z_local: int) -> PauliString:
    x = z = 0
    for i, q in enumerate(qubits):
        x |= ((x_local >> i) & 1) << q
        z |= ((z_local >> i) & 1) << q
    return PauliString(n, x, z)


def noisy_density_expectation(circuit: Circuit, observable: PauliString,
                              noise: NoiseModel) -> float:
    """Exact noisy expectation by explicit channel composition.

    Evolves the full density matrix, applying each gate's unitary and then
    its Pauli channel, read from the noise model's rates for the gate's
    width.  A gate wider than two qubits has no channel, so it runs only
    when no gate rate is set.  Exponential in qubits twice over, hence the
    small cap.
    """
    n = circuit.num_qubits
    if n > _MAX_DENSITY_QUBITS:
        raise CapabilityError(
            f"density oracle capped at {_MAX_DENSITY_QUBITS} qubits")
    if observable.num_qubits != n:
        raise ValueError("observable size mismatch")
    rates = {1: noise.single_qubit_rates, 2: noise.two_qubit_rates}
    dim = 2 ** n
    state = sv.input_state(n, circuit.input_kind).reshape(dim)
    rho = np.outer(state, state.conj())
    for op in circuit.ops:
        qubits = _op_qubits(op)
        if len(qubits) not in rates and any(
                prob > 0.0 for table in rates.values() for _, prob in table):
            raise CapabilityError(
                f"no noise channel defined for a {len(qubits)}-qubit "
                "operation")
        unitary = circuit_unitary(Circuit(n, (op,), circuit.input_kind))
        rho = unitary @ rho @ unitary.conj().T
        errors = [(PauliString.from_label(label), prob)
                  for label, prob in rates.get(len(qubits), ()) if prob]
        if errors:
            mixed = (1.0 - sum(prob for _, prob in errors)) * rho
            for error, prob in errors:
                pauli = pauli_matrix(
                    _embedded_pauli(n, qubits, error.x, error.z))
                mixed = mixed + prob * (pauli @ rho @ pauli.conj().T)
            rho = mixed
    # an odd number of flips among the measured support flips the eigenvalue
    flip = (1.0 - (1.0 - 2.0 * noise.readout_flip) ** observable.weight()) / 2.0
    value = np.trace(pauli_matrix(observable) @ rho) * (1.0 - 2.0 * flip)
    if abs(value.imag) >= 1e-9:
        raise ConsistencyError(
            f"density oracle produced an imaginary expectation {value}")
    return float(value.real)


# ---------------------------------------------------------------------------
# The sampler's path law.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistributionCheck:
    distribution: str
    num_paths: int
    num_draws: int
    aborted: int
    statistic: float
    p_value: float
    path_ids: tuple[str, ...]
    observed: tuple[int, ...]
    expected: tuple[float, ...]


_SINE_DIGITS = str.maketrans("csp", "010")


def empirical_distribution_check(circuit: Circuit, observable: PauliString,
                                 num_draws: int, *,
                                 distribution: str = D_TILDE,
                                 rng_seed: int = 0,
                                 max_paths: int = 4096) -> DistributionCheck:
    """Chi-square test of sampled path frequencies against the analytic law.

    Enumerates the full tree (zero-expectation paths included, since the
    walk does not know expectations), computes each path's analytic
    probability, draws ``num_draws`` completed walks from the sampler's
    production walk loop, ``_walks``, over its seeded uniform stream, counts
    them by their sine bits, and compares.  For
    the greedy distribution the analytic probability is the product of
    branch probabilities; for the post-selection variant it is |g|
    normalized over all paths, conditioned on completion.  The circuit is
    normalized here, so raw angles are accepted.
    """
    if distribution not in _DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {distribution!r}")
    circuit = normalize_rotations(circuit)
    num_rotations = circuit.num_rotations
    policy = TruncationPolicy.order(num_rotations)
    all_paths = []
    for path in paths_oracle(circuit, observable, policy):
        all_paths.append(path)
        if len(all_paths) > max_paths:
            raise EnumerationLimitError(
                f"more than {max_paths} paths; this check needs a fully "
                "enumerable circuit")
    all_paths.sort(key=lambda p: p.codes)

    angles = {j: op.angle for j, _, op in circuit.rotations()}
    probs = []
    if distribution == D_TILDE:
        for path in all_paths:
            prob = 1.0
            for j, code in enumerate(path.codes, 1):
                if code == "p":
                    continue
                cos_t = abs(math.cos(angles[j]))
                sin_t = abs(math.sin(angles[j]))
                chosen = cos_t if code == "c" else sin_t
                prob *= chosen / (cos_t + sin_t)
            probs.append(prob)
    else:
        probs = [abs(p.coeff) for p in all_paths]
    norm = math.fsum(probs)
    probs = [p / norm for p in probs]

    steps, start = compile_walk(circuit, observable)
    walks = _walks(steps, start, _uniforms(rng_seed).__next__,
                   distribution == D_POSTSELECTED)
    # a walk names its path by the walk-order bits of its sine rotations:
    # bit j is codes[~j], so the codes read as binary, s for 1, name it too
    index = {int("0" + path.codes.translate(_SINE_DIGITS), 2): i
             for i, path in enumerate(all_paths)}
    counts = [0] * len(all_paths)
    completed = 0
    aborted = 0
    walk_guard = 100 * num_draws + 1000
    attempts = 0
    while completed < num_draws:
        attempts += 1
        if attempts > walk_guard:
            raise RuntimeError("post-selection abort rate implausibly high")
        walk = next(walks)
        if walk is None:
            aborted += 1
            continue
        counts[index[walk[0]]] += 1
        completed += 1

    # scipy takes about a second to import; import it only where it is used
    from scipy import stats

    expected = [p * num_draws for p in probs]
    statistic, p_value = stats.chisquare(counts, f_exp=expected)
    return DistributionCheck(
        distribution=distribution,
        num_paths=len(all_paths),
        num_draws=num_draws,
        aborted=aborted,
        statistic=float(statistic),
        p_value=float(p_value),
        path_ids=tuple(p.path_id for p in all_paths),
        observed=tuple(counts),
        expected=tuple(expected),
    )


# ---------------------------------------------------------------------------
# The balance estimator's scan and the weighted average of one sample.
# ---------------------------------------------------------------------------


def eta_balance_oracle(etas: Sequence[float]) -> float:
    """The sample value v minimizing |sum(eta < v) - sum(eta >= v)|, ties
    toward the larger v, by a scan that steps over each run of equal
    values in an inner loop."""
    values = sorted(etas)
    total = math.fsum(values)
    best_value = values[-1]
    best_imbalance = math.inf
    below = 0.0
    i = 0
    while i < len(values):
        v = values[i]
        # advance over duplicates: they all sit in the >= v side
        imbalance = abs(below - (total - below))
        if imbalance <= best_imbalance:
            best_imbalance = imbalance
            best_value = v
        while i < len(values) and values[i] == v:
            below += values[i]
            i += 1
    return best_value


def eta_weighted_average_oracle(etas: Sequence[float],
                                g_ideal: Sequence[float]) -> float:
    """sum(g ideal eta) / sum(g ideal), each sum by ``math.fsum``; nan
    where the denominator is 0 or below 1e-12 of sum(|g|)."""
    den = math.fsum(g_ideal)
    if den == 0.0 or abs(den) < 1e-12 * math.fsum(abs(g) for g in g_ideal):
        return math.nan
    return math.fsum(g * eta for g, eta in zip(g_ideal, etas)) / den


# ---------------------------------------------------------------------------
# The generic combine step.
# ---------------------------------------------------------------------------


def bem_combine(mitigated_target: float, ensemble_ideal: Sequence[float],
                ensemble_mitigated: Sequence[float],
                coefficients: Sequence[float]) -> float:
    """Generic boosted combine: target + sum g (ideal - mitigated).

    The eta-rescaling estimator is this with every mitigated value equal to
    its noisy value divided by eta.
    """
    if not (len(ensemble_ideal) == len(ensemble_mitigated) == len(coefficients)):
        raise ValueError("ensemble lists must have equal length")
    correction = math.fsum(
        g * (ideal - mitigated)
        for g, ideal, mitigated in zip(coefficients, ensemble_ideal,
                                       ensemble_mitigated)
    )
    return mitigated_target + correction
