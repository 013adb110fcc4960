"""Noisy execution: a stand-in for the quantum computer.

The built-in backend simulates a device with stochastic Pauli noise.  Each
gate is a noise location: after the gate acts, one Pauli error from the
location's rate table is inserted with the configured probability.  Readout
is a per-qubit classical flip.  Twirl conjugation by Pauli pairs that leave
the ideal gate invariant is part of the execution plan; for a channel that
is already Pauli-stochastic it maps every sampled error to itself up to a
global sign, so twirl instances differ only through their shot RNG streams.
The structure (instances, per-instance shots, interleaving) is still
honored, which is where a drift model would plug in.

One kernel runs every circuit.  Merged Heisenberg Pauli propagation walks
the reversed circuit with a frame -> coefficient map; at each noise location
every term is damped by 1 - 2 a_l, where a_l is the probability that a
sampled error anticommutes with that term's frame, and the readout factor
scales the final sum.  For stochastic Pauli noise this gives the exact noisy
mean E[mu] over error configurations.  A Clifford-equivalent circuit (every
rotation a multiple of pi/2) stays a single term at any qubit count; other
rotations branch into cosine and sine terms, and the number of terms is
capped (``max_terms``), not the number of qubits.

Each shot draws its own error configuration, so it is a Bernoulli draw with
mean (1 + readout E[mu]) / 2, and a twirl instance's shots are one binomial
draw.

Estimates are means of per-shot +-1 outcomes pooled across twirl instances,
with the sample standard error.  RNG streams are derived from
(seed, circuit index, twirl index), so results do not depend on worker
scheduling or the interleave flag.
"""

import functools
import math
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuits import Circuit, clifford_angle_steps
from .errors import CapabilityError, ConsistencyError
from .pauli import CliffordGate, PauliString
from ._walk import (
    STEP_ROTATION,
    anticommutes_bits,
    apply_clifford_step,
    compile_reversed,
    sin_branch_bits,
    stabilizer_input_sum,
)
from . import statevector as sv

__all__ = [
    "NoiseModel",
    "ExecutionPlan",
    "NoisyEstimate",
    "Backend",
    "TrajectorySimulator",
    "DEFAULT_MAX_TERMS",
    "estimate_noisy_expectation",
    "noisy_density_expectation",
    "TWO_QUBIT_PAULIS",
    "SINGLE_QUBIT_PAULIS",
]

SINGLE_QUBIT_PAULIS = ("X", "Y", "Z")
TWO_QUBIT_PAULIS = tuple(
    a + b for a in "IXYZ" for b in "IXYZ" if a + b != "II"
)

_LOCAL_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


def _validate_rates(items, valid_labels, what):
    total = 0.0
    for label, prob in items:
        if label not in valid_labels:
            raise ValueError(f"{what}: unknown Pauli label {label!r}")
        if prob < 0:
            raise ValueError(f"{what}: negative probability for {label}")
        total += prob
    if total > 1.0 + 1e-12:
        raise ValueError(f"{what}: probabilities sum to {total} > 1")


@dataclass(frozen=True)
class NoiseModel:
    """Stochastic Pauli rates per gate location plus readout flips.

    ``two_qubit_rates`` applies at every two-qubit gate, ``single_qubit_rates``
    at every single-qubit gate and rotation (zero-angle rotations included:
    they are still physical gate slots).  Unlisted Paulis have rate 0; the
    remainder up to 1 is the no-error probability.
    """

    two_qubit_rates: tuple[tuple[str, float], ...] = ()
    single_qubit_rates: tuple[tuple[str, float], ...] = ()
    readout_flip: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "two_qubit_rates",
                           tuple(sorted(dict(self.two_qubit_rates).items())))
        object.__setattr__(self, "single_qubit_rates",
                           tuple(sorted(dict(self.single_qubit_rates).items())))
        _validate_rates(self.two_qubit_rates, TWO_QUBIT_PAULIS, "two_qubit_rates")
        _validate_rates(self.single_qubit_rates, SINGLE_QUBIT_PAULIS,
                        "single_qubit_rates")
        if not 0.0 <= self.readout_flip <= 1.0:
            raise ValueError("readout_flip must be a probability")

    @classmethod
    def noiseless(cls) -> "NoiseModel":
        return cls()

    @classmethod
    def depolarizing(cls, lambda2: float = 5e-3, lambda1: float = 2e-4,
                     readout: float = 1e-2) -> "NoiseModel":
        """Uniform depolarizing: total error rate split evenly over Paulis."""
        return cls(
            two_qubit_rates=tuple((p, lambda2 / 15) for p in TWO_QUBIT_PAULIS),
            single_qubit_rates=tuple((p, lambda1 / 3) for p in SINGLE_QUBIT_PAULIS),
            readout_flip=readout,
        )

    @property
    def is_noiseless(self) -> bool:
        return (not any(p for _, p in self.two_qubit_rates)
                and not any(p for _, p in self.single_qubit_rates)
                and self.readout_flip == 0.0)

    def to_json_dict(self) -> dict:
        return {
            "two_qubit_rates": dict(self.two_qubit_rates),
            "single_qubit_rates": dict(self.single_qubit_rates),
            "readout_flip": self.readout_flip,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "NoiseModel":
        unknown = set(data) - {"two_qubit_rates", "single_qubit_rates",
                               "readout_flip", "depolarizing"}
        if unknown:
            raise ValueError(f"noise: unknown keys {sorted(unknown)}")
        if "depolarizing" in data:
            if len(data) != 1:
                raise ValueError("noise: the depolarizing shorthand replaces "
                                 "explicit rates, not supplements them")
            shorthand = data["depolarizing"]
            extra = set(shorthand) - {"lambda2", "lambda1", "readout"}
            if extra:
                raise ValueError(
                    f"noise.depolarizing: unknown keys {sorted(extra)}")
            return cls.depolarizing(lambda2=shorthand.get("lambda2", 5e-3),
                                    lambda1=shorthand.get("lambda1", 2e-4),
                                    readout=shorthand.get("readout", 1e-2))
        return cls(
            two_qubit_rates=tuple(data.get("two_qubit_rates", {}).items()),
            single_qubit_rates=tuple(data.get("single_qubit_rates", {}).items()),
            readout_flip=data.get("readout_flip", 0.0),
        )


@dataclass(frozen=True)
class ExecutionPlan:
    num_twirls: int = 1
    shots_per_twirl: int = 1
    rng_seed: int = 0
    interleave: bool = False

    def __post_init__(self):
        if self.num_twirls < 1 or self.shots_per_twirl < 1:
            raise ValueError("num_twirls and shots_per_twirl must be >= 1")

    @property
    def total_shots(self) -> int:
        return self.num_twirls * self.shots_per_twirl

    def to_json_dict(self) -> dict:
        return {
            "num_twirls": self.num_twirls,
            "shots_per_twirl": self.shots_per_twirl,
            "rng_seed": self.rng_seed,
            "interleave": self.interleave,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExecutionPlan":
        unknown = set(data) - {"num_twirls", "shots_per_twirl", "rng_seed",
                               "interleave"}
        if unknown:
            raise ValueError(f"plan: unknown keys {sorted(unknown)}")
        return cls(
            num_twirls=data.get("num_twirls", 1),
            shots_per_twirl=data.get("shots_per_twirl", 1),
            rng_seed=data.get("rng_seed", 0),
            interleave=data.get("interleave", False),
        )


@dataclass(frozen=True)
class NoisyEstimate:
    """Pooled mean of +-1 shot outcomes.  total_shots == 0 marks the
    analytic infinite-shot mode (std_error is exactly 0 there)."""

    mean: float
    std_error: float
    total_shots: int

    def __post_init__(self):
        if abs(self.mean) > 1.0 + 1e-9:
            raise ValueError("mean of +-1 outcomes cannot exceed 1")
        if self.std_error < 0 or self.total_shots < 0:
            raise ValueError("std_error and total_shots must be >= 0")

    def to_json_dict(self) -> dict:
        return {
            "mean": self.mean,
            "std_error": self.std_error,
            "total_shots": self.total_shots,
        }


class Backend(ABC):
    """What the pipeline needs from a quantum execution service.

    Implementations must return one estimate per submitted (circuit,
    observable) pair, in submission order, and must not silently drop
    items: anything unrunnable raises before any execution starts.  A
    hardware client implementing this interface is interchangeable with
    the simulator.
    """

    @abstractmethod
    def submit_batch(self, items: Sequence[tuple[Circuit, PauliString]],
                     plan: ExecutionPlan) -> list[NoisyEstimate]:
        raise NotImplementedError

    def estimate(self, circuit: Circuit, observable: PauliString,
                 plan: ExecutionPlan) -> NoisyEstimate:
        return self.submit_batch([(circuit, observable)], plan)[0]


def _rate_table(items):
    """(x_bits, z_bits, prob) per listed Pauli, plus the total rate."""
    table = []
    total = 0.0
    for label, prob in items:
        if prob == 0.0:
            continue
        x = z = 0
        for i, letter in enumerate(label):
            lx, lz = _LOCAL_BITS[letter]
            x |= lx << i
            z |= lz << i
        table.append((x, z, prob))
        total += prob
    return table, total


def _anticommute_rate(table, fx, fz):
    """Probability that a sampled error anticommutes with local frame bits."""
    rate = 0.0
    for ex, ez, prob in table:
        if (((ex & fz) ^ (ez & fx)).bit_count()) & 1:
            rate += prob
    return rate


def _local_code(x: int, z: int, qubits: tuple[int, ...]) -> int:
    """Frame bits on the given qubits, two bits (x low, z high) per qubit."""
    code = 0
    for i, q in enumerate(qubits):
        code |= (((x >> q) & 1) | (((z >> q) & 1) << 1)) << (2 * i)
    return code


def _damping_factors(table, width: int) -> list[float]:
    """1 - 2 a(frame) for every local frame code of a ``width``-qubit site."""
    factors = []
    for code in range(4 ** width):
        fx = fz = 0
        for i in range(width):
            fx |= ((code >> (2 * i)) & 1) << i
            fz |= ((code >> (2 * i + 1)) & 1) << i
        factors.append(1.0 - 2.0 * _anticommute_rate(table, fx, fz))
    return factors


class _Location:
    """One noise location: which qubits, which rate table, and the damping
    factor per local frame code (None when the location is noiseless)."""

    __slots__ = ("qubits", "table", "total", "factors")

    def __init__(self, qubits, table, total, factors):
        self.qubits = qubits
        self.table = table
        self.total = total
        self.factors = factors


def _op_support(op) -> tuple[int, ...]:
    if isinstance(op, CliffordGate):
        return op.qubits
    return tuple(op.generator.support())


@functools.lru_cache(maxsize=16)
def _channels(noise: NoiseModel) -> dict:
    """(table, total, damping factors) per gate width; read-only."""
    channels = {}
    for width, rates in ((1, noise.single_qubit_rates),
                         (2, noise.two_qubit_rates)):
        table, total = _rate_table(rates)
        factors = _damping_factors(table, width) if total > 0.0 else None
        channels[width] = (table, total, factors)
    return channels


def _noise_locations(circuit: Circuit, noise: NoiseModel) -> list[_Location]:
    channels = _channels(noise)
    noisy = any(total > 0.0 for _, total, _ in channels.values())
    locations = []
    for op in circuit.ops:
        support = _op_support(op)
        if len(support) in channels:
            locations.append(_Location(support, *channels[len(support)]))
        elif noisy:
            raise CapabilityError(
                f"no noise channel defined for a {len(support)}-qubit operation")
        else:
            locations.append(_Location(support, [], 0.0, None))
    return locations


def _readout_flip_probability(noise: NoiseModel, observable: PauliString) -> float:
    r = noise.readout_flip
    if r == 0.0:
        return 0.0
    # odd number of flips among the measured support flips the eigenvalue
    return (1.0 - (1.0 - 2.0 * r) ** observable.weight()) / 2.0


# exact (cos, sin) of a rotation by m quarter turns
_QUARTER_TURNS = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))


def _exact_noisy_mean(task) -> float:
    """Exact noisy expectation of one item by merged Pauli propagation.

    Walks the reversed circuit keeping a frame -> coefficient map.  A gate's
    noise channel acts after it in circuit time, so in the Heisenberg walk
    it damps each term by 1 - 2 a_l(frame) before the gate conjugates it.
    Quarter-turn rotations take their single branch with exact weights, so
    a Clifford-equivalent circuit stays one term.  Raises CapabilityError
    as soon as the map holds more than ``max_terms`` frames.
    """
    circuit, observable, noise, max_terms, index = task
    quarter = {j: clifford_angle_steps(op.angle)
               for j, _, op in circuit.rotations()}
    steps, _ = compile_reversed(circuit)
    locations = reversed(_noise_locations(circuit, noise))
    terms = {(observable.x, observable.z): float(observable.sign)}
    # compile_reversed emits one step per op, last op first
    for step, loc in zip(steps, locations):
        factors = loc.factors
        if factors is not None:
            qubits = loc.qubits
            for key, value in terms.items():
                terms[key] = value * factors[_local_code(*key, qubits)]
        if step[0] != STEP_ROTATION:
            new_terms = {}
            for (x, z), value in terms.items():
                nx, nz, sign = apply_clifford_step(step, x, z, 1)
                new_terms[(nx, nz)] = value * sign
            terms = new_terms
            continue
        _, j, gx, gz, cos_t, sin_t = step
        if quarter[j] is not None:
            cos_t, sin_t = _QUARTER_TURNS[quarter[j]]
        new_terms = {}
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
        terms = new_terms
        if len(terms) > max_terms:
            raise CapabilityError(
                f"item {index}: Pauli propagation needs more than {max_terms} "
                "terms; reduce the circuit or raise max_terms")
    readout = 1.0 - 2.0 * _readout_flip_probability(noise, observable)
    return stabilizer_input_sum(terms, circuit.input_kind) * readout


def _pooled_estimate(count: int, outcome_sum: float) -> NoisyEstimate:
    mean = outcome_sum / count
    if count > 1:
        # outcomes are +-1, so the sample variance has a closed form
        variance = count * (1.0 - mean * mean) / (count - 1)
        std_error = math.sqrt(max(variance, 0.0) / count)
    else:
        std_error = 0.0
    return NoisyEstimate(mean=float(mean), std_error=float(std_error),
                         total_shots=count)


def _sampled_estimate(mean: float, plan: ExecutionPlan,
                      index: int) -> NoisyEstimate:
    """Shots with exact mean ``mean``: one binomial draw per twirl."""
    # rounding in the propagation sum can put |mean| a hair past 1
    p_plus = min(max((1.0 + mean) / 2.0, 0.0), 1.0)
    plus = 0
    for twirl in range(plan.num_twirls):
        rng = np.random.default_rng(
            np.random.SeedSequence(plan.rng_seed, spawn_key=(index, twirl)))
        plus += int(rng.binomial(plan.shots_per_twirl, p_plus))
    return _pooled_estimate(plan.total_shots, 2 * plus - plan.total_shots)


DEFAULT_MAX_TERMS = 65536


class TrajectorySimulator(Backend):
    """The built-in noisy backend.

    Every item's exact noisy mean is computed first, by Pauli propagation
    capped at ``max_terms`` frames; a breach raises CapabilityError before
    any shot is drawn.  ``infinite_shots`` returns those means directly
    instead of sampling, so tests can separate mitigation error from shot
    noise.  ``workers`` parallelizes the means over batch items; results
    are identical to the serial run.
    """

    def __init__(self, noise: NoiseModel, *, max_terms: int = DEFAULT_MAX_TERMS,
                 infinite_shots: bool = False, workers: int = 1):
        if max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        self.noise = noise
        self.max_terms = max_terms
        self.infinite_shots = infinite_shots
        self.workers = workers

    def submit_batch(self, items: Sequence[tuple[Circuit, PauliString]],
                     plan: ExecutionPlan) -> list[NoisyEstimate]:
        tasks = []
        for index, (circuit, observable) in enumerate(items):
            if observable.num_qubits != circuit.num_qubits:
                raise ValueError(f"item {index}: observable size mismatch")
            tasks.append((circuit, observable, self.noise, self.max_terms,
                          index))
        if self.workers > 1 and len(tasks) > 1:
            with ProcessPoolExecutor(max_workers=self.workers) as pool:
                means = list(pool.map(_exact_noisy_mean, tasks))
        else:
            means = [_exact_noisy_mean(task) for task in tasks]
        if self.infinite_shots:
            return [NoisyEstimate(mean=mean, std_error=0.0, total_shots=0)
                    for mean in means]
        # every stream is derived from (seed, item, twirl), so neither the
        # worker count nor the interleave flag changes a result
        return [_sampled_estimate(mean, plan, index)
                for index, mean in enumerate(means)]


def estimate_noisy_expectation(circuit: Circuit, observable: PauliString,
                               noise: NoiseModel,
                               plan: ExecutionPlan) -> NoisyEstimate:
    return TrajectorySimulator(noise).estimate(circuit, observable, plan)


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

    Reference implementation for tests: evolves the full density matrix,
    applying each gate's unitary and then its Pauli channel.  Exponential in
    qubits twice over, hence the small cap.
    """
    n = circuit.num_qubits
    if n > _MAX_DENSITY_QUBITS:
        raise CapabilityError(
            f"density oracle capped at {_MAX_DENSITY_QUBITS} qubits")
    if observable.num_qubits != n:
        raise ValueError("observable size mismatch")
    locations = _noise_locations(circuit, noise)
    dim = 2 ** n
    state = sv.input_state(n, circuit.input_kind).reshape(dim)
    rho = np.outer(state, state.conj())
    for op, loc in zip(circuit.ops, locations):
        unitary = sv.circuit_unitary(Circuit(n, (op,), circuit.input_kind))
        rho = unitary @ rho @ unitary.conj().T
        if loc.total > 0.0:
            mixed = (1.0 - loc.total) * rho
            for ex, ez, prob in loc.table:
                pauli = sv.pauli_matrix(_embedded_pauli(n, loc.qubits, ex, ez))
                mixed = mixed + prob * (pauli @ rho @ pauli.conj().T)
            rho = mixed
    readout = 1.0 - 2.0 * _readout_flip_probability(noise, observable)
    value = np.trace(sv.pauli_matrix(observable) @ rho) * readout
    if abs(value.imag) >= 1e-9:
        raise ConsistencyError(
            f"density oracle produced an imaginary expectation {value}")
    return float(value.real)
