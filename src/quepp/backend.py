"""Noisy execution: a stand-in for the quantum computer.

The built-in backend simulates a device with stochastic Pauli noise.  Each
gate is a noise location: after the gate acts, one Pauli error from the
location's rate table is inserted with the configured probability.  Readout
is a per-qubit classical flip.  Twirl conjugation by Pauli pairs that leave
the ideal gate invariant is part of the execution plan; for a channel that
is already Pauli-stochastic it maps every sampled error to itself up to a
global sign, so the simulator's twirl instances are all alike and it pools
their shots (below).

Every circuit's exact noisy mean comes from Heisenberg Pauli propagation
over the reversed circuit: at each noise location every term is damped by
1 - 2 a_l, where a_l is the probability that a sampled error anticommutes
with that term's frame, and the readout factor scales the final sum.  For
stochastic Pauli noise this gives the exact noisy mean E[mu] over error
configurations.  Each op's damping factors come from its width's
channel, cached per noise model; an op wider than two qubits has no
channel, so it runs only when no gate rate is set.

A rotation off the quarter turns branches a frame into cosine and sine
terms, so the walk's size is capped by a term count (``max_terms``), not by
the number of qubits.  ``submit_batch`` groups the items by gate and
generator objects (``Circuit._group_key``), so a QuEPP target walks with
its references, and ``_frame_means`` walks each group in lockstep on the
one Pauli-sum walk, ``_walk.walk_rows``, which steps only the rotations
and damps by the noise locations between two rotations as one block.  The
tests check every mean bit for bit against an op-by-op walk over a
frame -> coefficient map, and against a density-matrix oracle of their own
on small circuits; the package holds no dense simulation of noise.

Each shot draws its own error configuration, so it is a Bernoulli draw with
mean (1 + readout E[mu]) / 2.  That mean does not depend on the twirl
instance, so the sum of ``num_twirls`` binomial draws of ``shots_per_twirl``
shots has exactly the law of one binomial draw of ``total_shots``.  A batch
draws all its items' shots at once, after every group's means are known:
item i's shots are element i of one binomial draw over the items' means
in item order, from numpy's stream of SeedSequence(seed).  So the shots do
not depend on how the items group, and item 0 gets the same estimate as
when it is submitted alone.  Estimates are means of the +-1 outcomes, with
the sample standard error.  ``ExecutionPlan.num_twirls`` stays because a
hardware backend twirls.
"""

import functools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuits import Circuit
from .errors import CapabilityError
from .pauli import CliffordGate, PauliString, _local_bits
from ._walk import exact_turn, walk_rows

__all__ = [
    "NoiseModel",
    "ExecutionPlan",
    "NoisyEstimate",
    "Backend",
    "TrajectorySimulator",
    "DEFAULT_MAX_TERMS",
    "TWO_QUBIT_PAULIS",
    "SINGLE_QUBIT_PAULIS",
]

SINGLE_QUBIT_PAULIS = ("X", "Y", "Z")
TWO_QUBIT_PAULIS = tuple(
    a + b for a in "IXYZ" for b in "IXYZ" if a + b != "II"
)


def _validate_rates(items, valid_labels, what):
    total = 0.0
    for label, prob in items:
        if label not in valid_labels:
            raise ValueError(f"{what}: unknown Pauli label {label!r}")
        if not prob >= 0:
            raise ValueError(
                f"{what}: negative or NaN probability for {label}")
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


@dataclass(frozen=True)
class ExecutionPlan:
    num_twirls: int = 1
    shots_per_twirl: int = 1
    rng_seed: int = 0

    def __post_init__(self):
        if self.num_twirls < 1 or self.shots_per_twirl < 1:
            raise ValueError("num_twirls and shots_per_twirl must be >= 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")

    @property
    def total_shots(self) -> int:
        return self.num_twirls * self.shots_per_twirl


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


def _anticommute_rate(table, fx, fz):
    """Probability that a sampled error anticommutes with local frame bits."""
    rate = 0.0
    for pauli, prob in table:
        if (((pauli.x & fz) ^ (pauli.z & fx)).bit_count()) & 1:
            rate += prob
    return rate


@functools.lru_cache(maxsize=16)
def _channels(noise: NoiseModel) -> dict:
    """Damping factors per gate width, or None for a width with no rate;
    read-only.  A factor is 1 - 2 a(frame) for each site code of a frame,
    a(frame) the probability that a sampled error anticommutes with it."""
    channels = {}
    for width, rates in ((1, noise.single_qubit_rates),
                         (2, noise.two_qubit_rates)):
        table = [(PauliString.from_label(label), prob)
                 for label, prob in rates if prob != 0.0]
        channels[width] = np.array([
            1.0 - 2.0 * _anticommute_rate(table, *_local_bits(code, width))
            for code in range(4 ** width)]) if table else None
    return channels


def _op_channel(op, channels: dict):
    """The ``_channels`` damping factors of the op's width, or None.

    An op wider than every channel runs noiselessly when no gate channel has
    a rate; readout flips act at measurement, not at gates.
    """
    width = len(op.qubits if isinstance(op, CliffordGate)
                else op.generator.support())
    if width in channels:
        return channels[width]
    if any(factors is not None for factors in channels.values()):
        raise CapabilityError(
            f"no noise channel defined for a {width}-qubit operation")
    return None


def _readout_flip_probability(noise: NoiseModel, observable: PauliString) -> float:
    # odd number of flips among the measured support flips the eigenvalue
    flip = 1.0 - 2.0 * noise.readout_flip
    return (1.0 - flip ** observable.weight()) / 2.0


def _frame_means(indices: Sequence[int], circuits: Sequence[Circuit],
                 observables: Sequence[PauliString], noise: NoiseModel,
                 max_terms: int) -> list[float]:
    """Exact noisy means of items sharing one group key, in lockstep.

    ``circuits[0]`` lends the group its ops; at a rotation each item takes
    its own exact (cos, sin) from ``exact_turn``, evaluated once per
    distinct angle of the group.  A term count over
    ``max_terms`` raises CapabilityError naming the item's batch index from
    ``indices``, before any shot is drawn.
    """
    circuit = circuits[0]
    # (cos, sin) per rotation and item, from each distinct angle once
    angles = np.fromiter([c.ops[pos].angle
                          for pos, op in enumerate(circuit.ops)
                          if not isinstance(op, CliffordGate)
                          for c in circuits], float).reshape(-1, len(circuits))
    distinct = np.sort(angles, axis=None)  # np.unique imports numpy.ma
    distinct = distinct[np.diff(distinct, prepend=np.nan) != 0.0]
    turns = np.array([exact_turn(angle) for angle in distinct.tolist()]
                     ).reshape(-1, 2)[np.searchsorted(distinct, angles)]
    channels = _channels(noise)
    damping = [_op_channel(op, channels) for op in circuit.ops]

    def rule(item, frames, value, labels):
        # no item holds more rows than the group
        if len(item) > max_terms:
            over = np.flatnonzero(np.bincount(item) > max_terms)
            if over.size:
                raise CapabilityError(
                    f"item {indices[over[0]]}: Pauli propagation needs more "
                    f"than {max_terms} terms; reduce the circuit or raise "
                    "max_terms")
        return item, frames, value

    sums = walk_rows(circuit, observables, turns, rule, damping)
    return [total * (1.0 - 2.0 * _readout_flip_probability(noise, observable))
            for total, observable in zip(sums, observables)]


def _sampled_estimates(means: Sequence[float],
                       plan: ExecutionPlan) -> list[NoisyEstimate]:
    """Shots with exact means ``means``: item i's ``total_shots`` are
    element i of one binomial draw, in item order, from the stream of
    SeedSequence(seed)."""
    count = plan.total_shots
    # rounding in the propagation sum can put |mean| a hair past 1
    p_plus = np.clip((1.0 + np.asarray(means, float)) / 2.0, 0.0, 1.0)
    rng = np.random.default_rng(np.random.SeedSequence(plan.rng_seed))
    sampled = (2 * rng.binomial(count, p_plus) - count) / count
    # outcomes are +-1, so the sample variance has a closed form
    variance = count * (1.0 - sampled * sampled) / max(count - 1, 1)
    errors = np.sqrt(np.maximum(variance, 0.0) / count)
    return [NoisyEstimate(mean, error, count)
            for mean, error in zip(sampled.tolist(), errors.tolist())]


DEFAULT_MAX_TERMS = 65536


class TrajectorySimulator(Backend):
    """The built-in noisy backend.

    Every item's exact noisy mean is computed first, by Pauli propagation
    capped at ``max_terms`` frames per item; a breach raises CapabilityError
    before any shot is drawn.  Items run in lockstep groups of one group
    key (``_frame_means``, once per group, in the calling process), so
    a QuEPP target walks with its references and a QuEPP batch is one
    group.  ``infinite_shots`` returns those means directly instead of
    sampling, so tests can separate mitigation error from shot noise.
    """

    def __init__(self, noise: NoiseModel, *, max_terms: int = DEFAULT_MAX_TERMS,
                 infinite_shots: bool = False):
        if max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        self.noise = noise
        self.max_terms = max_terms
        self.infinite_shots = infinite_shots

    def submit_batch(self, items: Sequence[tuple[Circuit, PauliString]],
                     plan: ExecutionPlan) -> list[NoisyEstimate]:
        # group key -> item indices
        groups = {}
        for index, (circuit, observable) in enumerate(items):
            if observable.num_qubits != circuit.num_qubits:
                raise ValueError(f"item {index}: observable size mismatch")
            groups.setdefault(circuit._group_key, []).append(index)
        means = [0.0] * len(items)
        for indices in groups.values():
            circuits, observables = zip(*(items[i] for i in indices))
            values = _frame_means(indices, circuits, observables, self.noise,
                                  self.max_terms)
            for index, mean in zip(indices, values):
                means[index] = mean
        if self.infinite_shots:
            return [NoisyEstimate(mean=mean, std_error=0.0, total_shots=0)
                    for mean in means]
        return _sampled_estimates(means, plan)
