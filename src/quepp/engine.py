"""Clifford-perturbation-theory engine: path enumeration and classical sums.

Back-propagating an observable through a circuit with K rotations produces a
binary tree of Pauli paths: each rotation that anticommutes with the current
frame forks into a cosine branch (weight cos theta) and a sine branch
(weight sin theta, frame multiplied by i*P).  A path's coefficient is the
product of its branch weights, its order k counts sine choices, and the
exact expectation is the sum over all paths of coefficient times the
stabilizer expectation of the final frame.  A path is named by its code
string, one character per rotation in forward order: ``c`` (cosine), ``s``
(sine) or ``p`` (passthrough, the rotation commutes with the frame); its
``path_id`` hashes that string.  ``path_to_circuit`` realizes a code string
as a circuit, and checks it first, since it may come from outside.

Two classical evaluators live here, both on the walk core in ``_walk``:

* ``enumerate_paths_parallel``, the one depth-first enumerator: it walks
  every surviving path under sound truncation (order and/or coefficient
  threshold) into a ``PathSet`` that builds only the executed
  (nonzero-ideal) paths and counts the others.  The walk jumps from one
  anticommuting rotation to the next on masks compiled once per circuit
  (``_walk.compile_circuit``), from the observable's image under every
  Clifford, so neither a Clifford nor a commuting rotation costs a path
  anything.  It carries unsigned frame bits, the mask, coefficient and
  order only; ``_walk.path_of`` rebuilds the sign and codes of paths built;
* ``merged_bfs_cpt``, the one Pauli-sum walk (``_walk.walk_rows``) with a
  coefficient floor and one item per term cap; merging identical frames
  forgets path identity, so it cannot seed the ensemble.

Truncation pruning is sound because order only grows and |coefficient| only
shrinks along any descent.
"""

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from ._walk import compile_walk, path_of, walk_rows
from .backend import _term_cap
from .circuits import QUARTER_TURN_TOLERANCE, Circuit
from .errors import ConsistencyError
from .pauli import PauliString, _input_expectation

__all__ = [
    "TruncationPolicy",
    "PauliPath",
    "PathSet",
    "enumerate_paths_parallel",
    "classical_cpt_estimate",
    "merged_bfs_cpt",
    "coefficient_power",
    "path_to_circuit",
    "path_record",
]


@dataclass(frozen=True)
class TruncationPolicy:
    """Which paths survive: order cutoff, coefficient floor, or both."""

    max_order: Optional[int] = None
    min_coefficient: float = 0.0

    def __post_init__(self):
        if self.max_order is not None and self.max_order < 0:
            raise ValueError("max_order must be >= 0")
        if not self.min_coefficient >= 0:
            raise ValueError("min_coefficient must be >= 0")
        if self.max_order is None and self.min_coefficient <= 0:
            raise ValueError(
                "policy must bound order, coefficient, or both; "
                "use order(k) with k >= K for an untruncated run")

    @classmethod
    def order(cls, k_t: int) -> "TruncationPolicy":
        return cls(max_order=k_t)

    @property
    def mode(self) -> str:
        if self.max_order is None:
            return "coefficient"
        return "hybrid" if self.min_coefficient > 0 else "order"


@dataclass(frozen=True)
class PauliPath:
    """One fully decided path with its weight, frame and exact expectation.

    ``codes`` holds one c/s/p character per rotation in forward order,
    ``coeff`` is the product of the taken branch weights and ``order``
    counts the sine codes.
    """

    codes: str
    coeff: float
    order: int
    frame: PauliString
    ideal_expectation: int
    path_id: str


def _make_path(codes: str, x: int, z: int, sign: int, coeff: float,
               order: int, circuit: Circuit) -> PauliPath:
    """A path from ``_walk.path_of``'s replay of it on ``circuit``."""
    return PauliPath(codes, coeff, order,
                     PauliString(circuit.num_qubits, x, z, sign),
                     _input_expectation(x, z, sign, circuit.input_kind),
                     hashlib.sha256(codes.encode("ascii")).hexdigest()[:16])


def _compile(circuit: Circuit, observable: PauliString):
    """``compile_walk`` of an enumerable circuit and observable."""
    if observable.num_qubits != circuit.num_qubits:
        raise ValueError("observable size does not match circuit")
    for j, _, op in circuit.rotations():
        if not QUARTER_TURN_TOLERANCE < abs(op.angle) \
                <= math.pi / 4 + QUARTER_TURN_TOLERANCE:
            raise ValueError(
                f"rotation {j} at angle {op.angle} is outside (-pi/4, pi/4]; "
                "run normalize_rotations first")
    return compile_walk(circuit, observable)


def _walk_paths(steps, start, policy: TruncationPolicy):
    """The depth-first walk over ``compile_walk``'s steps from ``start``,
    cosine branch first, yielding each surviving path as (sines, x, z,
    coeff, order), its sine rotations' walk-order bits and its unsigned
    final frame's bits first; ``_walk.path_of`` rebuilds the rest."""
    max_order = policy.max_order
    epsilon = policy.min_coefficient

    # Stack entries resume the walk just after a sine branch was taken;
    # ``anti`` masks the anticommuting rotations still ahead.
    stack = [(start[0], start[1], start[3], 1.0, 0, 0)]
    while stack:
        x, z, anti, coeff, order, sines = stack.pop()
        while anti:
            low = anti & -anti
            anti ^= low
            gx, gz, _, cos_t, sin_t, flips = steps[low.bit_length() - 1]
            sin_coeff = coeff * sin_t
            if (abs(sin_coeff) >= epsilon
                    and (max_order is None or order < max_order)):
                stack.append((x ^ gx, z ^ gz, anti ^ flips, sin_coeff,
                              order + 1, sines | low))
            coeff *= cos_t
            if abs(coeff) < epsilon:
                break
        else:
            yield sines, x, z, coeff, order


@dataclass(frozen=True)
class PathSet:
    """The surviving paths of a truncated tree: the executed (nonzero-ideal)
    ones built and sorted by path_id, the others only counted.  ``counts[k]``
    is the number of surviving paths of order k (k = 0..K), ``len()`` their
    total and ``p_kt`` their ``coefficient_power``, to the bit."""

    executed: tuple[PauliPath, ...]
    counts: tuple[int, ...]
    p_kt: float

    def __len__(self) -> int:
        return sum(self.counts)


def enumerate_paths_parallel(circuit: Circuit, observable: PauliString,
                             policy: TruncationPolicy) -> PathSet:
    """The surviving paths as a :class:`PathSet`, from one depth-first walk.

    The circuit must be normalized (every rotation in (-pi/4, pi/4], sine
    nonzero) so that pruning on partial coefficients is monotone.  Only
    executed paths are replayed and built; the others, zero-expectation
    paths included, add to the counts and to the coefficient power, which
    ``math.fsum`` sums from a generator over the walk, so memory is bounded
    by the executed set.  The name stays because the benchmark harness
    wraps this function by name.
    """
    steps, start = _compile(circuit, observable)
    executed, counts = [], [0] * (circuit.num_rotations + 1)

    def squares():
        for sines, x, z, coeff, order in _walk_paths(steps, start, policy):
            counts[order] += 1
            if _input_expectation(x, z, 1, circuit.input_kind):
                executed.append(_make_path(*path_of(steps, start, sines),
                                           circuit))
            yield coeff ** 2

    # fsum is correctly rounded, so this is ``coefficient_power``'s float
    p_kt = _bounded_power(math.fsum(squares()))
    return PathSet(tuple(sorted(executed, key=lambda p: p.path_id)),
                   tuple(counts), p_kt)


def classical_cpt_estimate(paths: Iterable[PauliPath]) -> float:
    """Sum of coefficient times ideal expectation over the given paths.

    ``math.fsum`` is correctly rounded, so the value does not depend on the
    order in which the paths were produced.
    """
    return math.fsum(p.coeff * p.ideal_expectation for p in paths)


def coefficient_power(paths: Iterable[PauliPath]) -> float:
    """Sum of squared coefficients over the given paths; bounded by 1.

    Over the full untruncated tree this sums to exactly 1 (each branch point
    splits unit weight into cos^2 + sin^2), so any truncated subset gives a
    value in [0, 1], monotone in the truncation order.
    """
    return _bounded_power(math.fsum(p.coeff ** 2 for p in paths))


def _bounded_power(power: float) -> float:
    if power > 1.0 + 1e-9:
        raise ConsistencyError(f"coefficient power {power} exceeds 1")
    return min(power, 1.0)


def merged_bfs_cpt(circuit: Circuit, observable: PauliString, budgets, *,
                   min_coefficient: float = 0.0) -> list[tuple[float, int]]:
    """Breadth-first classical sums that merge identical frames, one per
    term budget, from one lockstep walk with one item per budget.

    At the start and after each rotation some term anticommutes with, the
    walk's rule masks out the terms below ``min_coefficient`` and caps each
    sum to its budget's largest coefficients (ties broken by the frame's
    text label, so the walk is deterministic): an item over its cap keeps
    its rows above its cap-th largest |value| and, of the rows equal to it,
    the first in label order; only those are labelled.  A rotation weighs
    its terms by ``_walk.exact_turn``, as the backend's walk does, so an
    exact quarter turn keeps one term.  Returns the final estimate and the
    peak term count per budget.  A budget that is no integer in [1,
    ``MAX_COUNT``), the range of ``max_terms`` everywhere, or a negative or
    NaN floor raises ValueError.
    """
    if observable.num_qubits != circuit.num_qubits:
        raise ValueError("observable size does not match circuit")
    if not min_coefficient >= 0:
        raise ValueError("min_coefficient must be >= 0")
    caps = np.array([_term_cap(budget) for budget in budgets], dtype=np.int64)

    def rule(item, coeff, labels):
        size = np.abs(coeff)
        keep = size >= min_coefficient if min_coefficient > 0.0 else None
        # the rows stay in item order, so an item's rows are one slice
        starts = item.searchsorted(np.arange(len(caps) + 1))
        counts = starts[1:] - starts[:-1] if keep is None else np.bincount(
            item.compress(keep), minlength=len(caps))
        over = np.flatnonzero(counts > caps).tolist()
        if not over:
            return keep
        # over its cap, an item's cap-th largest |value| is above the floor;
        # under it, its edge -1 keeps every row, so the floor's mask joins
        edge = np.full(len(caps), -1.0)
        for i in over:
            edge[i] = np.partition(size[starts[i]:starts[i + 1]],
                                   -caps[i])[-caps[i]]
        edge = edge.take(item)
        tied = np.flatnonzero(size == edge)
        keep = size > edge if keep is None else keep & (size > edge)
        tied = tied.take(np.lexsort(labels(tied)[::-1] + [item.take(tied)]))
        ranked = item.take(tied)
        rank = np.arange(len(tied)) - np.searchsorted(ranked, ranked)
        room = caps - np.bincount(item.compress(keep), minlength=len(caps))
        keep[tied.compress(rank < room.take(ranked))] = True
        return keep

    return list(zip(*walk_rows([circuit] * len(caps),
                               [observable] * len(caps), rule)))


def path_to_circuit(circuit: Circuit, codes: str) -> Circuit:
    """Realize one path as an executable circuit with the same gate slots.

    Sine codes become quarter-turn rotations R_P(pi/2) (Clifford), cosine
    and passthrough codes become zero-angle rotations (identity).  Every
    rotation keeps its slot in the op list, so a noise model that attaches
    errors per gate sees the same error locations as the original circuit.
    The result shares the target's Clifford gates and its cached rotations
    (``Circuit._rotation_slots``), and names the target as the circuit the
    backend walks it with (``Circuit._target``).
    Raises ValueError unless ``codes`` holds one c, s or p per rotation.
    """
    slots = circuit._rotation_slots
    if len(codes) > len(slots):
        raise ValueError(
            f"{len(codes)} branch codes for {len(slots)} rotations")
    if not set(codes) <= set("csp"):
        raise ValueError(f"branch codes must be c, s or p, got {codes!r}")
    if len(codes) < len(slots):
        raise ValueError(f"no branch code for rotation {len(codes) + 1}")
    ops = list(circuit.ops)
    for (pos, turns), code in zip(slots, codes):
        ops[pos] = turns[code == "s"]
    return circuit._with_angles(tuple(ops))


def path_record(path: PauliPath) -> dict:
    """JSON-ready record for ensemble dumps."""
    return {
        "path_id": path.path_id,
        "order": path.order,
        "coefficient": path.coeff,
        "sin_indices": [j for j, code in enumerate(path.codes, 1)
                        if code == "s"],
        "frame": path.frame.label(),
        "ideal_expectation": path.ideal_expectation,
    }
