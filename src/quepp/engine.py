"""Clifford-perturbation-theory engine: path enumeration and classical sums.

Back-propagating an observable through a circuit with K rotations produces a
binary tree of Pauli paths: each rotation that anticommutes with the current
frame forks into a cosine branch (weight cos theta) and a sine branch
(weight sin theta, frame multiplied by i*P).  A path's coefficient is the
product of its branch weights, its order k counts sine choices, and the
exact expectation is the sum over all paths of coefficient times the
stabilizer expectation of the final frame.

Two classical evaluators live here:

* a streaming depth-first enumeration with sound truncation (order and/or
  coefficient threshold) that yields every surviving path individually, and
* a breadth-first sum that merges identical frames between gates, which is
  cheaper classically but forgets path identity, so it cannot seed the
  quantum ensemble.

Truncation pruning is sound because order only grows and |coefficient| only
shrinks along any descent.
"""

import hashlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from ._walk import (
    STEP_ROTATION,
    anticommutes_bits,
    apply_clifford_step,
    compile_reversed,
    sin_branch_bits,
    stabilizer_input_sum,
)
from .backprop import BranchAssignment, COS, PASSTHROUGH, SIN
from .circuits import ANGLE_TOLERANCE, Circuit, PauliRotation
from .pauli import (
    CliffordGate,
    PauliString,
    expectation_on_stabilizer_input,
)

__all__ = [
    "TruncationPolicy",
    "PathCoefficient",
    "PauliPath",
    "enumerate_paths",
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
        if self.min_coefficient < 0:
            raise ValueError("min_coefficient must be >= 0")
        if self.max_order is None and self.min_coefficient <= 0:
            raise ValueError(
                "policy must bound order, coefficient, or both; "
                "use order(k) with k >= K for an untruncated run")

    @classmethod
    def order(cls, k_t: int) -> "TruncationPolicy":
        return cls(max_order=k_t)

    @classmethod
    def coefficient(cls, epsilon: float) -> "TruncationPolicy":
        if epsilon <= 0:
            raise ValueError("coefficient policy requires epsilon > 0")
        return cls(max_order=None, min_coefficient=epsilon)

    @classmethod
    def hybrid(cls, k_t: int, epsilon: float) -> "TruncationPolicy":
        if epsilon <= 0:
            raise ValueError("hybrid policy requires epsilon > 0")
        return cls(max_order=k_t, min_coefficient=epsilon)

    @property
    def mode(self) -> str:
        if self.max_order is None:
            return "coefficient"
        return "hybrid" if self.min_coefficient > 0 else "order"


@dataclass(frozen=True)
class PathCoefficient:
    """Trigonometric weight of one path: product over taken branches."""

    value: float
    order: int
    sin_indices: frozenset[int]
    cos_indices: frozenset[int]


@dataclass(frozen=True)
class PauliPath:
    """One fully decided path with its weight, frame and exact expectation."""

    branches: BranchAssignment
    coeff: PathCoefficient
    frame: PauliString
    ideal_expectation: int
    path_id: str


def _path_id(codes: str) -> str:
    return hashlib.sha256(codes.encode("ascii")).hexdigest()[:16]


def _check_enumerable(circuit: Circuit, observable: PauliString) -> None:
    if observable.num_qubits != circuit.num_qubits:
        raise ValueError("observable size does not match circuit")
    for j, _, op in circuit.rotations():
        if abs(op.angle) > math.pi / 4 + 1e-9 or abs(op.angle) <= ANGLE_TOLERANCE:
            raise ValueError(
                f"rotation {j} at angle {op.angle} is outside (-pi/4, pi/4]; "
                "run normalize_rotations first")


def enumerate_paths(circuit: Circuit, observable: PauliString,
                    policy: TruncationPolicy, *,
                    keep_zero_expectation: bool = False,
                    _forced: str = "") -> Iterator[PauliPath]:
    """Stream surviving paths depth-first, cosine branch first.

    The circuit must be normalized (every rotation in (-pi/4, pi/4], sine
    nonzero) so that pruning on partial coefficients is monotone.  Paths
    whose final frame has zero expectation on the input state are skipped
    unless ``keep_zero_expectation`` is set; they still matter for the
    coefficient power sum, not for execution.

    Memory is bounded by the branch depth of the current path, never by the
    number of surviving paths.  ``_forced`` is internal: a c/s prefix pinning
    the first branch decisions, used to shard the tree across workers.
    """
    _check_enumerable(circuit, observable)
    steps, num_rotations = compile_reversed(circuit)
    max_order = policy.max_order
    epsilon = policy.min_coefficient
    input_kind = circuit.input_kind
    n = circuit.num_qubits
    total = len(steps)

    # Stack entries resume the walk just after a sine branch was taken.
    stack = [(0, observable.x, observable.z, observable.sign, 1.0, 0,
              [], 0)]
    while stack:
        pos, x, z, sign, coeff, order, decisions, depth = stack.pop()
        dead = False
        while pos < total:
            step = steps[pos]
            pos += 1
            if step[0] != STEP_ROTATION:
                x, z, sign = apply_clifford_step(step, x, z, sign)
                continue
            _, j, gx, gz, cos_t, sin_t = step
            if not anticommutes_bits(gx, gz, x, z):
                decisions.append((j, PASSTHROUGH))
                continue
            forced = _forced[depth] if depth < len(_forced) else None
            depth += 1
            sin_coeff = coeff * sin_t
            take_sin = (
                forced != "c"
                and (max_order is None or order < max_order)
                and abs(sin_coeff) >= epsilon
            )
            take_cos = forced != "s"
            if take_cos:
                if take_sin:
                    nx, nz, nsign = sin_branch_bits(gx, gz, x, z, sign)
                    stack.append((pos, nx, nz, nsign, sin_coeff, order + 1,
                                  decisions + [(j, SIN)], depth))
                coeff *= cos_t
                decisions.append((j, COS))
                if abs(coeff) < epsilon:
                    dead = True
                    break
            elif take_sin:
                x, z, sign = sin_branch_bits(gx, gz, x, z, sign)
                coeff = sin_coeff
                order += 1
                decisions.append((j, SIN))
            else:
                dead = True
                break
        if dead:
            continue
        frame = PauliString(n, x, z, sign)
        ideal = expectation_on_stabilizer_input(frame, input_kind)
        if ideal == 0 and not keep_zero_expectation:
            continue
        branches = BranchAssignment(tuple(decisions))
        yield PauliPath(
            branches=branches,
            coeff=PathCoefficient(
                value=coeff,
                order=order,
                sin_indices=frozenset(branches.sin_indices()),
                cos_indices=frozenset(branches.cos_indices()),
            ),
            frame=frame,
            ideal_expectation=ideal,
            path_id=_path_id(branches.codes(num_rotations)),
        )


def _collect_prefixes(circuit: Circuit, observable: PauliString,
                      policy: TruncationPolicy, depth: int) -> list[str]:
    """All c/s branch prefixes of the given depth that the policy allows."""
    prefixes: list[str] = []
    steps, _ = compile_reversed(circuit)
    max_order = policy.max_order
    epsilon = policy.min_coefficient
    total = len(steps)

    stack = [(0, observable.x, observable.z, observable.sign, 1.0, 0, "")]
    while stack:
        pos, x, z, sign, coeff, order, prefix = stack.pop()
        dead = False
        while pos < total:
            if len(prefix) >= depth:
                break
            step = steps[pos]
            pos += 1
            if step[0] != STEP_ROTATION:
                x, z, sign = apply_clifford_step(step, x, z, sign)
                continue
            _, j, gx, gz, cos_t, sin_t = step
            if not anticommutes_bits(gx, gz, x, z):
                continue
            sin_coeff = coeff * sin_t
            if (max_order is None or order < max_order) and abs(sin_coeff) >= epsilon:
                nx, nz, nsign = sin_branch_bits(gx, gz, x, z, sign)
                stack.append((pos, nx, nz, nsign, sin_coeff, order + 1,
                              prefix + "s"))
            coeff *= cos_t
            prefix += "c"
            if abs(coeff) < epsilon:
                # every descendant of a dead cosine spine is below epsilon too
                dead = True
                break
        if not dead:
            prefixes.append(prefix)
    return prefixes


def _enumerate_task(circuit, observable, policy, keep_zero, forced):
    return list(enumerate_paths(circuit, observable, policy,
                                keep_zero_expectation=keep_zero,
                                _forced=forced))


def enumerate_paths_parallel(circuit: Circuit, observable: PauliString,
                             policy: TruncationPolicy, *,
                             workers: int = 1,
                             keep_zero_expectation: bool = False) -> list[PauliPath]:
    """Enumerate across worker processes; result is sorted by path_id.

    Sharding fixes the first few branch decisions per task, so the result is
    a deterministic set regardless of scheduling; the sorted merge makes the
    output order reproducible.  ``workers=1`` runs inline and is bit-exact
    with the parallel result.
    """
    if workers <= 1:
        paths = list(enumerate_paths(circuit, observable, policy,
                                     keep_zero_expectation=keep_zero_expectation))
        return sorted(paths, key=lambda p: p.path_id)
    depth = max(1, math.ceil(math.log2(4 * workers)))
    prefixes = _collect_prefixes(circuit, observable, policy, depth)
    results: list[PauliPath] = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_enumerate_task, circuit, observable, policy,
                        keep_zero_expectation, prefix)
            for prefix in prefixes
        ]
        for future in futures:
            results.extend(future.result())
    return sorted(results, key=lambda p: p.path_id)


def classical_cpt_estimate(paths: Iterable[PauliPath]) -> float:
    """Sum of coefficient times ideal expectation, in path_id order.

    The fixed summation order plus exact accumulation makes the value
    independent of how the paths were produced.
    """
    ordered = sorted(paths, key=lambda p: p.path_id)
    return math.fsum(p.coeff.value * p.ideal_expectation for p in ordered)


def coefficient_power(paths: Iterable[PauliPath]) -> float:
    """Sum of squared coefficients over the given paths; bounded by 1.

    Over the full untruncated tree this sums to exactly 1 (each branch point
    splits unit weight into cos^2 + sin^2), so any truncated subset gives a
    value in [0, 1], monotone in the truncation order.
    """
    power = math.fsum(p.coeff.value ** 2 for p in paths)
    if power > 1.0 + 1e-9:
        raise AssertionError(f"coefficient power {power} exceeds 1")
    return min(power, 1.0)


def merged_bfs_cpt(circuit: Circuit, observable: PauliString, *,
                   max_terms: int, min_coefficient: float = 0.0) -> tuple[float, int]:
    """Breadth-first classical sum that merges identical frames.

    Walks the reversed circuit keeping a frame -> accumulated coefficient
    map.  After every gate, terms below ``min_coefficient`` are dropped and
    the map is capped to the ``max_terms`` largest coefficients (ties broken
    by the frame's text label, so the walk is deterministic).  Returns the
    final estimate and the peak term count.  Merging loses path identity,
    which is fine for a classical baseline and useless for seeding the
    quantum ensemble.
    """
    if observable.num_qubits != circuit.num_qubits:
        raise ValueError("observable size does not match circuit")
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    steps, _ = compile_reversed(circuit)
    n = circuit.num_qubits
    terms: dict[tuple[int, int], float] = {(observable.x, observable.z): float(observable.sign)}
    peak = len(terms)

    for step in steps:
        new_terms: dict[tuple[int, int], float] = {}
        if step[0] == STEP_ROTATION:
            _, j, gx, gz, cos_t, sin_t = step
            for (x, z), value in terms.items():
                if anticommutes_bits(gx, gz, x, z):
                    key = (x, z)
                    new_terms[key] = new_terms.get(key, 0.0) + value * cos_t
                    nx, nz, nsign = sin_branch_bits(gx, gz, x, z, 1)
                    key = (nx, nz)
                    new_terms[key] = new_terms.get(key, 0.0) + value * sin_t * nsign
                else:
                    new_terms[(x, z)] = new_terms.get((x, z), 0.0) + value
        else:
            for (x, z), value in terms.items():
                nx, nz, nsign = apply_clifford_step(step, x, z, 1)
                new_terms[(nx, nz)] = new_terms.get((nx, nz), 0.0) + value * nsign
        if min_coefficient > 0.0:
            new_terms = {k: v for k, v in new_terms.items()
                         if abs(v) >= min_coefficient}
        if len(new_terms) > max_terms:
            ranked = sorted(
                new_terms.items(),
                key=lambda item: (-abs(item[1]), _frame_label(item[0], n)),
            )
            new_terms = dict(ranked[:max_terms])
        terms = new_terms
        peak = max(peak, len(terms))

    return stabilizer_input_sum(terms, circuit.input_kind), peak


def _frame_label(key: tuple[int, int], num_qubits: int) -> str:
    x, z = key
    return PauliString(num_qubits, x, z).label()


def path_to_circuit(circuit: Circuit, branches: BranchAssignment) -> Circuit:
    """Realize one path as an executable circuit with the same gate slots.

    Sine decisions become quarter-turn rotations R_P(pi/2) (Clifford), cosine
    and passthrough decisions become zero-angle rotations (identity).  Every
    rotation keeps its slot in the op list, so a noise model that attaches
    errors per gate sees the same error locations as the original circuit.
    """
    lookup = branches.decisions()
    ops = []
    j = 0
    for op in circuit.ops:
        if isinstance(op, CliffordGate):
            ops.append(op)
            continue
        j += 1
        decision = lookup.get(j)
        if decision is None:
            raise ValueError(f"no branch decision for rotation {j}")
        angle = math.pi / 2 if decision == SIN else 0.0
        ops.append(PauliRotation(op.generator, angle))
    return Circuit(circuit.num_qubits, tuple(ops), circuit.input_kind)


def path_record(path: PauliPath) -> dict:
    """JSON-ready record for ensemble dumps."""
    return {
        "path_id": path.path_id,
        "order": path.coeff.order,
        "coefficient": path.coeff.value,
        "sin_indices": sorted(path.coeff.sin_indices),
        "frame": path.frame.label(),
        "ideal_expectation": path.ideal_expectation,
    }
