"""Circuit families for the two benchmark experiments.

Mirror circuits: a seeded random forward circuit F over a fixed gate
alphabet (single-qubit Cliffords, edge-disjoint CZ layers on a coupling
graph, sparse RX rotations) followed by its exact inverse.  The net unitary
is the identity, so every Pauli observable's ideal expectation equals its
expectation on the input state: a known answer at any width and depth,
which is what makes mirrors useful noise benchmarks.

Trotterized evolution: a fixed brickwork layer of CZ entanglers, SX gates
on odd sites and an RX(theta) rotation on every qubit, repeated; the state
is prepared in |+...+> by an explicit initial H on every qubit.  Sweeping
theta moves the circuit between Clifford points (theta a multiple of pi/2)
and maximally non-Clifford points.

Both generators are pure functions of (spec, seed).
"""

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Optional, Union

import numpy as np

from .circuits import Circuit, PauliRotation, inverse_circuit
from .errors import CapabilityError, ConfigError
from .pauli import GATE_KINDS, CliffordGate, PauliString

__all__ = [
    "ExperimentSpec",
    "CensusTargets",
    "FAMILIES",
    "coupling_edges",
    "heavy_hex_edges",
    "generate_mirror",
    "generate_trotter",
    "generate_experiment",
    "circuit_manifest",
]

FAMILIES = ("mirror2d", "mirror1d", "trotter")

_FAMILY_1Q = {"mirror2d": ("h",), "mirror1d": ("h", "s", "sdg")}

Edges = tuple[tuple[int, int], ...]

# random greedy CZ placements a census tries before it refuses its CZ count
_CZ_PLACEMENTS = 8


@dataclass(frozen=True)
class CensusTargets:
    """Exact full-circuit gate counts for a mirror generator.

    Counts are for the complete mirror (forward plus inverse), so each must
    be even; the forward half places exactly half of each.
    """

    cz: int
    h: int
    rx: int

    def __post_init__(self):
        for name, value in (("cz", self.cz), ("h", self.h), ("rx", self.rx)):
            if value < 0 or value % 2:
                raise ConfigError(f"census target {name}={value} must be "
                                  "even and >= 0 (the inverse mirrors it)")


@dataclass(frozen=True)
class ExperimentSpec:
    """Parameters for one generated circuit.

    ``layers`` counts forward layers for mirrors (the full circuit has
    twice that depth) and repetitions for the trotter family.  When
    ``observable`` is omitted, mirrors measure Z on qubit 0 and trotter
    measures X on every qubit.
    """

    family: str
    num_qubits: int
    layers: int
    rotation_angle: float = math.pi / 5
    rng_seed: int = 0
    observable: Optional[PauliString] = None
    coupling: Union[str, Edges, None] = None
    p_single: float = 0.5
    p_cz: float = 0.5
    p_rx: float = 0.1
    census: Optional[CensusTargets] = None
    sweep: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}")
        if self.num_qubits < 1:
            raise ConfigError("num_qubits must be >= 1")
        if self.layers < 0:
            raise ConfigError("layers must be >= 0")
        if self.rng_seed < 0:
            raise ConfigError("rng_seed must be >= 0")
        if isinstance(self.coupling, str) \
                and self.coupling not in ("chain", "heavy_hex"):
            raise ConfigError(f"unknown coupling {self.coupling!r}")
        if self.census is not None and self.family != "mirror2d":
            raise ConfigError("census targets are defined for mirror2d only")
        if self.observable is not None \
                and self.observable.num_qubits != self.num_qubits:
            raise ConfigError("observable size does not match num_qubits")
        if not all(map(math.isfinite, (self.rotation_angle,
                                       *(self.sweep or ())))):
            raise ConfigError("rotation angles must be finite")
        for name in ("p_single", "p_cz", "p_rx"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be a probability")

    def resolved_observable(self) -> PauliString:
        if self.observable is not None:
            return self.observable
        n = self.num_qubits
        if self.family == "trotter":
            return PauliString.from_label("X" * n)
        return PauliString.from_label("Z" + "I" * (n - 1))

    def with_angle(self, theta: float) -> "ExperimentSpec":
        return replace(self, rotation_angle=theta)


def heavy_hex_edges(num_qubits: int, width: int = 7) -> Edges:
    """Grid rows with sparse alternating rungs, degree-limited like a
    heavy-hex map (approximate topology, not a transcription)."""
    edges = []
    for q in range(num_qubits):
        row, col = divmod(q, width)
        if col + 1 < width and q + 1 < num_qubits:
            edges.append((q, q + 1))
        if q + width < num_qubits:
            # rung columns alternate between row gaps
            if col % 4 == (0 if row % 2 == 0 else 2):
                edges.append((q, q + width))
    return tuple(edges)


def coupling_edges(spec: ExperimentSpec) -> Edges:
    coupling = spec.coupling
    if coupling is None:
        coupling = "heavy_hex" if spec.family == "mirror2d" else "chain"
    if coupling == "chain":
        return tuple((i, i + 1) for i in range(spec.num_qubits - 1))
    if coupling == "heavy_hex":
        return heavy_hex_edges(spec.num_qubits)
    edges = []
    for a, b in coupling:
        if not (0 <= a < spec.num_qubits and 0 <= b < spec.num_qubits) or a == b:
            raise ConfigError(f"bad coupling edge ({a}, {b})")
        edges.append((min(a, b), max(a, b)))
    return tuple(sorted(set(edges)))


def _x_generator(q: int, n: int) -> PauliString:
    return PauliString(n, x=1 << q, z=0)


def _forward_mirror_iid(spec: ExperimentSpec, edges: Edges,
                        rng: "np.random.Generator") -> list:
    n = spec.num_qubits
    kinds = _FAMILY_1Q[spec.family]
    ops = []
    for _ in range(spec.layers):
        singles = rng.random(n)
        picks = rng.integers(0, len(kinds), size=n)
        for q in range(n):
            if singles[q] < spec.p_single:
                ops.append(CliffordGate(kinds[picks[q]], (q,)))
        used: set[int] = set()
        for index in rng.permutation(len(edges)):
            a, b = edges[index]
            if a in used or b in used:
                continue
            if rng.random() < spec.p_cz:
                used.add(a)
                used.add(b)
                ops.append(CliffordGate("cz", (a, b)))
        rotations = rng.random(n)
        for q in range(n):
            if rotations[q] < spec.p_rx:
                ops.append(PauliRotation(_x_generator(q, n), spec.rotation_angle))
    return ops


def _forward_mirror_census(spec: ExperimentSpec, edges: Edges,
                           rng: "np.random.Generator") -> list:
    n = spec.num_qubits
    layers = spec.layers
    if layers == 0:
        raise ConfigError("census targets need at least one layer")
    census = spec.census
    h_forward = census.h // 2
    cz_forward = census.cz // 2
    rx_forward = census.rx // 2

    slot_count = layers * n
    if h_forward > slot_count or rx_forward > slot_count:
        raise ConfigError("census exceeds available single-qubit slots")
    # as Python ints: a numpy qubit index breaks the walk's bit arithmetic
    h_slots = rng.choice(slot_count, size=h_forward, replace=False).tolist()
    rx_slots = rng.choice(slot_count, size=rx_forward, replace=False).tolist()
    h_by_layer: list[list[int]] = [[] for _ in range(layers)]
    rx_by_layer: list[list[int]] = [[] for _ in range(layers)]
    for slot in h_slots:
        h_by_layer[slot // n].append(slot % n)
    for slot in rx_slots:
        rx_by_layer[slot // n].append(slot % n)

    # place CZs one at a time, uniformly over slots still edge-disjoint: the
    # k-th free (layer, edge) slot, layer-major and in edge order; a
    # placement that runs out of slots starts over, the rng drawing on
    for _ in range(_CZ_PLACEMENTS):
        free = [list(edges) for _ in range(layers)]
        cz_by_layer: list[list[tuple[int, int]]] = [[] for _ in range(layers)]
        for _ in range(cz_forward):
            starts = [0, *accumulate(map(len, free))]
            if not starts[-1]:
                break
            k = rng.integers(starts[-1])
            layer = bisect_right(starts, k) - 1
            a, b = edge = free[layer][k - starts[layer]]
            free[layer] = [e for e in free[layer] if a not in e and b not in e]
            cz_by_layer[layer].append(edge)
        else:
            break
    else:
        raise ConfigError(
            f"census CZ count infeasible: no edge-disjoint placement of "
            f"{cz_forward} forward CZs in {_CZ_PLACEMENTS} tries")

    ops = []
    for layer in range(layers):
        for q in sorted(h_by_layer[layer]):
            ops.append(CliffordGate("h", (q,)))
        for edge in sorted(cz_by_layer[layer]):
            ops.append(CliffordGate("cz", edge))
        for q in sorted(rx_by_layer[layer]):
            ops.append(PauliRotation(_x_generator(q, n), spec.rotation_angle))
    return ops


def generate_mirror(spec: ExperimentSpec) -> Circuit:
    """Forward random circuit followed by its exact inverse."""
    if spec.family not in ("mirror2d", "mirror1d"):
        raise ConfigError(f"{spec.family} is not a mirror family")
    edges = coupling_edges(spec)
    rng = np.random.default_rng(np.random.SeedSequence(spec.rng_seed))
    if spec.census is not None:
        forward_ops = _forward_mirror_census(spec, edges, rng)
    else:
        forward_ops = _forward_mirror_iid(spec, edges, rng)
    forward = Circuit(spec.num_qubits, tuple(forward_ops))
    backward = inverse_circuit(forward)
    return Circuit(spec.num_qubits, forward.ops + backward.ops)


def generate_trotter(spec: ExperimentSpec) -> Circuit:
    """H on all qubits, then ``layers`` repetitions of the brickwork layer:
    even CZs, SX on odd sites, even CZs, RX(theta) everywhere, odd CZs,
    SX on odd sites from 3 up, odd CZs."""
    if spec.family != "trotter":
        raise ConfigError(f"{spec.family} is not the trotter family")
    n = spec.num_qubits
    if n < 2:
        raise ConfigError("trotter needs at least 2 qubits")
    theta = spec.rotation_angle
    even_pairs = [(i, i + 1) for i in range(0, n - 1, 2)]
    odd_pairs = [(i, i + 1) for i in range(1, n - 1, 2)]
    sx_from_1 = [i for i in range(1, n, 2)]
    sx_from_3 = [i for i in range(3, n, 2)]

    ops: list = [CliffordGate("h", (q,)) for q in range(n)]
    for _ in range(spec.layers):
        ops.extend(CliffordGate("cz", e) for e in even_pairs)
        ops.extend(CliffordGate("sx", (q,)) for q in sx_from_1)
        ops.extend(CliffordGate("cz", e) for e in even_pairs)
        ops.extend(PauliRotation(_x_generator(q, n), theta) for q in range(n))
        ops.extend(CliffordGate("cz", e) for e in odd_pairs)
        ops.extend(CliffordGate("sx", (q,)) for q in sx_from_3)
        ops.extend(CliffordGate("cz", e) for e in odd_pairs)
    return Circuit(n, tuple(ops))


# num_qubits x layers: about 100 times mirror2d at 49 qubits, 20 layers
MAX_GENERATED_SIZE = 10 ** 5


def generate_experiment(spec: ExperimentSpec) -> Circuit:
    if spec.num_qubits * max(spec.layers, 1) > MAX_GENERATED_SIZE:
        raise CapabilityError("num_qubits x layers is above the generation "
                              f"ceiling {MAX_GENERATED_SIZE}")
    if spec.family == "trotter":
        return generate_trotter(spec)
    return generate_mirror(spec)


def circuit_manifest(circuit: Circuit) -> dict:
    """Gate census (counts per Clifford kind and a ``rot`` bucket), rotation
    count and angle list, from one pass over the ops: the generate
    artifact."""
    census, angles = dict.fromkeys(GATE_KINDS, 0), []
    for op in circuit.ops:
        if isinstance(op, CliffordGate):
            census[op.kind] += 1
        else:
            angles.append(op.angle)
    census["rot"] = len(angles)
    return {"num_qubits": circuit.num_qubits, "input_kind": circuit.input_kind,
            "census": census, "num_rotations": len(angles), "angles": angles}
