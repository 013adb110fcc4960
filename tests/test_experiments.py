"""Benchmark circuit generators: mirrors and trotterized evolution."""

import hashlib
import math

import numpy as np
import pytest

import quepp.statevector as sv
from quepp.backend import DEFAULT_MAX_TERMS, NoiseModel
from quepp.circuits import (is_clifford_equivalent, normalize_rotations,
                            serialize_circuit)
from quepp.engine import (TruncationPolicy, classical_cpt_estimate,
                          enumerate_paths_parallel)
from quepp.errors import ConfigError
from quepp.experiments import (CensusTargets, ExperimentSpec, circuit_manifest,
                               coupling_edges, generate_experiment,
                               generate_mirror, generate_trotter,
                               heavy_hex_edges)
from quepp.pauli import PauliString

from helpers import deadline, expectation_on_stabilizer_input, random_pauli
from oracles import _exact_noisy_mean


def mirror_spec(**overrides):
    base = dict(family="mirror2d", num_qubits=4, layers=3,
                rotation_angle=0.7, rng_seed=1, p_rx=0.5)
    base.update(overrides)
    return ExperimentSpec(**base)


def test_mirror_is_identity_on_any_observable():
    rng = np.random.default_rng(80)
    for family in ("mirror2d", "mirror1d"):
        for seed in (0, 1, 2):
            spec = mirror_spec(family=family, rng_seed=seed)
            c = generate_mirror(spec)
            assert sv.expectation(c, spec.resolved_observable()) == \
                pytest.approx(1.0, abs=1e-12)
            for _ in range(3):
                p = random_pauli(spec.num_qubits, rng)
                want = expectation_on_stabilizer_input(p, c.input_kind)
                assert sv.expectation(c, p) == pytest.approx(want, abs=1e-12)


def test_mirror_rotation_angles_mirror_in_sign():
    spec = mirror_spec(num_qubits=5, layers=4)
    c = generate_mirror(spec)
    angles = [op.angle for _, _, op in c.rotations()]
    assert len(angles) % 2 == 0
    half = len(angles) // 2
    assert all(a == spec.rotation_angle for a in angles[:half])
    assert all(a == -spec.rotation_angle for a in angles[half:])


def test_generation_is_deterministic():
    spec = mirror_spec()
    assert generate_mirror(spec).ops == generate_mirror(spec).ops
    other = generate_mirror(mirror_spec(rng_seed=99))
    assert other.ops != generate_mirror(spec).ops


def test_census_targets_are_hit_exactly():
    spec = ExperimentSpec(family="mirror2d", num_qubits=49, layers=16,
                          rng_seed=7, census=CensusTargets(cz=432, h=342,
                                                           rx=50))
    c = generate_experiment(spec)
    census = circuit_manifest(c)["census"]
    assert census["cz"] == 432
    assert census["h"] == 342
    assert census["rot"] == 50
    assert c.num_rotations == 50
    again = generate_experiment(spec)
    assert again.ops == c.ops
    # the CZ placement draws the slots it always drew
    assert hashlib.sha256(serialize_circuit(c).encode()).hexdigest() == \
        "80dec10fa0e3adc078af12b55bf63577d10c557f74825d1dc04ca5f9249f0211"


@pytest.mark.parametrize("seed", [0, 2, 6, 7, 31, 32, 50, 55])
def test_census_placement_starts_over_at_a_dead_end(seed):
    # at these seeds the first random greedy placement runs out of
    # edge-disjoint slots before it places all 7 forward CZs, though 7 fit
    spec = ExperimentSpec(family="mirror2d", num_qubits=6, layers=3,
                          rng_seed=seed,
                          coupling=((0, 1), (1, 2), (2, 3), (4, 5), (0, 5)),
                          census=CensusTargets(cz=14, h=4, rx=4))
    assert circuit_manifest(generate_experiment(spec))["census"]["cz"] == 14


def test_census_placement_is_linear_in_the_slots():
    # 16 CZs in each of 400 layers: rescanning every free slot per CZ
    # took seconds here
    spec = ExperimentSpec(family="mirror2d", num_qubits=49, layers=400,
                          rng_seed=7, census=CensusTargets(cz=12800, h=2,
                                                           rx=2))
    with deadline(2, "the 49-qubit, 400-layer census"):
        c = generate_experiment(spec)
    assert circuit_manifest(c)["census"]["cz"] == 12800


def test_census_circuit_runs_through_the_engine():
    # every rotation kept: the path sum is the exact expectation
    spec = ExperimentSpec(family="mirror2d", num_qubits=4, layers=2,
                          rotation_angle=0.4, rng_seed=1,
                          census=CensusTargets(cz=4, h=4, rx=2))
    c = normalize_rotations(generate_experiment(spec))
    observable = spec.resolved_observable()
    paths = enumerate_paths_parallel(c, observable, TruncationPolicy.order(2))
    assert math.isclose(classical_cpt_estimate(paths.executed),
                        sv.expectation(c, observable), abs_tol=1e-12)


def test_census_validation():
    with pytest.raises(ConfigError):
        CensusTargets(cz=3, h=2, rx=2)
    with pytest.raises(ConfigError):
        CensusTargets(cz=-2, h=2, rx=2)
    with pytest.raises(ConfigError):
        mirror_spec(family="mirror1d", census=CensusTargets(2, 2, 2))
    # more CZs than edge-disjoint slots on a 2-qubit chain
    spec = ExperimentSpec(family="mirror2d", num_qubits=2, layers=1,
                          coupling="chain", census=CensusTargets(cz=4, h=0,
                                                                 rx=0))
    with pytest.raises(ConfigError):
        generate_mirror(spec)
    # more single-qubit gates than slots
    spec = ExperimentSpec(family="mirror2d", num_qubits=2, layers=1,
                          census=CensusTargets(cz=0, h=6, rx=0))
    with pytest.raises(ConfigError):
        generate_mirror(spec)
    spec = ExperimentSpec(family="mirror2d", num_qubits=2, layers=0,
                          census=CensusTargets(cz=0, h=0, rx=0))
    with pytest.raises(ConfigError):
        generate_mirror(spec)


def test_trotter_structure():
    n, layers = 6, 3
    spec = ExperimentSpec(family="trotter", num_qubits=n, layers=layers,
                          rotation_angle=0.4)
    c = generate_trotter(spec)
    for q in range(n):
        op = c.ops[q]
        assert op.kind == "h" and op.qubits == (q,)
    assert c.num_rotations == n * layers
    assert all(op.angle == 0.4 for _, _, op in c.rotations())
    census = circuit_manifest(c)["census"]
    assert census["h"] == n
    assert census["sx"] == layers * (len(range(1, n, 2)) + len(range(3, n, 2)))
    # even plus odd brickwork pairs cover n - 1 edges, each applied twice
    assert census["cz"] == layers * 2 * (n - 1)
    assert spec.resolved_observable() == PauliString.from_label("X" * n)


def test_trotter_clifford_points():
    spec = ExperimentSpec(family="trotter", num_qubits=4, layers=2)
    for theta in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2):
        c = generate_trotter(spec.with_angle(theta))
        assert is_clifford_equivalent(c)
        norm = normalize_rotations(c)
        obs = spec.resolved_observable()
        got = _exact_noisy_mean(norm, obs, NoiseModel.noiseless(),
                                DEFAULT_MAX_TERMS, 0)
        assert got == pytest.approx(sv.expectation(c, obs), abs=1e-12)
    assert not is_clifford_equivalent(generate_trotter(spec.with_angle(0.4)))


def test_trotter_needs_two_qubits():
    with pytest.raises(ConfigError):
        generate_trotter(ExperimentSpec(family="trotter", num_qubits=1,
                                        layers=1))
    with pytest.raises(ConfigError):
        generate_trotter(mirror_spec())
    with pytest.raises(ConfigError):
        generate_mirror(ExperimentSpec(family="trotter", num_qubits=2,
                                       layers=1))


def test_heavy_hex_edges_shape():
    n = 49
    edges = heavy_hex_edges(n)
    degree = [0] * n
    assert len(set(edges)) == len(edges)
    for a, b in edges:
        assert 0 <= a < b < n
        degree[a] += 1
        degree[b] += 1
    assert max(degree) <= 3


def test_coupling_defaults_and_normalization():
    chain = coupling_edges(ExperimentSpec(family="mirror1d", num_qubits=4,
                                          layers=1))
    assert chain == ((0, 1), (1, 2), (2, 3))
    hexish = coupling_edges(ExperimentSpec(family="mirror2d", num_qubits=9,
                                           layers=1))
    assert hexish == heavy_hex_edges(9)
    custom = coupling_edges(mirror_spec(coupling=((2, 0), (0, 2), (1, 3))))
    assert custom == ((0, 2), (1, 3))
    with pytest.raises(ConfigError):
        coupling_edges(mirror_spec(coupling=((0, 9),)))
    with pytest.raises(ConfigError):
        coupling_edges(mirror_spec(coupling=((1, 1),)))


def test_spec_validation():
    with pytest.raises(ConfigError):
        ExperimentSpec(family="ladder", num_qubits=2, layers=1)
    with pytest.raises(ConfigError):
        ExperimentSpec(family="mirror2d", num_qubits=0, layers=1)
    with pytest.raises(ConfigError):
        ExperimentSpec(family="mirror2d", num_qubits=2, layers=-1)
    with pytest.raises(ConfigError):
        mirror_spec(observable=PauliString.from_label("Z"))
    with pytest.raises(ConfigError):
        mirror_spec(p_rx=1.5)
    # json.load reads NaN and Infinity; no rotation takes them
    for angle in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError):
            mirror_spec(rotation_angle=angle)
        with pytest.raises(ConfigError):
            mirror_spec(sweep=(0.3, angle))


def test_spec_defaults_and_with_angle():
    spec = mirror_spec()
    assert spec.resolved_observable() == PauliString.from_label("ZIII")
    explicit = mirror_spec(observable=PauliString.from_label("XXII"))
    assert explicit.resolved_observable() == PauliString.from_label("XXII")
    swept = spec.with_angle(0.25)
    assert swept.rotation_angle == 0.25
    assert swept.rng_seed == spec.rng_seed
    assert swept.family == spec.family


def test_manifest_shape():
    c = generate_mirror(mirror_spec())
    manifest = circuit_manifest(c)
    assert set(manifest) == {"num_qubits", "input_kind", "census",
                             "num_rotations", "angles"}
    assert manifest["num_qubits"] == 4
    assert len(manifest["angles"]) == manifest["num_rotations"]
