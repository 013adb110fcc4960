"""The rotation-only compile: every Clifford pushed through once.

``compile_circuit`` is checked against one-gate-at-a-time conjugation
through ``op_step`` (itself checked against dense unitaries in
``test_pauli``), and the walks
built on it against the op-by-op reference walk ``backpropagate``.
"""

import math

import numpy as np
import pytest

import quepp._walk
import quepp.engine
import quepp.sampler
from quepp._walk import (compile_circuit, compile_walk, path_of,
                         sin_branch_bits, tableau_image)
from quepp.circuits import Circuit, PauliRotation, normalize_rotations
from quepp.engine import TruncationPolicy, enumerate_paths_parallel
from quepp.errors import ConsistencyError
from quepp.experiments import ExperimentSpec, generate_experiment
from quepp.pauli import GATE_KINDS, CliffordGate, PauliString
from quepp.sampler import (D_POSTSELECTED, D_TILDE, SamplerConfig,
                           _walks, build_ensemble)

from helpers import conjugate, random_circuit, wide_pauli
from oracles import anticommutes_bits, backpropagate, paths_oracle


def pushed_through(p, gates):
    """D^dag p D for the gates D applied in list order, one gate at a time."""
    for gate in reversed(gates):
        p = conjugate(p, gate)
    return p


def image(tableau, p):
    return PauliString(p.num_qubits, *tableau_image(tableau, p.x, p.z, p.sign))


@pytest.mark.parametrize("kind", GATE_KINDS)
def test_one_gate_tableau_is_its_conjugation(kind):
    n = 3
    qubits = (2, 0) if kind in ("cx", "cz") else (1,)
    gate = CliffordGate(kind, qubits)
    steps, (_, tableau), _ = compile_circuit(Circuit(n, (gate,)))
    assert steps == ()
    for x in range(1 << n):
        for z in range(1 << n):
            for sign in (1, -1):
                p = PauliString(n, x, z, sign)
                assert image(tableau, p) == conjugate(p, gate)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 70])
def test_tableau_matches_repeated_conjugation(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(4):
        circuit = random_circuit(n, 60, 0, rng)
        gates = list(circuit.ops)
        steps, tableaux, _ = compile_circuit(circuit)
        tableau = tableaux[-1]
        assert steps == ()
        for _ in range(10):
            p = wide_pauli(n, rng)
            assert image(tableau, p) == pushed_through(p, gates)


@pytest.mark.parametrize("n", [1, 4, 9, 70])
def test_rotation_entries_are_generators_pushed_through_earlier_cliffords(n):
    rng = np.random.default_rng(200 + n)
    circuit = random_circuit(n, 80, 12, rng, rotation_weight=3)
    expected = []
    gates = []
    for op in circuit.ops:
        if isinstance(op, CliffordGate):
            gates.append(op)
            continue
        gen = pushed_through(op.generator, gates)
        expected.append((gen.x, gen.z, gen.sign,
                         math.cos(op.angle), math.sin(op.angle)))
    steps, _, _ = compile_circuit(circuit)
    assert tuple(step[:5] for step in steps) == tuple(reversed(expected))


@pytest.mark.parametrize("n", [1, 3, 9, 70])
def test_every_op_records_its_prefix_tableau(n):
    # T_l maps the op-by-op frame after the first l ops to the compiled frame
    rng = np.random.default_rng(250 + n)
    circuit = random_circuit(n, 60, 12, rng, rotation_weight=3)
    _, tableaux, _ = compile_circuit(circuit)
    assert len(tableaux) == len(circuit.ops) + 1
    gates = []
    for op, prefix in zip((None,) + circuit.ops, tableaux):
        if isinstance(op, CliffordGate):
            gates.append(op)
        for _ in range(3):
            p = wide_pauli(n, rng)
            assert image(prefix, p) == pushed_through(p, gates)


@pytest.mark.parametrize("n", [1, 2, 9, 64, 65, 70])
def test_walk_masks_are_the_pairwise_commutations(n):
    rng = np.random.default_rng(50 + n)
    c = normalize_rotations(random_circuit(n, 60, 20, rng, rotation_weight=3))
    obs = wide_pauli(n, rng)
    steps, (x, z, _, anti) = compile_walk(c, obs)
    for j, (gx, gz, *_, flips) in enumerate(steps):
        assert (anti >> j & 1) == anticommutes_bits(gx, gz, x, z)
        # only the rotations after j, which a walk past j can still meet
        assert flips == sum(anticommutes_bits(gx, gz, hx, hz) << k
                            for k, (hx, hz, *_) in enumerate(steps) if k > j)
    assert anti >> len(steps) == 0


@pytest.mark.parametrize("input_kind", ["all_zero", "all_plus"])
def test_rotation_walks_reproduce_the_reference_frames(input_kind):
    rng = np.random.default_rng(31 if input_kind == "all_zero" else 32)
    policies = (TruncationPolicy.order(3),
                TruncationPolicy(min_coefficient=0.05),
                TruncationPolicy(2, 0.02))
    checked = 0
    for trial, n in enumerate([1, 2, 3, 5, 7, 9, 70]):
        c = normalize_rotations(random_circuit(
            n, 120, 7, rng, input_kind=input_kind, rotation_weight=3))
        obs = wide_pauli(n, rng)
        k = c.num_rotations
        paths = [p for policy in policies
                 for p in paths_oracle(c, obs, policy)]
        for distribution in (D_TILDE, D_POSTSELECTED):
            sampled, _ = build_ensemble(c, obs, SamplerConfig(
                target_unique_paths=8, max_attempts=64,
                distribution=distribution, rng_seed=trial))
            paths.extend(sampled)
        for p in paths:
            assert len(p.codes) == k
            frame = backpropagate(c, obs, p.codes)
            assert frame == p.frame
            assert p.ideal_expectation == (
                frame.sign if (frame.z if input_kind == "all_plus"
                               else frame.x) == 0 else 0)
            checked += 1
    assert checked > 100


def test_sample_path_compiles_once_per_circuit():
    c = normalize_rotations(random_circuit(4, 200, 10, np.random.default_rng(8)))
    obs = PauliString.from_label("ZIXI")
    rng = np.random.default_rng(9)

    def draw(circuit):
        steps, start = compile_walk(circuit, obs)
        return path_of(steps, start,
                       next(_walks(steps, start, rng.random, False))[0])

    compile_circuit.cache_clear()
    for _ in range(20):
        draw(c)
    # an equal circuit built anew shares the compiled form
    draw(Circuit(c.num_qubits, c.ops, c.input_kind))
    info = compile_circuit.cache_info()
    assert (info.misses, info.hits) == (1, 20)


def test_replay_rejects_a_mask_that_claims_a_commuting_generator():
    # Z with Z commutes; a start mask marking the Z rotation anticommuting
    # would make its sine branch carry an imaginary phase
    c = Circuit(1, (PauliRotation(PauliString.from_label("Z"), 0.3),))
    steps, start = compile_walk(c, PauliString.from_label("Z"))
    assert start[3] == 0 and path_of(steps, start, 1)[0] == "p"
    claimed = (*start[:3], 1)
    assert path_of(steps, claimed, 0)[0] == "c"
    with pytest.raises(ConsistencyError):
        path_of(steps, claimed, 1)


def test_branching_walks_build_signs_only_for_paths_they_build(monkeypatch):
    # the walks carry unsigned frames; a sine branch's sign is computed only
    # when a kept path is replayed, once per sine code of the paths built
    calls = []

    def spy(*args):
        calls.append(args)
        return sin_branch_bits(*args)

    for module in (quepp._walk, quepp.engine, quepp.sampler):
        if hasattr(module, "sin_branch_bits"):
            monkeypatch.setattr(module, "sin_branch_bits", spy)
    spec = ExperimentSpec(family="mirror1d", num_qubits=6, layers=6,
                          rotation_angle=0.6, rng_seed=11, p_rx=0.3)
    c = normalize_rotations(generate_experiment(spec))
    obs = spec.resolved_observable()
    paths, report = build_ensemble(c, obs, SamplerConfig(400, 400))
    assert report.zero_expectation and report.accepted > report.unique
    assert len(calls) == sum(p.order for p in paths) > 0

    policy = TruncationPolicy.order(3)
    calls.clear()
    paths = enumerate_paths_parallel(c, obs, policy)
    assert len(paths) > len(paths.executed)
    assert len(calls) == sum(p.order for p in paths.executed) > 0
    # the zero-ideal paths it counts but does not build have sine codes too
    stream = list(paths_oracle(c, obs, policy))
    assert sum(p.order for p in stream if not p.ideal_expectation)
