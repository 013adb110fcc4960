"""Path enumeration, truncation, and the merged breadth-first sum."""

import itertools
import math

import numpy as np
import pytest

import quepp.statevector as sv
from quepp.backend import ExecutionPlan, NoiseModel, TrajectorySimulator
from quepp.circuits import Circuit, PauliRotation, normalize_rotations
from quepp.engine import (PauliPath, TruncationPolicy, classical_cpt_estimate,
                          coefficient_power, enumerate_paths,
                          enumerate_paths_parallel, merged_bfs_budgets,
                          merged_bfs_cpt, path_record, path_to_circuit)
from quepp.errors import ConsistencyError
from quepp.pauli import CliffordGate, PauliString
from quepp._walk import sin_branch_bits

from helpers import random_circuit, single_site_observable
from oracles import merged_bfs_oracle


def untruncated(circuit):
    return TruncationPolicy.order(circuit.num_rotations)


def enumerate_all(circuit, observable):
    return list(enumerate_paths(circuit, observable, untruncated(circuit)))


def test_untruncated_sum_matches_statevector():
    rng = np.random.default_rng(21)
    for trial in range(25):
        n = int(rng.integers(2, 7))
        kind = "all_plus" if trial % 3 == 0 else "all_zero"
        c = random_circuit(n, 12, int(rng.integers(1, 7)), rng, input_kind=kind)
        obs = single_site_observable(n, rng)
        norm = normalize_rotations(c)
        paths = enumerate_all(norm, obs)
        estimate = classical_cpt_estimate(paths)
        assert estimate == pytest.approx(sv.expectation(c, obs), abs=1e-10)


def test_coefficient_power_sums_to_one():
    rng = np.random.default_rng(22)
    for _ in range(15):
        n = int(rng.integers(2, 5))
        c = normalize_rotations(random_circuit(n, 10, 4, rng))
        obs = single_site_observable(n, rng)
        paths = enumerate_all(c, obs)
        assert coefficient_power(paths) == pytest.approx(1.0, abs=1e-12)


def test_cos_branch_emitted_first():
    c = Circuit(1, (CliffordGate("h", (0,)),
                    PauliRotation(PauliString(1, 1, 0), 0.3)))
    paths = enumerate_all(c, PauliString.from_label("Z"))
    assert paths[0].codes == "c"
    assert paths[1].codes == "s"


def test_order_truncation_prunes_by_sin_count():
    rng = np.random.default_rng(23)
    c = normalize_rotations(random_circuit(3, 12, 6, rng))
    obs = single_site_observable(3, rng)
    for k_t in range(c.num_rotations + 1):
        paths = list(enumerate_paths(c, obs, TruncationPolicy.order(k_t)))
        assert all(p.order <= k_t for p in paths)
    full = {p.path_id for p in enumerate_all(c, obs)}
    truncated = {p.path_id
                 for p in enumerate_paths(c, obs, TruncationPolicy.order(1))}
    assert truncated <= full


def test_coefficient_truncation_prunes_by_magnitude():
    rng = np.random.default_rng(24)
    c = normalize_rotations(random_circuit(3, 12, 6, rng))
    obs = single_site_observable(3, rng)
    eps = 0.05
    paths = list(enumerate_paths(c, obs, TruncationPolicy.coefficient(eps)))
    assert all(abs(p.coeff) >= eps for p in paths)
    full = enumerate_all(c, obs)
    want = {p.path_id for p in full if abs(p.coeff) >= eps}
    assert {p.path_id for p in paths} == want


def test_hybrid_policy_applies_both():
    rng = np.random.default_rng(25)
    c = normalize_rotations(random_circuit(3, 12, 6, rng))
    obs = single_site_observable(3, rng)
    policy = TruncationPolicy.hybrid(2, 0.05)
    paths = list(enumerate_paths(c, obs, policy))
    assert all(p.order <= 2 and abs(p.coeff) >= 0.05
               for p in paths)


def test_policy_validation():
    with pytest.raises(ValueError):
        TruncationPolicy(max_order=None, min_coefficient=0.0)
    with pytest.raises(ValueError):
        TruncationPolicy.order(-1)
    with pytest.raises(ValueError):
        TruncationPolicy.coefficient(0.0)
    assert TruncationPolicy.order(3).mode == "order"
    assert TruncationPolicy.coefficient(1e-3).mode == "coefficient"
    assert TruncationPolicy.hybrid(3, 1e-3).mode == "hybrid"


def test_unnormalized_circuit_is_rejected():
    c = Circuit(1, (PauliRotation(PauliString(1, 1, 0), 2.0),))
    with pytest.raises(ValueError, match="normalize_rotations"):
        list(enumerate_paths(c, PauliString.from_label("Z"),
                             TruncationPolicy.order(1)))


def test_parallel_enumeration_bit_exact():
    rng = np.random.default_rng(26)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        c = normalize_rotations(random_circuit(n, 14, 6, rng))
        obs = single_site_observable(n, rng)
        policy = untruncated(c)
        serial = enumerate_paths_parallel(c, obs, policy, workers=1)
        parallel = enumerate_paths_parallel(c, obs, policy, workers=3)
        assert [(p.path_id, p.coeff) for p in serial] == \
               [(p.path_id, p.coeff) for p in parallel]
        assert classical_cpt_estimate(serial) == classical_cpt_estimate(parallel)
        for policy in (TruncationPolicy.order(2),
                       TruncationPolicy.coefficient(0.05),
                       TruncationPolicy.hybrid(3, 0.02)):
            serial = enumerate_paths_parallel(c, obs, policy, workers=1)
            assert serial
            assert enumerate_paths_parallel(c, obs, policy,
                                            workers=3) == serial


def test_shards_partition_the_tree_beyond_its_branch_count():
    # one rotation (one branch point) and a commuting-only circuit (none):
    # every shard string is longer than the tree is deep
    single = Circuit(1, (PauliRotation(PauliString.from_label("X"), 0.3),))
    commuting = Circuit(2, (PauliRotation(PauliString.from_label("ZI"), 0.3),
                            CliffordGate("cz", (0, 1)),
                            PauliRotation(PauliString.from_label("IZ"), -0.2)))
    policies = (TruncationPolicy.order(1), TruncationPolicy.coefficient(0.1),
                TruncationPolicy.hybrid(1, 0.5))
    for circuit, obs in ((single, PauliString.from_label("Z")),
                         (commuting, PauliString.from_label("ZZ"))):
        for policy in policies:
            serial = enumerate_paths_parallel(circuit, obs, policy, workers=1)
            parallel = enumerate_paths_parallel(circuit, obs, policy,
                                                workers=3)
            assert serial == parallel
            for depth in range(1, 4):
                shards = [p for prefix in itertools.product("cs", repeat=depth)
                          for p in enumerate_paths(
                              circuit, obs, policy, _forced="".join(prefix))]
                assert sorted(shards, key=lambda p: p.path_id) == serial


def test_exact_evaluators_agree_on_random_circuits():
    rng = np.random.default_rng(31)
    backend = TrajectorySimulator(NoiseModel.noiseless(), infinite_shots=True)
    for trial in range(30):
        n = int(rng.integers(1, 7))
        kind = "all_plus" if trial % 2 else "all_zero"
        c = random_circuit(n, 12, int(rng.integers(1, 7)), rng,
                           input_kind=kind, rotation_weight=2)
        obs = single_site_observable(n, rng)
        norm = normalize_rotations(c)
        want = sv.expectation(c, obs)
        enumerated = classical_cpt_estimate(enumerate_all(norm, obs))
        merged, _ = merged_bfs_cpt(norm, obs, max_terms=1 << 16)
        propagated = backend.estimate(c, obs, ExecutionPlan()).mean
        for got in (enumerated, merged, propagated):
            assert got == pytest.approx(want, abs=1e-12)


def test_merged_bfs_matches_enumeration():
    rng = np.random.default_rng(27)
    for trial in range(10):
        n = int(rng.integers(2, 5))
        kind = "all_plus" if trial % 2 else "all_zero"
        c = normalize_rotations(random_circuit(n, 10, 5, rng, input_kind=kind))
        obs = single_site_observable(n, rng)
        estimate, kept = merged_bfs_cpt(c, obs, max_terms=10000)
        want = classical_cpt_estimate(enumerate_all(c, obs))
        assert estimate == pytest.approx(want, abs=1e-12)
        assert kept >= 1


def test_merged_bfs_cap_is_respected():
    rng = np.random.default_rng(28)
    c = normalize_rotations(random_circuit(4, 14, 7, rng))
    obs = single_site_observable(4, rng)
    _, kept_small = merged_bfs_cpt(c, obs, max_terms=4)
    assert kept_small <= 4


CAPS = (1, 2, 3, 4, 8, 16, 1 << 16)


def tie_case(n, a, b):
    """Z_a Z_b walked through R_X(0.3) on b and on a, then sx on b: Y_a Z_b
    and Z_a Y_b meet a cap of two with equal |value|s, and sx maps only
    the second onto the diagonal, so the tie order sets the estimate."""
    def pauli(letters):
        return PauliString.from_label("".join(letters.get(q, "I")
                                              for q in range(n)))
    return (Circuit(n, (CliffordGate("sx", (b,)),
                        PauliRotation(pauli({a: "X"}), 0.3),
                        PauliRotation(pauli({b: "X"}), 0.3))),
            pauli({a: "Z", b: "Z"}))


def test_lockstep_cpt_walk_matches_the_map_oracle():
    rng = np.random.default_rng(29)
    cases = []
    for n in (1, 2, 3, 4, 5, 6, 70):
        for kind in ("all_zero", "all_plus"):
            for floor in (0.0, 0.01, 0.1):
                # one angle for every rotation makes many equal |terms|
                for angle in (None, 0.4):
                    c = random_circuit(n, 16, 7, rng, input_kind=kind,
                                       rotation_angle=angle,
                                       rotation_weight=2)
                    cases.append((c, single_site_observable(n, rng), floor))
    # qubit 66 has the third key column of a 70-qubit frame
    cases += [tie_case(n, a, b) + (0.0,) for n, a, b in ((2, 0, 1),
                                                          (70, 5, 66))]
    ties_bind = 0
    for c, obs, floor in cases:
        want = [merged_bfs_oracle(c, obs, cap, floor) for cap in CAPS]
        alone = [merged_bfs_cpt(c, obs, max_terms=cap, min_coefficient=floor)
                 for cap in CAPS]
        swept = merged_bfs_budgets(c, obs, CAPS, min_coefficient=floor)
        assert repr(alone) == repr(want), (c, obs, floor)
        assert repr(swept) == repr(want), (c, obs, floor)
        # a cap that cuts through equal |terms| keeps other frames under
        # another tie order
        ties_bind += want != [merged_bfs_oracle(
            c, obs, cap, floor, label=lambda p: p.label()[::-1])
            for cap in CAPS]
    assert ties_bind >= 3


def test_sine_branch_rejects_a_commuting_generator():
    # Z with Z commutes: i*Z*Z would carry an imaginary phase
    z = PauliString.from_label("Z")
    with pytest.raises(ConsistencyError):
        sin_branch_bits(z.x, z.z, z.x, z.z, 1)


def test_path_to_circuit_realizes_each_frame():
    # executing the realized circuit reproduces the path's ideal expectation:
    # sin slots become quarter turns, everything else angle zero
    rng = np.random.default_rng(29)
    for trial in range(8):
        n = int(rng.integers(2, 5))
        kind = "all_plus" if trial % 2 else "all_zero"
        c = normalize_rotations(random_circuit(n, 10, 4, rng, input_kind=kind))
        obs = single_site_observable(n, rng)
        for p in enumerate_all(c, obs):
            realized = path_to_circuit(c, p.codes)
            assert realized.num_rotations == c.num_rotations
            got = sv.expectation(realized, obs)
            assert got == pytest.approx(p.ideal_expectation, abs=1e-12)


def test_path_record_shape():
    c = Circuit(1, (CliffordGate("h", (0,)),
                    PauliRotation(PauliString(1, 1, 0), 0.3)),
                input_kind="all_plus")
    paths = enumerate_all(c, PauliString.from_label("Z"))
    record = path_record(paths[0])
    assert set(record) == {"path_id", "order", "coefficient", "sin_indices",
                           "frame", "ideal_expectation"}
    assert record["order"] == 0
    assert record["frame"] == "X"
    assert record["ideal_expectation"] == 1
    assert isinstance(record["path_id"], str) and len(record["path_id"]) == 16


def test_path_ids_are_distinct_and_stable():
    rng = np.random.default_rng(30)
    c = normalize_rotations(random_circuit(3, 10, 5, rng))
    obs = single_site_observable(3, rng)
    first = enumerate_all(c, obs)
    second = enumerate_all(c, obs)
    ids = [p.path_id for p in first]
    assert len(set(ids)) == len(ids)
    assert ids == [p.path_id for p in second]


def test_zero_expectation_paths_are_yielded():
    # they add nothing to the estimate but complete the coefficient power
    rng = np.random.default_rng(31)
    c = normalize_rotations(random_circuit(3, 10, 5, rng))
    obs = single_site_observable(3, rng)
    paths = enumerate_all(c, obs)
    assert any(p.ideal_expectation == 0 for p in paths)
    assert any(p.ideal_expectation != 0 for p in paths)
    assert coefficient_power(paths) == pytest.approx(1.0, abs=1e-12)
