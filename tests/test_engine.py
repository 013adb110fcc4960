"""Path enumeration, truncation, and the merged breadth-first sum."""

import math

import numpy as np
import pytest

import quepp.statevector as sv
from quepp.backprop import COS, SIN
from quepp.circuits import Circuit, PauliRotation, normalize_rotations
from quepp.engine import (PauliPath, TruncationPolicy, classical_cpt_estimate,
                          coefficient_power, enumerate_paths,
                          enumerate_paths_parallel, merged_bfs_cpt,
                          path_record, path_to_circuit)
from quepp.errors import ConsistencyError
from quepp.pauli import CliffordGate, PauliString
from quepp._walk import sin_branch_bits

from helpers import random_circuit, single_site_observable


def untruncated(circuit):
    return TruncationPolicy.order(circuit.num_rotations)


def enumerate_all(circuit, observable, keep_zero=True):
    return list(enumerate_paths(circuit, observable, untruncated(circuit),
                                keep_zero_expectation=keep_zero))


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
    assert paths[0].branches.decision_for(1) == COS
    assert paths[1].branches.decision_for(1) == SIN


def test_order_truncation_prunes_by_sin_count():
    rng = np.random.default_rng(23)
    c = normalize_rotations(random_circuit(3, 12, 6, rng))
    obs = single_site_observable(3, rng)
    for k_t in range(c.num_rotations + 1):
        paths = list(enumerate_paths(c, obs, TruncationPolicy.order(k_t),
                                     keep_zero_expectation=True))
        assert all(p.coeff.order <= k_t for p in paths)
    full = {p.path_id for p in enumerate_all(c, obs)}
    truncated = {p.path_id
                 for p in enumerate_paths(c, obs, TruncationPolicy.order(1),
                                          keep_zero_expectation=True)}
    assert truncated <= full


def test_coefficient_truncation_prunes_by_magnitude():
    rng = np.random.default_rng(24)
    c = normalize_rotations(random_circuit(3, 12, 6, rng))
    obs = single_site_observable(3, rng)
    eps = 0.05
    paths = list(enumerate_paths(c, obs, TruncationPolicy.coefficient(eps),
                                 keep_zero_expectation=True))
    assert all(abs(p.coeff.value) >= eps for p in paths)
    full = enumerate_all(c, obs)
    want = {p.path_id for p in full if abs(p.coeff.value) >= eps}
    assert {p.path_id for p in paths} == want


def test_hybrid_policy_applies_both():
    rng = np.random.default_rng(25)
    c = normalize_rotations(random_circuit(3, 12, 6, rng))
    obs = single_site_observable(3, rng)
    policy = TruncationPolicy.hybrid(2, 0.05)
    paths = list(enumerate_paths(c, obs, policy, keep_zero_expectation=True))
    assert all(p.coeff.order <= 2 and abs(p.coeff.value) >= 0.05
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
        serial = enumerate_paths_parallel(c, obs, policy, workers=1,
                                          keep_zero_expectation=True)
        parallel = enumerate_paths_parallel(c, obs, policy, workers=3,
                                            keep_zero_expectation=True)
        assert [(p.path_id, p.coeff.value) for p in serial] == \
               [(p.path_id, p.coeff.value) for p in parallel]
        assert classical_cpt_estimate(serial) == classical_cpt_estimate(parallel)


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
            realized = path_to_circuit(c, p.branches)
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


def test_zero_expectation_paths_are_filtered_by_default():
    rng = np.random.default_rng(31)
    c = normalize_rotations(random_circuit(3, 10, 5, rng))
    obs = single_site_observable(3, rng)
    kept = list(enumerate_paths(c, obs, untruncated(c)))
    assert all(p.ideal_expectation != 0 for p in kept)
    everything = enumerate_all(c, obs)
    assert {p.path_id for p in kept} == \
           {p.path_id for p in everything if p.ideal_expectation != 0}
