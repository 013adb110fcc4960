"""Noisy backend: analytic attenuation, propagation, and the density oracle.

The frozen oracles below are hand derivations for tiny circuits.  With a
uniform two-qubit error rate l2 spread over the 15 nontrivial Paulis, 8 of
them anticommute with any fixed single-qubit frame letter, so one location
attenuates the frame by 1 - 16*l2/15; the single-qubit analogue is
1 - 4*l1/3.  Readout flips multiply in (1 - 2r) per measured qubit.
"""

import math

import numpy as np
import pytest

import quepp.statevector as sv
from quepp.backend import (ExecutionPlan, NoiseModel, NoisyEstimate,
                           TrajectorySimulator, estimate_noisy_expectation,
                           noisy_density_expectation)
from quepp.backprop import ideal_clifford_expectation
from quepp.circuits import Circuit, PauliRotation, inverse_circuit
from quepp.errors import CapabilityError
from quepp.pauli import CliffordGate, PauliString

from helpers import random_circuit, random_pauli, single_site_observable


def one_qubit_chain(num_gates=2):
    # s keeps a Z frame pinned, so every gate slot attenuates the same frame
    return Circuit(1, tuple(CliffordGate("s", (0,)) for _ in range(num_gates)))


# --- noise model -----------------------------------------------------------

def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(single_qubit_rates=(("W", 0.1),))
    with pytest.raises(ValueError):
        NoiseModel(two_qubit_rates=(("II", 0.1),))
    with pytest.raises(ValueError):
        NoiseModel(single_qubit_rates=(("X", -0.1),))
    with pytest.raises(ValueError):
        NoiseModel(single_qubit_rates=(("X", 0.6), ("Y", 0.6)))
    with pytest.raises(ValueError):
        NoiseModel(readout_flip=1.5)


def test_noise_model_canonicalizes_rates():
    a = NoiseModel(single_qubit_rates=(("Z", 0.1), ("X", 0.2)))
    b = NoiseModel(single_qubit_rates=(("X", 0.2), ("Z", 0.1)))
    assert a == b
    assert a.single_qubit_rates == (("X", 0.2), ("Z", 0.1))


def test_noise_model_noiseless_flag():
    assert NoiseModel.noiseless().is_noiseless
    assert NoiseModel(single_qubit_rates=(("X", 0.0),)).is_noiseless
    assert not NoiseModel.depolarizing().is_noiseless
    assert not NoiseModel(readout_flip=0.01).is_noiseless


def test_noise_model_json_round_trip():
    model = NoiseModel.depolarizing(lambda2=3e-3, lambda1=1e-4, readout=2e-2)
    assert NoiseModel.from_json_dict(model.to_json_dict()) == model
    assert NoiseModel.from_json_dict({}) == NoiseModel.noiseless()


def test_noise_model_depolarizing_shorthand():
    got = NoiseModel.from_json_dict({"depolarizing": {"lambda2": 1e-3}})
    assert got == NoiseModel.depolarizing(lambda2=1e-3)
    assert NoiseModel.from_json_dict({"depolarizing": {}}) == NoiseModel.depolarizing()


def test_noise_model_rejects_unknown_keys():
    with pytest.raises(ValueError):
        NoiseModel.from_json_dict({"lambda2": 1e-3})
    with pytest.raises(ValueError):
        NoiseModel.from_json_dict({"depolarizing": {"lambda3": 1e-3}})
    with pytest.raises(ValueError):
        NoiseModel.from_json_dict({"depolarizing": {}, "readout_flip": 0.1})


def test_plan_validation_and_json():
    plan = ExecutionPlan(num_twirls=4, shots_per_twirl=25, rng_seed=9)
    assert plan.total_shots == 100
    assert ExecutionPlan.from_json_dict(plan.to_json_dict()) == plan
    with pytest.raises(ValueError):
        ExecutionPlan(num_twirls=0)
    with pytest.raises(ValueError):
        ExecutionPlan.from_json_dict({"twirls": 4})


def test_estimate_validation():
    with pytest.raises(ValueError):
        NoisyEstimate(mean=1.5, std_error=0.0, total_shots=10)
    with pytest.raises(ValueError):
        NoisyEstimate(mean=0.0, std_error=-0.1, total_shots=10)
    with pytest.raises(ValueError):
        NoisyEstimate(mean=0.0, std_error=0.0, total_shots=-1)


# --- analytic attenuation --------------------------------------------------

def infinite(noise):
    return TrajectorySimulator(noise, infinite_shots=True)


PLAN = ExecutionPlan(num_twirls=1, shots_per_twirl=1)


def test_two_qubit_location_attenuation():
    c = Circuit(2, (CliffordGate("cz", (0, 1)),))
    obs = PauliString.from_label("ZI")
    l2, r = 0.03, 0.02
    noise = NoiseModel.depolarizing(lambda2=l2, lambda1=0.0, readout=r)
    got = infinite(noise).estimate(c, obs, PLAN)
    want = (1 - 16 * l2 / 15) * (1 - 2 * r)
    assert got.mean == pytest.approx(want, abs=1e-15)
    assert got.std_error == 0.0 and got.total_shots == 0
    assert noisy_density_expectation(c, obs, noise) == pytest.approx(want, abs=1e-12)


def test_single_qubit_chain_attenuation():
    l1, r = 0.06, 0.01
    noise = NoiseModel.depolarizing(lambda2=0.0, lambda1=l1, readout=r)
    for k in (1, 2, 3):
        c = one_qubit_chain(k)
        got = infinite(noise).estimate(c, PauliString.from_label("Z"), PLAN)
        want = (1 - 4 * l1 / 3) ** k * (1 - 2 * r)
        assert got.mean == pytest.approx(want, abs=1e-15)


def test_zero_angle_rotation_is_still_a_noise_location():
    # an angle-zero rotation does nothing to the frame but its gate slot
    # still fires the single-qubit channel
    l1 = 0.06
    noise = NoiseModel.depolarizing(lambda2=0.0, lambda1=l1, readout=0.0)
    base = one_qubit_chain(2)
    padded = Circuit(1, (base.ops[0],
                         PauliRotation(PauliString.from_label("Z"), 0.0),
                         base.ops[1]))
    obs = PauliString.from_label("Z")
    got = infinite(noise).estimate(padded, obs, PLAN)
    assert got.mean == pytest.approx((1 - 4 * l1 / 3) ** 3, abs=1e-15)
    assert noisy_density_expectation(padded, obs, noise) == pytest.approx(
        got.mean, abs=1e-12)


def test_noise_on_untouched_qubit_does_not_attenuate():
    c = Circuit(2, (CliffordGate("h", (1,)),))
    obs = PauliString.from_label("ZI")
    noise = NoiseModel.depolarizing(lambda2=0.1, lambda1=0.1, readout=0.015)
    got = infinite(noise).estimate(c, obs, PLAN)
    assert got.mean == pytest.approx(1 - 2 * 0.015, abs=1e-15)


def test_readout_factor_scales_with_observable_weight():
    c = Circuit(2, ())
    noise = NoiseModel(readout_flip=0.04)
    for label, weight in (("ZI", 1), ("ZZ", 2)):
        got = infinite(noise).estimate(c, PauliString.from_label(label), PLAN)
        assert got.mean == pytest.approx((1 - 2 * 0.04) ** weight, abs=1e-15)


def test_infinite_shot_matches_density_oracle_on_clifford_circuits():
    rng = np.random.default_rng(50)
    noise = NoiseModel.depolarizing(lambda2=2e-2, lambda1=5e-3, readout=1e-2)
    sim = infinite(noise)
    for _ in range(8):
        n = int(rng.integers(2, 5))
        half = random_circuit(n, 6, 0, rng)
        c = Circuit(n, half.ops + inverse_circuit(half).ops)
        obs = single_site_observable(n, rng)
        got = sim.estimate(c, obs, PLAN).mean
        want = noisy_density_expectation(c, obs, noise)
        assert got == pytest.approx(want, abs=1e-12)


def test_noiseless_backend_reproduces_ideal_expectation():
    rng = np.random.default_rng(51)
    sim = infinite(NoiseModel.noiseless())
    for _ in range(10):
        n = int(rng.integers(1, 5))
        c = random_circuit(n, 8, 2, rng, rotation_angle=math.pi / 2)
        obs = single_site_observable(n, rng)
        got = sim.estimate(c, obs, PLAN).mean
        assert got == ideal_clifford_expectation(c, obs)
        assert got == pytest.approx(sv.expectation(c, obs), abs=1e-12)


# --- sampled shots ---------------------------------------------------------

def test_finite_shots_converge_to_analytic_mean():
    l1, r = 0.06, 0.01
    noise = NoiseModel.depolarizing(lambda2=0.0, lambda1=l1, readout=r)
    c = one_qubit_chain(2)
    obs = PauliString.from_label("Z")
    plan = ExecutionPlan(num_twirls=100, shots_per_twirl=10000, rng_seed=52)
    got = TrajectorySimulator(noise).estimate(c, obs, plan)
    want = (1 - 4 * l1 / 3) ** 2 * (1 - 2 * r)
    assert got.total_shots == 10 ** 6
    assert abs(got.mean - want) < 5 * got.std_error
    # +-1 outcomes pin the pooled standard error to a closed form
    n = got.total_shots
    pinned = math.sqrt((1 - got.mean ** 2) * n / (n - 1) / n)
    assert got.std_error == pytest.approx(pinned, abs=1e-15)


def test_dense_trajectories_match_density_oracle():
    noise = NoiseModel.depolarizing(lambda2=5e-2, lambda1=1e-2, readout=2e-2)
    c = Circuit(2, (CliffordGate("h", (0,)),
                    CliffordGate("cx", (0, 1)),
                    PauliRotation(PauliString.from_label("XI"), 0.7),
                    CliffordGate("cx", (0, 1))))
    obs = PauliString.from_label("IZ")
    want = noisy_density_expectation(c, obs, noise)
    plan = ExecutionPlan(num_twirls=20, shots_per_twirl=250, rng_seed=53)
    got = TrajectorySimulator(noise).estimate(c, obs, plan)
    assert got.total_shots == 5000
    assert abs(got.mean - want) < 4 * got.std_error


def test_zero_signal_gives_fair_coin():
    c = Circuit(1, (CliffordGate("h", (0,)),))
    obs = PauliString.from_label("Z")
    noise = NoiseModel.depolarizing(lambda2=0.0, lambda1=0.1, readout=0.3)
    assert infinite(noise).estimate(c, obs, PLAN).mean == 0.0
    plan = ExecutionPlan(num_twirls=10, shots_per_twirl=1000, rng_seed=54)
    got = TrajectorySimulator(noise).estimate(c, obs, plan)
    assert abs(got.mean) < 5 / math.sqrt(plan.total_shots)


def test_infinite_non_clifford_matches_density_oracle():
    noise = NoiseModel.depolarizing(lambda2=1e-2, lambda1=1e-3, readout=5e-3)
    c = Circuit(2, (CliffordGate("h", (0,)),
                    PauliRotation(PauliString.from_label("XZ"), 0.4)))
    obs = PauliString.from_label("XI")
    got = infinite(noise).estimate(c, obs, PLAN)
    assert got.total_shots == 0 and got.std_error == 0.0
    assert got.mean == pytest.approx(noisy_density_expectation(c, obs, noise),
                                     abs=1e-12)


BIASED_NOISE = NoiseModel(
    two_qubit_rates=(("XZ", 3e-2), ("ZI", 2e-2), ("YY", 1e-2), ("IX", 5e-3)),
    single_qubit_rates=(("X", 2e-2), ("Z", 5e-2)),
    readout_flip=1e-2)


def test_propagation_matches_density_oracle_on_random_circuits():
    rng = np.random.default_rng(62)
    noises = (NoiseModel.depolarizing(lambda2=3e-2, lambda1=1e-2,
                                      readout=2e-2), BIASED_NOISE)
    for trial in range(40):
        n = int(rng.integers(1, 6))
        noise = noises[trial % 2]
        input_kind = ("all_zero", "all_plus")[(trial // 2) % 2]
        c = random_circuit(n, 12, int(rng.integers(0, 5)), rng,
                           input_kind=input_kind, rotation_weight=2)
        obs = random_pauli(n, rng)
        got = infinite(noise).estimate(c, obs, PLAN).mean
        assert got == pytest.approx(noisy_density_expectation(c, obs, noise),
                                    abs=1e-12)


# --- determinism and batching ----------------------------------------------

def batch_items(rng, count=4):
    items = []
    for trial in range(count):
        n = int(rng.integers(1, 4))
        angle = math.pi / 2 if trial % 2 else 0.7
        c = random_circuit(n, 6, 2, rng, rotation_angle=angle)
        items.append((c, single_site_observable(n, rng)))
    return items


def test_batch_results_are_deterministic():
    rng = np.random.default_rng(55)
    items = batch_items(rng)
    noise = NoiseModel.depolarizing()
    plan = ExecutionPlan(num_twirls=3, shots_per_twirl=50, rng_seed=56)
    first = TrajectorySimulator(noise).submit_batch(items, plan)
    second = TrajectorySimulator(noise).submit_batch(items, plan)
    assert first == second


def test_workers_do_not_change_results():
    rng = np.random.default_rng(57)
    items = batch_items(rng)
    noise = NoiseModel.depolarizing()
    plan = ExecutionPlan(num_twirls=2, shots_per_twirl=40, rng_seed=58)
    serial = TrajectorySimulator(noise, workers=1).submit_batch(items, plan)
    parallel = TrajectorySimulator(noise, workers=3).submit_batch(items, plan)
    assert serial == parallel


def test_interleave_flag_does_not_change_results():
    rng = np.random.default_rng(59)
    items = batch_items(rng)
    noise = NoiseModel.depolarizing()
    kwargs = dict(num_twirls=2, shots_per_twirl=40, rng_seed=60)
    grouped = TrajectorySimulator(noise).submit_batch(
        items, ExecutionPlan(interleave=False, **kwargs))
    interleaved = TrajectorySimulator(noise).submit_batch(
        items, ExecutionPlan(interleave=True, **kwargs))
    assert grouped == interleaved


def test_convenience_wrapper():
    c = one_qubit_chain(1)
    obs = PauliString.from_label("Z")
    noise = NoiseModel.depolarizing()
    plan = ExecutionPlan(num_twirls=2, shots_per_twirl=30, rng_seed=61)
    assert estimate_noisy_expectation(c, obs, noise, plan) == \
           TrajectorySimulator(noise).estimate(c, obs, plan)


# --- capability limits ------------------------------------------------------

def test_wide_operations_need_noiseless_runs():
    c = Circuit(3, (PauliRotation(PauliString.from_label("XXX"), 0.3),))
    obs = PauliString.from_label("ZII")
    TrajectorySimulator(NoiseModel.noiseless()).estimate(c, obs, PLAN)
    with pytest.raises(CapabilityError):
        TrajectorySimulator(NoiseModel.depolarizing()).estimate(c, obs, PLAN)


def test_term_cap_is_enforced():
    # Z meets one X rotation, so propagation holds two terms
    c = Circuit(5, (PauliRotation(PauliString.from_label("XIIII"), 0.3),))
    obs = PauliString.from_label("ZIIII")
    plan = ExecutionPlan(num_twirls=2, shots_per_twirl=10)
    for infinite_shots in (False, True):
        sim = TrajectorySimulator(NoiseModel.depolarizing(), max_terms=1,
                                  infinite_shots=infinite_shots)
        with pytest.raises(CapabilityError):
            sim.submit_batch([(one_qubit_chain(1), PauliString.from_label("Z")),
                              (c, obs)], plan)
    sim = TrajectorySimulator(NoiseModel.depolarizing(), max_terms=2)
    assert sim.estimate(c, obs, plan).total_shots == 20
    # a Clifford-equivalent circuit stays a single term
    quarter = Circuit(5, (PauliRotation(PauliString.from_label("XIIII"),
                                        math.pi / 2),))
    TrajectorySimulator(NoiseModel.depolarizing(), max_terms=1).estimate(
        quarter, obs, plan)
    with pytest.raises(ValueError):
        TrajectorySimulator(NoiseModel.depolarizing(), max_terms=0)


def test_infinite_mode_caps_non_clifford_width():
    n = 8
    c = Circuit(n, (PauliRotation(PauliString.from_label("X" + "I" * (n - 1)),
                                  0.3),))
    obs = PauliString.from_label("Z" + "I" * (n - 1))
    noise = NoiseModel.depolarizing()
    with pytest.raises(CapabilityError):
        TrajectorySimulator(noise, max_terms=1,
                            infinite_shots=True).estimate(c, obs, PLAN)
    got = infinite(noise).estimate(c, obs, PLAN).mean
    want = math.cos(0.3) * (1 - 4 * 2e-4 / 3) * (1 - 2 * 1e-2)
    assert got == pytest.approx(want, abs=1e-15)
    with pytest.raises(CapabilityError):
        noisy_density_expectation(c, obs, noise)


def test_observable_size_mismatch_is_rejected():
    c = one_qubit_chain(1)
    with pytest.raises(ValueError):
        TrajectorySimulator(NoiseModel.noiseless()).estimate(
            c, PauliString.from_label("ZZ"), PLAN)
