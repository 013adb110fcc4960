"""Noisy backend: analytic attenuation, propagation, and the density oracle.

The frozen oracles below are hand derivations for tiny circuits.  With a
uniform two-qubit error rate l2 spread over the 15 nontrivial Paulis, 8 of
them anticommute with any fixed single-qubit frame letter, so one location
attenuates the frame by 1 - 16*l2/15; the single-qubit analogue is
1 - 4*l1/3.  Readout flips multiply in (1 - 2r) per measured qubit.
"""

import functools
import math

import numpy as np
import pytest

import quepp._walk
import quepp.backend
import quepp.statevector as sv
from quepp.backend import (DEFAULT_MAX_TERMS, ExecutionPlan, NoiseModel,
                           NoisyEstimate, TrajectorySimulator)
from quepp.circuits import (Circuit, PauliRotation, inverse_circuit,
                            normalize_rotations)
from quepp.config import RunConfig
from quepp.engine import (TruncationPolicy, enumerate_paths_parallel,
                          merged_bfs_cpt, path_to_circuit)
from quepp.experiments import ExperimentSpec, generate_experiment
from quepp.pipeline import run_quepp
from quepp.errors import CapabilityError, ConfigError
from quepp._walk import exact_turn
from quepp.pauli import CliffordGate, PauliString

from helpers import (at_angles, conjugate, is_noiseless, random_circuit,
                     random_pauli, single_site_observable, submit_one,
                     walked_groups)
from oracles import (_exact_noisy_mean, merged_bfs_oracle,
                     noisy_density_expectation, sampled_estimates)


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
        NoiseModel(two_qubit_rates=(("XX", math.nan),))
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
    assert is_noiseless(NoiseModel.noiseless())
    assert is_noiseless(NoiseModel(single_qubit_rates=(("X", 0.0),)))
    assert not is_noiseless(NoiseModel.depolarizing())
    assert not is_noiseless(NoiseModel(readout_flip=0.01))


def noise_from_json(noise):
    return RunConfig.from_json_dict({"noise": noise}).noise


def test_noise_model_json_round_trip():
    model = NoiseModel.depolarizing(lambda2=3e-3, lambda1=1e-4, readout=2e-2)
    document = RunConfig(noise=model).to_json_dict()
    assert RunConfig.from_json_dict(document).noise == model
    assert noise_from_json({}) == NoiseModel.noiseless()


def test_noise_model_depolarizing_shorthand():
    got = noise_from_json({"depolarizing": {"lambda2": 1e-3}})
    assert got == NoiseModel.depolarizing(lambda2=1e-3)
    assert noise_from_json({"depolarizing": {}}) == NoiseModel.depolarizing()


def test_noise_model_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        noise_from_json({"lambda2": 1e-3})
    with pytest.raises(ConfigError):
        noise_from_json({"depolarizing": {"lambda3": 1e-3}})
    with pytest.raises(ConfigError):
        noise_from_json({"depolarizing": {}, "readout_flip": 0.1})


def test_plan_validation_and_json():
    plan = ExecutionPlan(num_twirls=4, shots_per_twirl=25, rng_seed=9)
    assert plan.total_shots == 100
    document = RunConfig(plan=plan).to_json_dict()
    assert RunConfig.from_json_dict(document).plan == plan
    with pytest.raises(ValueError):
        ExecutionPlan(num_twirls=0)
    # at 2**62 shots a draw's 2 * k - count would wrap in int64
    with pytest.raises(ValueError, match=r"2\*\*62"):
        ExecutionPlan(num_twirls=2 ** 31, shots_per_twirl=2 ** 31)
    assert ExecutionPlan(shots_per_twirl=2 ** 62 - 1).total_shots == 2 ** 62 - 1
    with pytest.raises(ConfigError):
        RunConfig.from_json_dict({"plan": {"twirls": 4}})


def test_estimate_validation():
    with pytest.raises(ValueError):
        NoisyEstimate(mean=1.5, std_error=0.0, total_shots=10)
    with pytest.raises(ValueError):
        NoisyEstimate(mean=0.0, std_error=-0.1, total_shots=10)
    with pytest.raises(ValueError):
        NoisyEstimate(mean=0.0, std_error=0.0, total_shots=-1)


def test_estimate_refuses_nan():
    # nan compares False both ways, so a nan mean or error passes a check
    # written as ``abs(mean) > 1`` or ``std_error < 0``; a record's eta is
    # then finite, since its ideal is +-1
    with pytest.raises(ValueError, match="mean of"):
        NoisyEstimate(mean=math.nan, std_error=0.0, total_shots=0)
    with pytest.raises(ValueError, match="std_error"):
        NoisyEstimate(mean=0.5, std_error=math.nan, total_shots=10)


# --- analytic attenuation --------------------------------------------------

def infinite(noise):
    return TrajectorySimulator(noise, infinite_shots=True)


PLAN = ExecutionPlan(num_twirls=1, shots_per_twirl=1)


def test_simulator_takes_only_a_noise_model():
    # anything but a NoiseModel is refused, None included: a noiseless run
    # takes NoiseModel.noiseless(), which the error names
    c = Circuit(1, (PauliRotation(PauliString.from_label("X"), 0.3),))
    obs = PauliString.from_label("Z")
    for noise in (None, {}, "depolarizing", NoiseModel.depolarizing):
        with pytest.raises(TypeError, match=r"NoiseModel\.noiseless\(\)"):
            TrajectorySimulator(noise, infinite_shots=True)
    [got] = infinite(NoiseModel.noiseless()).submit_batch([(c, obs)], PLAN)
    assert got.mean == got.noiseless == pytest.approx(math.cos(0.3),
                                                      abs=1e-15)


def test_two_qubit_location_attenuation():
    c = Circuit(2, (CliffordGate("cz", (0, 1)),))
    obs = PauliString.from_label("ZI")
    l2, r = 0.03, 0.02
    noise = NoiseModel.depolarizing(lambda2=l2, lambda1=0.0, readout=r)
    got = submit_one(infinite(noise), c, obs, PLAN)
    want = (1 - 16 * l2 / 15) * (1 - 2 * r)
    assert got.mean == pytest.approx(want, abs=1e-15)
    assert got.std_error == 0.0 and got.total_shots == 0
    assert noisy_density_expectation(c, obs, noise) == pytest.approx(want, abs=1e-12)


def test_single_qubit_chain_attenuation():
    l1, r = 0.06, 0.01
    noise = NoiseModel.depolarizing(lambda2=0.0, lambda1=l1, readout=r)
    for k in (1, 2, 3):
        c = one_qubit_chain(k)
        got = submit_one(infinite(noise), c, PauliString.from_label("Z"), PLAN)
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
    got = submit_one(infinite(noise), padded, obs, PLAN)
    assert got.mean == pytest.approx((1 - 4 * l1 / 3) ** 3, abs=1e-15)
    assert noisy_density_expectation(padded, obs, noise) == pytest.approx(
        got.mean, abs=1e-12)


def test_noise_on_untouched_qubit_does_not_attenuate():
    c = Circuit(2, (CliffordGate("h", (1,)),))
    obs = PauliString.from_label("ZI")
    noise = NoiseModel.depolarizing(lambda2=0.1, lambda1=0.1, readout=0.015)
    got = submit_one(infinite(noise), c, obs, PLAN)
    assert got.mean == pytest.approx(1 - 2 * 0.015, abs=1e-15)


def test_readout_factor_scales_with_observable_weight():
    c = Circuit(2, ())
    noise = NoiseModel(readout_flip=0.04)
    for label, weight in (("ZI", 1), ("ZZ", 2)):
        got = submit_one(infinite(noise), c, PauliString.from_label(label),
                         PLAN)
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
        got = submit_one(sim, c, obs, PLAN).mean
        want = noisy_density_expectation(c, obs, noise)
        assert got == pytest.approx(want, abs=1e-12)


def test_noiseless_backend_reproduces_ideal_expectation():
    rng = np.random.default_rng(51)
    sim = infinite(NoiseModel.noiseless())
    for _ in range(10):
        n = int(rng.integers(1, 5))
        c = random_circuit(n, 8, 2, rng, rotation_angle=math.pi / 2)
        obs = single_site_observable(n, rng)
        got = submit_one(sim, c, obs, PLAN).mean
        # exact: one stabilizer expectation, bit for bit the map kernel's
        assert got in (-1.0, 0.0, 1.0)
        assert got == _exact_noisy_mean(c, obs, NoiseModel.noiseless(),
                                        DEFAULT_MAX_TERMS, 0)
        assert got == pytest.approx(sv.expectation(c, obs), abs=1e-12)


# --- sampled shots ---------------------------------------------------------

def test_finite_shots_converge_to_analytic_mean():
    l1, r = 0.06, 0.01
    noise = NoiseModel.depolarizing(lambda2=0.0, lambda1=l1, readout=r)
    c = one_qubit_chain(2)
    obs = PauliString.from_label("Z")
    plan = ExecutionPlan(num_twirls=100, shots_per_twirl=10000, rng_seed=52)
    got = submit_one(TrajectorySimulator(noise), c, obs, plan)
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
    got = submit_one(TrajectorySimulator(noise), c, obs, plan)
    assert got.total_shots == 5000
    assert abs(got.mean - want) < 4 * got.std_error


def test_zero_signal_gives_fair_coin():
    c = Circuit(1, (CliffordGate("h", (0,)),))
    obs = PauliString.from_label("Z")
    noise = NoiseModel.depolarizing(lambda2=0.0, lambda1=0.1, readout=0.3)
    assert submit_one(infinite(noise), c, obs, PLAN).mean == 0.0
    plan = ExecutionPlan(num_twirls=10, shots_per_twirl=1000, rng_seed=54)
    got = submit_one(TrajectorySimulator(noise), c, obs, plan)
    assert abs(got.mean) < 5 / math.sqrt(plan.total_shots)


def test_infinite_non_clifford_matches_density_oracle():
    noise = NoiseModel.depolarizing(lambda2=1e-2, lambda1=1e-3, readout=5e-3)
    c = Circuit(2, (CliffordGate("h", (0,)),
                    PauliRotation(PauliString.from_label("XZ"), 0.4)))
    obs = PauliString.from_label("XI")
    got = submit_one(infinite(noise), c, obs, PLAN)
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
        got = submit_one(infinite(noise), c, obs, PLAN).mean
        assert got == pytest.approx(noisy_density_expectation(c, obs, noise),
                                    abs=1e-12)


# --- determinism and batching ----------------------------------------------

def batch_items(rng, count=4):
    """Random targets at 0.7, each followed by itself at quarter turns, a
    path circuit that walks in its lockstep group."""
    items = []
    for trial in range(count):
        if trial % 2:
            c = at_angles(c, [math.pi / 2] * c.num_rotations)
        else:
            n = int(rng.integers(1, 4))
            c = random_circuit(n, 6, 2, rng, rotation_angle=0.7)
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


def assert_items_run_alone(items, noise, plan):
    """Each item of a batch gets the exact mean it gets alone, from
    ``_exact_noisy_mean``, and the batch's shots are the shot oracle's draws
    over those means in item order."""
    exact = infinite(noise).submit_batch(items, plan)
    sampled = TrajectorySimulator(noise).submit_batch(items, plan)
    assert len(exact) == len(sampled) == len(items)
    wants = []
    for index, (circuit, obs) in enumerate(items):
        want = _exact_noisy_mean(circuit, obs, noise, DEFAULT_MAX_TERMS, index)
        assert repr(exact[index].mean) == repr(want), index
        wants.append(want)
    assert sampled == sampled_estimates(wants, plan)


def test_multi_group_batches_match_each_item_alone():
    rng = np.random.default_rng(57)
    items = batch_items(rng)
    assert walked_groups(items)[0] == [[0, 1], [2, 3]]
    plan = ExecutionPlan(num_twirls=2, shots_per_twirl=40, rng_seed=58)
    assert_items_run_alone(items, NoiseModel.depolarizing(), plan)


# --- shot streams -----------------------------------------------------------

# exactly +-1 and a hair past; p_plus on both sides of a half, under and
# over numpy's inversion limit n * min(p, 1 - p) <= 30 at 100 and 200
# shots, changing from item to item
SHOT_MEANS = [1.0, -1.0, 1.0 + 2**-51, -1.0 - 2**-51, 0.0, 0.9, -0.95,
              0.3, -0.2, 0.5, 1e-3, -0.7, 0.99, 0.6, 0.6, -0.99]


SHOT_PLANS = pytest.mark.parametrize("num_twirls, shots, seed", [
    (1, 1, 0), (2, 100, 5), (7, 3, 2**32 + 3), (100, 200, 2**64 + 1)])


@SHOT_PLANS
def test_batched_shots_match_the_oracle(num_twirls, shots, seed):
    plan = ExecutionPlan(num_twirls=num_twirls, shots_per_twirl=shots,
                         rng_seed=seed)
    # the hairs past +-1 put p_plus past [0, 1] before the clip
    assert (1.0 + SHOT_MEANS[2]) / 2.0 > 1.0
    assert (1.0 + SHOT_MEANS[3]) / 2.0 < 0.0
    got = quepp.backend._sampled_estimates(SHOT_MEANS, plan)
    assert got == sampled_estimates(SHOT_MEANS, plan)
    assert got[0].mean == 1.0 and got[1].mean == -1.0
    assert got[2].mean == 1.0 and got[3].mean == -1.0


@SHOT_PLANS
def test_item_zero_gets_its_estimate_alone(num_twirls, shots, seed):
    # a traced run submits the target alone and checks it against item 0
    # of the full batch; later items draw after earlier ones, item 0 first
    plan = ExecutionPlan(num_twirls=num_twirls, shots_per_twirl=shots,
                         rng_seed=seed)
    items = batch_items(np.random.default_rng(60))
    assert len(walked_groups(items)[0]) > 1
    sim = TrajectorySimulator(NoiseModel.depolarizing())
    batch = sim.submit_batch(items, plan)
    assert sim.submit_batch(items[:1], plan) == batch[:1]


def test_batch_shots_construct_one_seed_sequence_per_batch(monkeypatch):
    # 79 items at 2 twirls, the trotter-quepp batch's shape
    circuit = Circuit(2, (CliffordGate("h", (0,)),
                          PauliRotation(PauliString.from_label("ZZ"), 0.3),
                          CliffordGate("cx", (0, 1))))
    items = [(circuit, PauliString.from_label(label))
             for label in ("ZI", "IZ", "XX", "ZZ") * 20][:79]
    plan = ExecutionPlan(num_twirls=2, shots_per_twirl=100, rng_seed=5)
    seeded = []
    real = np.random.SeedSequence

    def counted(*args, **kwargs):
        seeded.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counted)
    noise = NoiseModel.depolarizing()
    for _ in range(2):
        got = TrajectorySimulator(noise).submit_batch(items, plan)
    # one stream per sampled batch, keyed by the plan's seed alone
    assert seeded == [((5,), {})] * 2
    seeded.clear()
    means = [estimate.mean for estimate in
             infinite(noise).submit_batch(items, plan)]
    assert seeded == []
    assert got == sampled_estimates(means, plan)
    assert len(seeded) == 1


# --- capability limits ------------------------------------------------------

def test_wide_operations_need_noiseless_runs():
    c = Circuit(3, (PauliRotation(PauliString.from_label("XXX"), 0.3),))
    obs = PauliString.from_label("ZII")
    submit_one(TrajectorySimulator(NoiseModel.noiseless()), c, obs, PLAN)
    with pytest.raises(CapabilityError):
        submit_one(TrajectorySimulator(NoiseModel.depolarizing()), c, obs,
                   PLAN)
    # readout flips act at measurement, not at the gate
    r = 0.05
    readout_only = TrajectorySimulator(NoiseModel(readout_flip=r),
                                       infinite_shots=True)
    for label in ("ZII", "ZZZ"):
        obs = PauliString.from_label(label)
        got = submit_one(readout_only, c, obs, PLAN).mean
        want = sv.expectation(c, obs) * (1 - 2 * r) ** obs.weight()
        assert got == pytest.approx(want, abs=1e-12)


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
    assert submit_one(sim, c, obs, plan).total_shots == 20
    # a Clifford-equivalent circuit stays a single term
    quarter = Circuit(5, (PauliRotation(PauliString.from_label("XIIII"),
                                        math.pi / 2),))
    submit_one(TrajectorySimulator(NoiseModel.depolarizing(), max_terms=1),
               quarter, obs, plan)
    # the one max_terms range of the config, the simulator and the cpt walk,
    # of integers only, as the config's
    for max_terms in (0, 2**62, 2.5, 2.0, True, np.float64(3.0), "3"):
        with pytest.raises(ValueError, match="max_terms"):
            TrajectorySimulator(NoiseModel.depolarizing(), max_terms=max_terms)
    sim = TrajectorySimulator(NoiseModel.depolarizing(), max_terms=np.int64(2))
    assert type(sim.max_terms) is int and sim.max_terms == 2
    assert submit_one(sim, c, obs, plan).total_shots == 20


def test_infinite_mode_caps_non_clifford_width():
    n = 8
    c = Circuit(n, (PauliRotation(PauliString.from_label("X" + "I" * (n - 1)),
                                  0.3),))
    obs = PauliString.from_label("Z" + "I" * (n - 1))
    noise = NoiseModel.depolarizing()
    with pytest.raises(CapabilityError):
        submit_one(TrajectorySimulator(noise, max_terms=1,
                                       infinite_shots=True), c, obs, PLAN)
    got = submit_one(infinite(noise), c, obs, PLAN).mean
    want = math.cos(0.3) * (1 - 4 * 2e-4 / 3) * (1 - 2 * 1e-2)
    assert got == pytest.approx(want, abs=1e-15)
    with pytest.raises(CapabilityError):
        noisy_density_expectation(c, obs, noise)


def test_observable_size_mismatch_is_rejected():
    c = one_qubit_chain(1)
    wide = PauliString.from_label("ZZ")
    with pytest.raises(ValueError):
        submit_one(TrajectorySimulator(NoiseModel.noiseless()), c, wide, PLAN)
    with pytest.raises(ValueError, match="observable size"):
        enumerate_paths_parallel(c, wide, TruncationPolicy.order(1))
    with pytest.raises(ValueError, match="observable size"):
        merged_bfs_cpt(c, wide, [4])
    # a budget that is no integer is refused, not truncated
    for budgets in ([4, 0], [4, 2**62], [10**20], [1.5, 2, 2.9, 3], [True],
                    [4, 2.0], [np.float64(3.0)]):
        with pytest.raises(ValueError, match="max_terms"):
            merged_bfs_cpt(c, PauliString.from_label("Z"), budgets)
    assert merged_bfs_cpt(c, PauliString.from_label("Z"),
                          [np.int64(4), np.uint8(2)]) == [(1.0, 1)] * 2
    # a negative or NaN floor is refused, as a TruncationPolicy refuses it
    for floor in (-1.0, math.nan):
        with pytest.raises(ValueError, match="min_coefficient must be >= 0"):
            merged_bfs_cpt(c, PauliString.from_label("Z"), [4],
                           min_coefficient=floor)


# --- lockstep frame kernel ---------------------------------------------------

# X errors at rate 1/2 damp a Z or Y frame by exactly 0, XI + ZZ at rate
# 0.8 damp YI by a negative factor, and a readout flip above 1/2 makes the
# readout factor negative, so zero means come out as -0.0
ZERO_NOISE = NoiseModel(two_qubit_rates=(("XI", 0.5), ("ZZ", 0.3)),
                        single_qubit_rates=(("X", 0.5),),
                        readout_flip=0.6)

# every angle is within clifford_angle_steps' tolerance of m quarter turns
QUARTER_ANGLES = (0.0, math.pi / 2, math.pi, -math.pi / 2, 3 * math.pi / 2,
                  -math.pi, math.pi / 2 + 1e-12, 2 * math.pi)


def random_frame(n, rng, *, diagonal_on=None):
    """A signed Pauli on any width; one diagonal on the input kind
    ``diagonal_on`` has only Z letters (all_zero) or X letters (all_plus)."""
    x, z = (int("".join(map(str, rng.integers(0, 2, n))), 2)
            for _ in range(2))
    if diagonal_on is not None:
        x, z = (0, z) if diagonal_on == "all_zero" else (x, 0)
    if x == 0 and z == 0:
        x, z = (1, 0) if diagonal_on == "all_plus" else (0, 1)
    return PauliString(n, x, z, int(rng.choice([1, -1])))


def forward_image(circuit, frame):
    """U frame U^dag for a Clifford-equivalent circuit U; a residual angle
    of 1e-12 is dropped, as the kernels snap it to the quarter turn."""
    for op in reversed(normalize_rotations(inverse_circuit(circuit)).ops):
        if isinstance(op, CliffordGate):
            frame = conjugate(frame, op)
    return frame


def quarter_turn_batch(rng, n, count, *, rotation_weight=2):
    """A branching target, then ``count`` of its path circuits at random
    quarter turns, and one reference rebuilt from equal but distinct op
    objects, which runs as a group of its own."""
    depth = 12 if n <= 9 else 40
    target = random_circuit(n, depth, 5, rng,
                            input_kind=("all_zero", "all_plus")[n % 2],
                            rotation_weight=rotation_weight,
                            rotation_angle=0.7)
    items = [(target, random_frame(n, rng))]
    for i in range(count):
        circuit = at_angles(target, [float(rng.choice(QUARTER_ANGLES))
                                     for _ in range(target.num_rotations)])
        if i % 2:
            obs = random_frame(n, rng)
        else:
            # walks back to a frame diagonal on the input: a nonzero mean
            obs = forward_image(circuit, random_frame(
                n, rng, diagonal_on=target.input_kind))
        items.append((circuit, obs))
    twin = Circuit(n, tuple(
        CliffordGate(op.kind, op.qubits) if isinstance(op, CliffordGate)
        else PauliRotation(PauliString(n, op.generator.x, op.generator.z),
                           op.angle)
        for op in items[1][0].ops), target.input_kind)
    items.append((twin, items[1][1]))
    return items


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 65, 70])
def test_lockstep_frames_match_the_map_kernel(n):
    rng = np.random.default_rng(1000 + n)
    items = quarter_turn_batch(rng, n, 6)
    for noise in (NoiseModel.depolarizing(lambda2=3e-2, lambda1=1e-2,
                                          readout=2e-2),
                  BIASED_NOISE, ZERO_NOISE):
        groups, got = walked_groups(items, noise)
        # the target and its references run as one lockstep group; the
        # rebuilt twin runs alone
        assert groups == [list(range(7)), [7]]
        for index, ((circuit, obs), estimate) in enumerate(zip(items, got)):
            want = _exact_noisy_mean(circuit, obs, noise, DEFAULT_MAX_TERMS,
                                     index)
            assert repr(estimate.mean) == repr(want), (noise, index)
            if n <= 5:
                assert estimate.mean == pytest.approx(
                    noisy_density_expectation(circuit, obs, noise), abs=1e-12)
        if noise is not ZERO_NOISE:
            assert any(e.mean != 0.0 for e in got[1:])


# repeated, negative and signed-zero angles, and angles within
# clifford_angle_steps' tolerance of a quarter turn, on either side
TRICKY_ANGLES = (0.3, -0.3, -0.0, 0.0, 2.1, math.pi / 2 + 5e-10,
                 -math.pi / 2 - 9e-10, math.pi - 1e-10, -math.pi + 3e-10)


def tricky_angle_group(rng, n, count):
    """``count`` path circuits of one target with angles drawn from
    ``TRICKY_ANGLES``, half with an observable that walks back to a frame
    diagonal on the input through the target's Cliffords."""
    input_kind = ("all_zero", "all_plus")[n % 2]
    target = random_circuit(n, 12 if n == 1 else 24, 4, rng,
                            input_kind=input_kind, rotation_weight=2,
                            rotation_angle=0.0)
    diagonal = forward_image(target, random_frame(n, rng,
                                                  diagonal_on=input_kind))
    items = []
    for i in range(count):
        angles = rng.choice(TRICKY_ANGLES, size=4).tolist()
        items.append((at_angles(target, angles),
                      diagonal if i % 2 else random_frame(n, rng)))
    return items


@pytest.mark.parametrize("n", [1, 64, 65])
def test_lockstep_tricky_angles_match_the_map_kernel(n):
    rng = np.random.default_rng(3000 + n)
    items = tricky_angle_group(rng, n, 12)
    angles = [op.angle for circuit, _ in items for op in circuit.ops
              if isinstance(op, PauliRotation)]
    assert any(math.copysign(1.0, a) < 0 and a == 0.0 for a in angles)
    assert len(set(angles)) < len(angles)
    for noise in (NoiseModel.depolarizing(lambda2=3e-2, lambda1=1e-2,
                                          readout=2e-2), BIASED_NOISE):
        groups, got = walked_groups(items, noise)
        assert groups == [list(range(12))]
        for index, ((circuit, obs), estimate) in enumerate(zip(items, got)):
            want = _exact_noisy_mean(circuit, obs, noise, DEFAULT_MAX_TERMS,
                                     index)
            assert repr(estimate.mean) == repr(want), (noise, index)
        assert sum(e.mean != 0.0 for e in got) >= 3


def upper_word_group(rng, n, k=5):
    """A random target that acts on the top ``k`` of ``n`` qubits only, so
    every compiled generator leaves frame word 0 empty, and five of its
    path circuits: one at random angles, which takes both terms as the
    target does, and four at quarter turns.
    The observables also carry low letters that no op touches, diagonal on
    the input."""
    kind = ("all_zero", "all_plus")[n % 2]
    shift = n - k
    small = random_circuit(k, 40, 20, rng, rotation_weight=2)
    target = Circuit(n, tuple(
        CliffordGate(op.kind, tuple(q + shift for q in op.qubits))
        if isinstance(op, CliffordGate)
        else PauliRotation(PauliString(n, op.generator.x << shift,
                                       op.generator.z << shift), op.angle)
        for op in small.ops), kind)
    items = []
    for i, angles in enumerate((None, "random", *["quarter"] * 4)):
        circuit = target if angles is None else at_angles(target, [float(
            rng.uniform(0.1, 1.4) if angles == "random"
            else rng.choice(QUARTER_ANGLES))
            for _ in range(target.num_rotations)])
        if angles == "quarter" and i % 2:
            # walks back to a frame diagonal on the input: a nonzero mean
            items.append((circuit, forward_image(circuit, random_frame(
                n, rng, diagonal_on=kind))))
            continue
        low = int("".join(map(str, rng.integers(0, 2, shift))), 2)
        upper = random_pauli(k, rng)
        x, z = (upper.x << shift, low | upper.z << shift) \
            if kind == "all_zero" else (low | upper.x << shift,
                                        upper.z << shift)
        items.append((circuit, PauliString(n, x, z)))
    return items


@pytest.mark.parametrize("n", [70, 130])
def test_walk_pairs_rows_on_generators_above_word_zero(n, monkeypatch):
    # frames of two and three words, whose generators branch only above
    # word 0, so the word that names a pair is never the first; two items
    # of the group take both terms at every rotation they meet
    rng = np.random.default_rng(4000 + n)
    items = upper_word_group(rng, n)
    words, merged = set(), []
    rotate = quepp._walk._rotate

    def spy(item, frames, value, generator, gsign, turns, sites, count,
            anti):
        branch = int((turns.take(item[anti], 0) != 0.0).all(axis=1).sum())
        rows = rotate(item, frames, value, generator, gsign, turns, sites,
                      count, anti)
        words.update((np.flatnonzero(generator) % (len(generator) // 2))
                     .tolist())
        merged.append(len(item) + branch - len(rows[0]))
        return rows

    # the floor-free merged walk's values, walked before the spy counts
    ideals = [merged_bfs_cpt(circuit, obs, [DEFAULT_MAX_TERMS])[0][0]
              for circuit, obs in items]
    monkeypatch.setattr(quepp._walk, "_rotate", spy)
    for noise in (NoiseModel.depolarizing(lambda2=3e-2, lambda1=1e-2,
                                          readout=2e-2),
                  BIASED_NOISE, ZERO_NOISE):
        groups, got = walked_groups(items, noise)
        assert groups == [list(range(6))]
        for index, ((circuit, obs), estimate) in enumerate(zip(items, got)):
            want = _exact_noisy_mean(circuit, obs, noise, DEFAULT_MAX_TERMS,
                                     index)
            assert repr(estimate.mean) == repr(want), (noise, index)
        # the noiseless values pair on the same words, undamped
        assert repr([e.noiseless for e in got]) == repr(ideals), noise
        if noise is not ZERO_NOISE:
            assert sum(e.mean != 0.0 for e in got) >= 2
    caps = (1, 2, 3, 8, 1 << 16)
    for (circuit, obs), floor in zip(items[:2], (0.0, 0.01)):
        want = [merged_bfs_oracle(circuit, obs, cap, floor) for cap in caps]
        assert repr(merged_bfs_cpt(circuit, obs, caps,
                                   min_coefficient=floor)) == repr(want)
        # the caps' order changes no bit
        assert repr(merged_bfs_cpt(circuit, obs, caps[::-1],
                                   min_coefficient=floor)) == repr(want[::-1])
    # the stepped generators set every word but word 0, and rows did pair
    assert words == set(range(1, (n + 63) // 64))
    assert sum(merged) > 0 and min(merged) >= 0


def test_group_walk_steps_only_anticommuting_rotations(monkeypatch):
    # walking back, the rows meet R_Z on qubit 0, cz and R_Z on qubit 1,
    # which commute with every row, so their noise joins that of R_X on
    # qubit 0, the one rotation stepped; the twirl-free references take
    # its sine or cosine term alone
    label = PauliString.from_label
    target = Circuit(2, (PauliRotation(label("XI"), 0.3),
                         PauliRotation(label("IZ"), 0.4),
                         CliffordGate("cz", (0, 1)),
                         PauliRotation(label("ZI"), 0.5)))
    items = [(target, label("ZI")),
             (path_to_circuit(target, "spp"), label("ZZ")),
             (path_to_circuit(target, "cpp"), label("-ZI"))]
    stepped = []
    rotate = quepp._walk._rotate

    def spy(item, frames, value, generator, *rest):
        stepped.append((generator.ravel().tolist(), len(rest[-1])))
        return rotate(item, frames, value, generator, *rest)

    monkeypatch.setattr(quepp._walk, "_rotate", spy)
    for noise in (NoiseModel.depolarizing(lambda2=3e-2, lambda1=1e-2,
                                          readout=2e-2), BIASED_NOISE):
        stepped.clear()
        got = infinite(noise).submit_batch(items, PLAN)
        # the compiled generator [gx | gz] of R_X on qubit 0, met by all
        # three rows, each carrying its noisy and its noiseless value
        assert stepped == [([1, 0], 3)]
        for index, ((circuit, obs), estimate) in enumerate(zip(items, got)):
            want = _exact_noisy_mean(circuit, obs, noise, DEFAULT_MAX_TERMS,
                                     index)
            assert repr(estimate.mean) == repr(want), (noise, index)
        # the sine term of Z_0 Z_1 is off the diagonal; the others damp
        assert [0.0 < abs(e.mean) < 1.0 for e in got] == [True, False, True]


def test_frame_means_evaluate_each_distinct_angle_once(monkeypatch):
    # 12 items x 4 rotations look up 48 angles; with any memo switched off,
    # each distinct angle may still be evaluated only once
    items = tricky_angle_group(np.random.default_rng(3100), 5, 12)
    circuits, observables = zip(*items)
    distinct = {op.angle for circuit in circuits for op in circuit.ops
                if isinstance(op, PauliRotation)}
    calls = []

    def counted(angle):
        calls.append(angle)
        return exact_turn(angle)

    monkeypatch.setattr(quepp._walk, "exact_turn", counted)
    monkeypatch.setattr(functools, "cache", lambda function: function)
    means, noiseless = quepp.backend._frame_means(
        range(len(items)), circuits, observables, NoiseModel.depolarizing(),
        DEFAULT_MAX_TERMS)
    # the noiseless values ride the noisy rows, so they evaluate no angle
    # again
    assert 0 < len(calls) <= len(distinct) < 4 * len(items)
    monkeypatch.undo()
    got = infinite(NoiseModel.depolarizing()).submit_batch(items, PLAN)
    assert means == [estimate.mean for estimate in got]
    assert repr(noiseless) == repr([estimate.noiseless for estimate in got])
    assert None not in noiseless


def block_edge_groups():
    """Circuits at the edges of the damping blocks, each with two of its
    path circuits at quarter turns, so it runs as one lockstep group."""
    label = PauliString.from_label

    def turn(pauli, angle):
        return PauliRotation(label(pauli), angle)

    cases = [
        # only Cliffords: one block and no rotation
        (Circuit(3, (CliffordGate("h", (0,)), CliffordGate("cx", (0, 1)),
                     CliffordGate("s", (2,)), CliffordGate("cz", (1, 2)))),
         ("XZI", "ZZI", "IIZ")),
        # two rotations with no Clifford between them
        (Circuit(2, (CliffordGate("h", (1,)), turn("XI", 0.3),
                     turn("YZ", 0.5), CliffordGate("cx", (1, 0)))),
         ("ZZ", "XI", "ZX")),
        # a rotation as the first op and one as the last
        (Circuit(3, (turn("XII", 0.4), CliffordGate("cx", (0, 2)),
                     CliffordGate("sx", (1,)), turn("IZY", -0.6))),
         ("ZIZ", "IYI", "ZZZ")),
        # a noisy rotation whose generator spans two sites
        (Circuit(2, (CliffordGate("h", (0,)), turn("XY", 0.7),
                     CliffordGate("cz", (0, 1)))),
         ("ZX", "XI", "YZ")),
        # an all_plus input
        (Circuit(3, (CliffordGate("cx", (2, 1)), turn("ZIZ", 0.6),
                     CliffordGate("sdg", (0,)), turn("IYI", -0.2),
                     CliffordGate("h", (2,))), "all_plus"),
         ("XIX", "IZI", "XXZ")),
    ]
    for target, labels in cases:
        items = [(target, label(labels[0]))]
        for angles, pauli in zip(((math.pi / 2, 0.0), (-math.pi / 2, math.pi)),
                                 labels[1:]):
            items.append((at_angles(target, angles), label(pauli)))
        yield items


def test_lockstep_block_edges_match_the_map_kernel():
    # a gate-only channel leaves the rotations' own locations out of their
    # blocks, and a single-qubit-only channel leaves out the gates of width two
    noises = (NoiseModel.depolarizing(lambda2=3e-2, lambda1=1e-2,
                                      readout=2e-2),
              BIASED_NOISE, ZERO_NOISE,
              NoiseModel.depolarizing(lambda2=3e-2, lambda1=0.0, readout=0.0),
              NoiseModel(single_qubit_rates=(("Y", 4e-2),)))
    nonzero = 0
    for items in block_edge_groups():
        for noise in noises:
            groups, got = walked_groups(items, noise)
            assert groups == [[0, 1, 2]]
            for index, ((circuit, obs), estimate) in enumerate(
                    zip(items, got)):
                want = _exact_noisy_mean(circuit, obs, noise,
                                         DEFAULT_MAX_TERMS, index)
                assert repr(estimate.mean) == repr(want), (circuit, noise)
                assert estimate.mean == pytest.approx(
                    noisy_density_expectation(circuit, obs, noise),
                    abs=1e-12)
                nonzero += estimate.mean != 0.0
    assert nonzero >= 20


def test_lockstep_frames_keep_signed_zeros():
    # S keeps a Z frame diagonal and H does not; either way the X errors
    # damp it to exactly 0, and the negative readout factor signs the zero
    skeleton = (CliffordGate("s", (0,)), CliffordGate("h", (0,)))
    items = []
    for angle in (0.0, math.pi / 2, math.pi):
        for gate in skeleton:
            rotation = PauliRotation(PauliString.from_label("X"), angle)
            items.append((Circuit(1, (gate, rotation)),
                          PauliString.from_label("Z")))
    got = infinite(ZERO_NOISE).submit_batch(items, PLAN)
    for index, ((circuit, obs), estimate) in enumerate(zip(items, got)):
        want = _exact_noisy_mean(circuit, obs, ZERO_NOISE, DEFAULT_MAX_TERMS,
                                 index)
        assert repr(estimate.mean) == repr(want) == "-0.0"


def branching_group():
    """Path circuits of one 2-qubit target: two identical branching items,
    whose frames would collide if terms merged across items, a branching
    item whose other rotation sits at exactly cos = 0, one at exactly
    sin = 0, and a Clifford-equivalent reference."""
    target = Circuit(2, (CliffordGate("h", (0,)),
                         PauliRotation(PauliString.from_label("XY"), 0.3),
                         CliffordGate("cx", (0, 1)),
                         PauliRotation(PauliString.from_label("ZX"), 0.4)))
    return [(at_angles(target, angles), PauliString.from_label(label))
            for angles, label in (((0.3, 0.4), "ZZ"), ((0.3, 0.4), "ZZ"),
                                  ((math.pi / 2, -1.1), "ZZ"),
                                  ((0.8, math.pi), "ZZ"),
                                  ((0.0, math.pi / 2), "ZI"))]


def test_lockstep_branching_items_keep_their_own_terms():
    items = branching_group()
    for noise in (NoiseModel.depolarizing(lambda2=3e-2, lambda1=1e-2,
                                          readout=2e-2),
                  BIASED_NOISE, ZERO_NOISE):
        groups, got = walked_groups(items, noise)
        assert groups == [list(range(5))]
        assert got[0] == got[1]
        for index, ((circuit, obs), estimate) in enumerate(zip(items, got)):
            want = _exact_noisy_mean(circuit, obs, noise, DEFAULT_MAX_TERMS,
                                     index)
            assert repr(estimate.mean) == repr(want), (noise, index)
            assert estimate.mean == pytest.approx(
                noisy_density_expectation(circuit, obs, noise), abs=1e-12)
        # each item alone gives the same bits
        for index, (circuit, obs) in enumerate(items):
            alone = submit_one(infinite(noise), circuit, obs, PLAN)
            assert repr(alone.mean) == repr(got[index].mean)


def test_walk_drops_a_rows_noisy_and_noiseless_values_together():
    # a rule's mask drops whole rows: walking the branching group while
    # dropping every row of item 1 leaves item 0's noisy and noiseless sums
    # as they are, and item 1's both 0.0; a mask that keeps every row
    # changes nothing, and nor does the items' order
    circuits, observables = zip(*branching_group())
    n = len(circuits)

    def walk(rule, order=range(n)):
        return quepp._walk.walk_rows([circuits[i] for i in order],
                                     [observables[i] for i in order], rule,
                                     BIASED_NOISE)

    sums, peaks = walk(lambda item, coeff, labels: None)
    order = np.random.default_rng(43).permutation(n).tolist()
    assert order != sorted(order)
    moved, moved_peaks = walk(lambda item, coeff, labels: None, order)
    # the noisy sums, then the noiseless ones, and the peaks permute
    assert repr(moved) == repr([sums[i] for i in order]
                               + [sums[n + i] for i in order])
    assert moved_peaks == [peaks[i] for i in order]
    every = walk(lambda item, coeff, labels: np.ones(len(item), bool))
    assert repr(every) == repr((sums, peaks))
    kept, _ = walk(lambda item, coeff, labels: item != 1)
    # item 1 branches, so it had rows to drop and nonzero sums
    assert peaks[1] > 1 and 0.0 not in (sums[1], sums[n + 1])
    assert [repr(kept[i]) for i in (0, n)] == [repr(sums[i]) for i in (0, n)]
    assert [kept[1], kept[n + 1]] == [0.0, 0.0]


def test_lockstep_term_cap_names_the_item(monkeypatch):
    # the items with an exact zero cos or sin peak at two terms and the
    # first item at four, so a cap of two trips only that one, at batch
    # index 3; a zero-weight term kept would trip an earlier item
    group = branching_group()
    batch = [group[4], group[3], group[2], group[0]]
    drawn = []
    monkeypatch.setattr(quepp.backend, "_sampled_estimates",
                        lambda means, plan, noiseless: drawn.extend(means))
    plan = ExecutionPlan(num_twirls=2, shots_per_twirl=10)
    for infinite_shots in (False, True):
        sim = TrajectorySimulator(NoiseModel.depolarizing(), max_terms=2,
                                  infinite_shots=infinite_shots)
        with pytest.raises(CapabilityError, match=r"^item 3: "):
            sim.submit_batch(batch, plan)
    assert drawn == []
    TrajectorySimulator(NoiseModel.depolarizing(), max_terms=4).submit_batch(
        batch, plan)
    assert len(drawn) == 4


@pytest.mark.parametrize("n", [3, 65])
def test_lockstep_batches_match_each_item_alone(n):
    rng = np.random.default_rng(2000 + n)
    # two branching targets, each walking with its paths, and two rebuilt
    # twins that walk alone
    items = quarter_turn_batch(rng, n, 5) + quarter_turn_batch(rng, n, 4)
    assert walked_groups(items)[0] == [list(range(6)), [6],
                                       list(range(7, 12)), [12]]
    noise = NoiseModel.depolarizing(lambda2=3e-2, lambda1=1e-2, readout=2e-2)
    plan = ExecutionPlan(num_twirls=2, shots_per_twirl=30, rng_seed=59)
    assert_items_run_alone(items, noise, plan)


def test_lockstep_wide_rotation_needs_noiseless_gates(monkeypatch):
    target = Circuit(3, (CliffordGate("h", (0,)),
                         PauliRotation(PauliString.from_label("XYZ"), 0.3),
                         CliffordGate("cx", (0, 2)),
                         PauliRotation(PauliString.from_label("ZIZ"), 0.4)))
    items = [(at_angles(target, angles), PauliString.from_label(label))
             for angles, label in (((0.0, math.pi / 2), "ZII"),
                                   ((math.pi / 2, 0.0), "IZI"),
                                   ((-math.pi / 2, math.pi), "ZZZ"),
                                   ((math.pi, math.pi / 2), "XXI"))]
    for noise in (NoiseModel.noiseless(), NoiseModel(readout_flip=0.05)):
        got = infinite(noise).submit_batch(items, PLAN)
        for index, ((circuit, obs), estimate) in enumerate(zip(items, got)):
            want = _exact_noisy_mean(circuit, obs, noise, DEFAULT_MAX_TERMS,
                                     index)
            assert repr(estimate.mean) == repr(want)
            assert estimate.mean == pytest.approx(
                noisy_density_expectation(circuit, obs, noise), abs=1e-12)
    # a gate channel has no 3-qubit entry: the batch fails before any shot
    drawn = []
    monkeypatch.setattr(quepp.backend, "_sampled_estimates",
                        lambda means, plan: drawn.extend(means))
    plan = ExecutionPlan(num_twirls=2, shots_per_twirl=10)
    for batch in (items, [(target, items[0][1])] + items):
        with pytest.raises(CapabilityError):
            TrajectorySimulator(NoiseModel.depolarizing()).submit_batch(
                batch, plan)
    assert drawn == []
    # the density oracle builds its own channels and refuses the same gate
    with pytest.raises(CapabilityError, match="3-qubit"):
        noisy_density_expectation(target, items[0][1],
                                  NoiseModel.depolarizing())


# --- noiseless twins --------------------------------------------------------

def twin_groups():
    """Lockstep groups for the noiseless twins: tricky angles, branching
    items and a group two words wide."""
    return [tricky_angle_group(np.random.default_rng(3300), 5, 8),
            branching_group(),
            tricky_angle_group(np.random.default_rng(3365), 65, 6)]


def test_noiseless_twins_match_the_noiseless_walk():
    # each item's twin walks with the noisy rows, undamped: its value is the
    # floor-free merged walk's to the bit, and None exactly where that
    # walk's peak, which starts at 1, reaches the cap
    noise = NoiseModel.depolarizing(lambda2=3e-2, lambda1=1e-2, readout=2e-2)
    plan = ExecutionPlan(num_twirls=2, shots_per_twirl=30, rng_seed=61)
    kept = dropped = 0
    for items in twin_groups():
        assert walked_groups(items)[0] == [list(range(len(items)))]
        peaks = [merged_bfs_cpt(circuit, obs, [DEFAULT_MAX_TERMS])[0][1]
                 for circuit, obs in items]
        assert max(peaks) > 1
        for cap in sorted({1} | {peak + d for peak in peaks for d in (0, 1)}):
            # an item with more terms than the cap fails the batch
            batch = [item for item, peak in zip(items, peaks) if peak <= cap]
            for infinite_shots in (False, True):
                got = TrajectorySimulator(
                    noise, max_terms=cap,
                    infinite_shots=infinite_shots).submit_batch(batch, plan)
                for (circuit, obs), estimate in zip(batch, got):
                    [(value, peak)] = merged_bfs_cpt(circuit, obs, [cap])
                    want = value if peak < cap else None
                    assert repr(estimate.noiseless) == repr(want), cap
                    # the walk snaps angles within 1e-9 of a quarter turn
                    if want is not None and circuit.num_qubits <= 5:
                        assert want == pytest.approx(
                            sv.expectation(circuit, obs), abs=1e-8)
                    kept += want is not None
                    dropped += want is None
    assert kept >= 20 and dropped >= 20


def test_quepp_references_carry_their_paths_ideal():
    # the target's twin gives the noiseless walk's value and each
    # reference's its path's +-1; the result writes only what was measured
    spec = ExperimentSpec(family="trotter", num_qubits=8, layers=4,
                          rotation_angle=0.7)
    circuit = normalize_rotations(generate_experiment(spec))
    obs = spec.resolved_observable()
    [(value, peak)] = merged_bfs_cpt(circuit, obs, [DEFAULT_MAX_TERMS])
    assert 1 < peak < DEFAULT_MAX_TERMS
    for infinite_shots in (False, True):
        backend = TrajectorySimulator(NoiseModel.depolarizing(),
                                      infinite_shots=infinite_shots)
        result = run_quepp(circuit, obs, backend,
                           ExecutionPlan(num_twirls=2, shots_per_twirl=50,
                                         rng_seed=7),
                           policy=TruncationPolicy.order(4))
        assert repr(result.noisy_target.noiseless) == repr(value)
        assert len(result.records) > 2
        for record in result.records:
            assert record.noisy.noiseless == record.ideal
        assert set(result.to_json_dict()["noisy_target"]) == {
            "mean", "std_error", "total_shots"}
    # the noiseless value is no measurement: it takes no part in equality
    measured = NoisyEstimate(mean=0.5, std_error=0.1, total_shots=10)
    known = NoisyEstimate(mean=0.5, std_error=0.1, total_shots=10,
                          noiseless=0.25)
    assert measured == known and hash(measured) == hash(known)
    assert measured.noiseless is None
