"""Rescaling factors, bounds, and the boosted estimator."""

import dataclasses
import itertools
import math
import statistics

import numpy as np
import pytest

import quepp.backend
from quepp.backend import (ExecutionPlan, NoiseModel, NoisyEstimate,
                           TrajectorySimulator)
from quepp import engine
from quepp import statevector as sv
from quepp.circuits import (Circuit, PauliRotation, inverse_circuit,
                            normalize_rotations)
from quepp.engine import PauliPath, TruncationPolicy
from quepp.errors import (ConsistencyError, DegenerateEtaError,
                          EnumerationLimitError)
from quepp.pauli import PauliString
from quepp.pipeline import (EtaChoice, _bootstrap_variance, _eta_rows,
                            _logsumexp, _ROW_ESTIMATORS,
                            bias_bound_combinatorial, bias_bound_eta,
                            choose_eta, convergence_series, eta_bar,
                            eta_prime, eta_star, make_record, quepp_estimate,
                            ETA_METHODS,
                            run_quepp, variance_bound)
from quepp.sampler import SamplerConfig

from helpers import eta_estimate, random_circuit, random_pauli, submit_one
from oracles import (bem_combine, eta_balance_oracle,
                     eta_weighted_average_oracle, paths_oracle)


def fake_record(g, ideal, eta_value, tag):
    path = PauliPath(
        codes="c",
        coeff=g,
        order=0,
        frame=PauliString.from_label("Z"),
        ideal_expectation=ideal,
        path_id=tag,
    )
    return make_record(path, NoisyEstimate(mean=eta_value * ideal,
                                           std_error=0.0, total_shots=0))


def records_from_etas(etas, g=None):
    g = g if g is not None else [1.0 / len(etas)] * len(etas)
    return [fake_record(gi, 1, eta, f"{i:016d}")
            for i, (gi, eta) in enumerate(zip(g, etas))]


# --- rescaling-factor estimators ---------------------------------------------

def test_median_even_count_uses_midpoint():
    assert eta_estimate(records_from_etas([0.5, 0.9]), "median") \
        == pytest.approx(0.7)
    assert eta_estimate(records_from_etas([0.1, 0.5, 0.9]), "median") \
        == pytest.approx(0.5)


def test_balance_frozen_examples():
    assert eta_estimate(records_from_etas([0.2, 0.3, 0.5]), "balance") == 0.5
    assert eta_estimate(records_from_etas([0.3, 0.7]), "balance") == 0.7
    assert eta_estimate(records_from_etas([0.4]), "balance") == 0.4


def test_weighted_average_hand_oracle():
    records = [fake_record(0.5, 1, 0.9, "a"),
               fake_record(0.3, -1, 0.8, "b"),
               fake_record(0.2, 1, 0.7, "c")]
    # (0.5*0.9 - 0.3*0.8 + 0.2*0.7) / (0.5 - 0.3 + 0.2)
    assert eta_estimate(records, "weighted_average") \
        == pytest.approx(0.875, abs=1e-15)


def test_estimators_coincide_on_uniform_sample():
    records = records_from_etas([0.6] * 7, g=[0.3, 0.1, 0.2, 0.05, 0.15,
                                              0.1, 0.1])
    for method in ETA_METHODS:
        assert eta_estimate(records, method) == pytest.approx(0.6, abs=1e-12)


def test_weighted_average_degenerate_denominator():
    records = [fake_record(0.5, 1, 0.9, "a"), fake_record(0.5, -1, 0.8, "b")]
    with pytest.raises(DegenerateEtaError):
        eta_estimate(records, "weighted_average")
    choice = choose_eta(records, "weighted_average")
    assert choice.method == "median"
    assert choice.value == pytest.approx(0.85)
    candidates = quepp_estimate(records, target_estimate(0.4),
                                choice).eta_candidates
    assert candidates["weighted_average"] is None
    assert candidates["median"] == choice.value


def test_balance_matches_the_run_by_run_scan():
    # small samples from a pool with both signs and both zeros, so ties,
    # runs of equal values and -0.0 beside 0.0 are common
    pool = [-0.5, -0.25, -0.0, 0.0, 0.1, 0.25, 0.3, 0.5, 0.75, 1.0]
    rng = np.random.default_rng(38)
    for _ in range(2000):
        etas = [pool[i] for i in rng.integers(len(pool),
                                              size=rng.integers(1, 9))]
        assert repr(eta_estimate(records_from_etas(etas), "balance")) \
            == repr(eta_balance_oracle(etas))


def test_balance_sits_above_median_on_right_skew():
    rng = np.random.default_rng(70)
    wins = 0
    for _ in range(100):
        etas = rng.beta(2.0, 8.0, size=31)
        records = records_from_etas(list(etas))
        if eta_estimate(records, "balance") >= eta_estimate(records, "median"):
            wins += 1
    assert wins >= 90


def test_extreme_eta_pickers():
    records = records_from_etas([0.5, 0.8])
    assert eta_star(records, 0.7) == 0.5
    assert eta_prime(records, 0.7) == 0.5
    assert eta_bar(records) == pytest.approx(0.65)


def test_choice_validation():
    with pytest.raises(ValueError):
        EtaChoice(method="median", value=0.0)
    with pytest.raises(ValueError):
        EtaChoice(method="median", value=math.inf)
    with pytest.raises(ValueError):
        choose_eta(records_from_etas([0.5]), "mode")
    for fn in (*(lambda records, m=m: eta_estimate(records, m)
                 for m in ETA_METHODS), eta_bar,
               lambda records: eta_star(records, 0.5),
               lambda records: eta_prime(records, 0.5)):
        with pytest.raises(ValueError, match="no records"):
            fn([])


def test_choose_eta_refuses_a_degenerate_eta():
    # the two middle etas have opposite signs, so the median is exactly 0
    records = records_from_etas([-0.8, -0.5, 0.5, 0.9])
    with pytest.raises(DegenerateEtaError, match="median"):
        choose_eta(records, "median")
    # a degenerate weighted average falls back to a median of 0
    records = [fake_record(0.5, 1, 0.5, "a"), fake_record(0.5, -1, -0.5, "b")]
    with pytest.raises(DegenerateEtaError, match="median"):
        choose_eta(records, "weighted_average")
    with pytest.raises(DegenerateEtaError, match="balance"):
        choose_eta(records_from_etas([0.0, 0.0, 0.0]), "balance")


def test_make_record_requires_nonzero_ideal():
    path = PauliPath(
        codes="c",
        coeff=0.4,
        order=0,
        frame=PauliString.from_label("Y"),
        ideal_expectation=0,
        path_id="z",
    )
    with pytest.raises(ValueError, match="path z has ideal expectation 0"):
        make_record(path, NoisyEstimate(mean=0.1, std_error=0.0,
                                        total_shots=0))
    flipped = fake_record(0.4, -1, 0.9, "f")
    assert flipped.eta == pytest.approx(0.9)


# --- variance and bias bounds -------------------------------------------------

def test_variance_bound_arithmetic():
    records = [fake_record(0.6, 1, 0.9, "a"), fake_record(0.5, 1, 0.8, "b")]
    got = variance_bound(records, 0.5, 10 ** 4, p_kt=0.8)
    assert got.gamma == pytest.approx(4.0, abs=1e-15)
    assert got.bound == pytest.approx(3.2e-4, rel=1e-12)
    want_exact = 4.0 * (0.36 * (1 - 0.81) + 0.25 * (1 - 0.64)) / 10 ** 4
    assert got.exact == pytest.approx(want_exact, rel=1e-9)
    assert got.exact <= got.bound


def test_variance_bound_edge_cases():
    records = [fake_record(0.6, 1, 0.9, "a")]
    assert variance_bound(records, 0.5, 0).bound == 0.0
    defaulted = variance_bound(records, 0.5, 100)
    assert defaulted.p_kt == pytest.approx(0.36)
    with pytest.raises(ValueError):
        variance_bound(records, 0.0, 100)


def test_combinatorial_bound_matches_direct_summation():
    k_total, k_t, theta = 50, 30, math.pi / 5
    got = bias_bound_combinatorial(k_total, k_t, theta, 0.7, 0.56)
    s = math.sin(theta)
    want = 0.2 * sum(math.comb(k_total, k) * s ** k
                     for k in range(k_t + 1, k_total + 1))
    assert got.prefactor == pytest.approx(0.2, abs=1e-15)
    assert got.sum_bound == pytest.approx(want, rel=1e-10)
    assert got.closed_form_applicable  # sin(pi/5) <= 31/50
    assert got.closed_form == pytest.approx(
        0.2 * (math.e * k_total * s / (k_t + 1)) ** (k_t + 1), rel=1e-12)
    assert got.closed_form >= got.sum_bound


def test_combinatorial_bound_closed_form_gate():
    got = bias_bound_combinatorial(50, 10, math.pi / 2, 0.7, 0.56)
    assert not got.closed_form_applicable  # sin = 1 > 11/50
    assert got.closed_form is None
    assert got.sum_bound > 0.0


def test_combinatorial_bound_degenerate_cases():
    assert bias_bound_combinatorial(5, 5, 0.3, 0.7, 0.5).sum_bound == 0.0
    assert bias_bound_combinatorial(5, 2, 0.0, 0.7, 0.5).sum_bound == 0.0
    assert bias_bound_combinatorial(5, 2, 0.3, 0.7, 0.7).sum_bound == 0.0
    # at order K the truncation is exact: both forms are 0, and no power is
    # taken, which on 1,200 rotations would pass the float range
    assert bias_bound_combinatorial(5, 5, 0.3, 0.7, 0.5).closed_form == 0.0
    past = bias_bound_combinatorial(1200, 1200, 0.78, 0.7, 0.5)
    assert past.closed_form_applicable and past.sum_bound == 0.0
    assert past.closed_form == 0.0
    assert bias_bound_combinatorial(1200, 1200, 0.78, 0.7,
                                    0.7).closed_form == 0.0
    # below order K a power past the float range is a true but vacuous inf
    over = bias_bound_combinatorial(1500, 1000, 0.66, 0.7, 0.5)
    assert over.closed_form_applicable and over.sum_bound < math.inf
    assert over.closed_form == math.inf
    with pytest.raises(ValueError):
        bias_bound_combinatorial(-1, 0, 0.3, 0.7, 0.5)
    with pytest.raises(ValueError):
        bias_bound_combinatorial(5, 2, 0.3, 0.0, 0.5)


def test_eta_bias_bound_hand_oracle():
    got = bias_bound_eta(0.9, 0.7, 0.5, 0.65, 0.05)
    assert got.worst_case_raw == pytest.approx(0.4 * 0.9 - 0.05, abs=1e-12)
    assert got.average_case_raw == pytest.approx(
        abs(0.7 / 0.65 - 1.0) * 0.9 - 0.05, abs=1e-12)
    assert got.worst_case == got.worst_case_raw
    assert not got.worst_case_raw < 0.0


def test_eta_bias_bound_caps_uniform_noise_at_zero():
    got = bias_bound_eta(0.9, 0.7, 0.7, 0.7, 0.05)
    assert got.worst_case_raw == pytest.approx(-0.05)
    assert got.worst_case == 0.0
    assert got.worst_case_raw < 0.0 and got.average_case_raw < 0.0
    with pytest.raises(DegenerateEtaError):
        bias_bound_eta(0.9, 0.7, 0.0, 0.65, 0.05)
    with pytest.raises(DegenerateEtaError):
        bias_bound_eta(0.9, 0.7, 0.5, 0.0, 0.05)


# --- the combine step ---------------------------------------------------------

def test_bem_reduces_to_rescaled_residual():
    rng = np.random.default_rng(71)
    for trial in range(100):
        k = int(rng.integers(1, 8))
        g = rng.uniform(-1, 1, size=k)
        ideals = rng.choice([-1, 1], size=k)
        noisy = rng.uniform(-1, 1, size=k)
        eta = rng.uniform(0.3, 1.0)
        target = rng.uniform(-1, 1)
        classical = math.fsum(gi * ii for gi, ii in zip(g, ideals))
        boosted = classical + (target - math.fsum(
            gi * ni for gi, ni in zip(g, noisy))) / eta
        via_bem = bem_combine(target / eta, list(ideals),
                              [ni / eta for ni in noisy], list(g))
        assert via_bem == pytest.approx(boosted, abs=1e-12)


def test_bem_empty_ensemble_and_validation():
    assert bem_combine(0.7, [], [], []) == 0.7
    with pytest.raises(ValueError):
        bem_combine(0.7, [1.0], [], [])


# --- assembling results --------------------------------------------------------

def target_estimate(mean, shots=1000):
    se = math.sqrt((1 - mean * mean) / shots) if shots else 0.0
    return NoisyEstimate(mean=mean, std_error=se, total_shots=shots)


def test_quepp_estimate_derives_classical_part():
    records = [fake_record(0.5, 1, 0.9, "a"), fake_record(0.3, -1, 0.8, "b")]
    eta = EtaChoice(method="median", value=0.85)
    result = quepp_estimate(records, target_estimate(0.4), eta)
    assert result.classical_part == math.fsum([0.5, -0.3])
    assert result.residual == pytest.approx(0.4 - (0.5 * 0.9 + 0.3 * -0.8),
                                            abs=1e-12)
    assert result.boosted == result.classical_part + result.residual / 0.85
    assert result.eta_candidates == pytest.approx(
        {"median": 0.85, "weighted_average": 1.05, "balance": 0.9})


def test_quepp_result_rejects_an_inconsistent_residual():
    records = [fake_record(0.5, 1, 0.9, "a")]
    eta = EtaChoice(method="median", value=0.9)
    result = quepp_estimate(records, target_estimate(0.4), eta)
    with pytest.raises(ConsistencyError):
        dataclasses.replace(result, residual=result.residual + 1e-3)


def test_variance_bound_uses_the_fewest_record_shots():
    def record(tag, shots):
        path = fake_record(0.5, 1, 0.9, tag).path
        return make_record(path, NoisyEstimate(mean=0.9, std_error=0.01,
                                               total_shots=shots))

    records = [record("a", 400), record("b", 100)]
    eta = EtaChoice(method="median", value=0.9)
    result = quepp_estimate(records, target_estimate(0.4), eta)
    assert result.variance.shots == 100


def test_quepp_estimate_json_shape():
    records = [fake_record(0.5, 1, 0.9, "a")]
    eta = EtaChoice(method="median", value=0.9)
    result = quepp_estimate(records, target_estimate(0.4), eta,
                            p_kt=0.3, k_total=6, k_t=2, theta_star=0.4)
    data = result.to_json_dict()
    assert set(data) == {
        "classical_part", "noisy_target", "noisy_ensemble_part", "residual",
        "eta", "eta_candidates", "boosted", "boosted_std_error", "gamma",
        "p_kt", "variance", "bias_combinatorial", "bias_eta", "records",
        "sampling_report",
    }
    assert data["p_kt"] == 0.3 == result.variance.p_kt
    assert data["gamma"] == result.variance.gamma
    assert data["records"][0]["path_id"] == "a"
    assert data["bias_combinatorial"] is not None


def test_quepp_estimate_empty_ensemble_rescales_target():
    eta = EtaChoice(method="median", value=0.8)
    result = quepp_estimate([], target_estimate(0.4), eta)
    assert result.boosted == pytest.approx(0.5, abs=1e-12)
    assert result.bias_eta is None and result.bias_combinatorial is None
    assert result.eta_candidates == {}


# --- end to end -----------------------------------------------------------------

PLAN = ExecutionPlan(num_twirls=1, shots_per_twirl=1)


def noiseless_backend():
    return TrajectorySimulator(NoiseModel.noiseless(), infinite_shots=True)


def mirror_circuit(rng, n=2, rotations=2, angle=0.4):
    half = random_circuit(n, 5, rotations, rng, rotation_angle=angle)
    return Circuit(n, half.ops + inverse_circuit(half).ops, half.input_kind)


def test_noiseless_run_telescopes_to_ideal():
    rng = np.random.default_rng(72)
    c = mirror_circuit(rng)
    obs = PauliString.from_label("ZI")
    for k_t in (0, 1, 2):
        result = run_quepp(c, obs, noiseless_backend(), PLAN,
                           policy=TruncationPolicy.order(k_t))
        assert result.eta.value == pytest.approx(1.0, abs=1e-12)
        assert result.boosted == pytest.approx(1.0, abs=1e-12)


def test_run_quepp_requires_one_path_source():
    rng = np.random.default_rng(73)
    c = mirror_circuit(rng)
    obs = PauliString.from_label("ZI")
    with pytest.raises(ValueError):
        run_quepp(c, obs, noiseless_backend(), PLAN)
    with pytest.raises(ValueError):
        run_quepp(c, obs, noiseless_backend(), PLAN,
                  policy=TruncationPolicy.order(1),
                  sampler=SamplerConfig(1, 10))


def test_run_quepp_submits_one_skeleton_group(monkeypatch):
    # every reference is a path circuit of the target, so the backend walks
    # each run's whole batch in one lockstep group: one _frame_means call
    rng = np.random.default_rng(76)
    c = mirror_circuit(rng, n=3, rotations=3)
    obs = PauliString.from_label("ZII")
    walked = []
    frame_means = quepp.backend._frame_means

    def spy(indices, *args):
        walked.append(list(indices))
        return frame_means(indices, *args)

    monkeypatch.setattr(quepp.backend, "_frame_means", spy)
    run_quepp(c, obs, noiseless_backend(), PLAN,
              policy=TruncationPolicy.order(2))
    run_quepp(c, obs, noiseless_backend(), PLAN,
              sampler=SamplerConfig(3, 500, rng_seed=5))
    assert len(walked) == 2
    for indices in walked:
        assert len(indices) > 2 and indices == list(range(len(indices)))


def test_run_quepp_builds_only_executed_paths(monkeypatch):
    # zero-ideal paths are counted, never built; each executed path is
    # built once and realized once
    rng = np.random.default_rng(82)
    c = mirror_circuit(rng, n=3, rotations=3)
    obs = PauliString.from_label("ZII")
    policy = TruncationPolicy.order(3)
    built = []
    make_path = engine._make_path

    def spy(*args):
        built.append(args[0])
        return make_path(*args)

    monkeypatch.setattr(engine, "_make_path", spy)
    result = run_quepp(c, obs, noiseless_backend(), PLAN, policy=policy)
    assert sorted(built) == sorted(r.path.codes for r in result.records)
    monkeypatch.undo()
    stream = list(paths_oracle(normalize_rotations(c), obs, policy))
    assert len(built) == sum(p.ideal_expectation != 0 for p in stream)
    assert len(built) < len(stream)


def test_run_quepp_sampler_saturation():
    from quepp.circuits import PauliRotation
    from quepp.pauli import CliffordGate
    c = Circuit(1, (CliffordGate("h", (0,)),
                    PauliRotation(PauliString.from_label("X"), 0.3)),
                input_kind="all_plus")
    obs = PauliString.from_label("Z")
    config = SamplerConfig(target_unique_paths=2, max_attempts=50, rng_seed=4)
    with pytest.raises(EnumerationLimitError, match="allow_partial=True"):
        run_quepp(c, obs, noiseless_backend(), PLAN, sampler=config)
    result = run_quepp(c, obs, noiseless_backend(), PLAN, sampler=config,
                       allow_partial=True)
    assert result.sampling_report is not None
    assert result.sampling_report.saturated
    assert len(result.records) == 1
    assert result.boosted == pytest.approx(math.cos(0.3), abs=1e-12)


def test_run_quepp_exact_coverage_without_reference_keeps_raw_residual():
    # H|0> measured in Z: every path frame has zero expectation, but an
    # order policy covering all rotations omits nothing, so the run must
    # degrade to the unrescaled measurement rather than refuse.
    from quepp.pauli import CliffordGate
    c = Circuit(1, (CliffordGate("h", (0,)),))
    obs = PauliString.from_label("Z")
    result = run_quepp(c, obs, noiseless_backend(), PLAN,
                       policy=TruncationPolicy.order(0))
    assert result.records == ()
    assert result.eta.method == "unit" and result.eta.value == 1.0
    assert result.classical_part == 0.0
    assert result.boosted == pytest.approx(0.0, abs=1e-12)
    assert result.variance.p_kt == pytest.approx(1.0, abs=1e-12)


def test_run_quepp_exact_coverage_via_commuting_tree():
    # Z rotation commutes with the back-propagated frame, so the tree is a
    # single unit-coefficient path; order 0 still covers everything
    from quepp.circuits import PauliRotation
    from quepp.pauli import CliffordGate
    c = Circuit(1, (CliffordGate("h", (0,)),
                    PauliRotation(PauliString.from_label("Z"), 0.3)))
    obs = PauliString.from_label("Z")
    result = run_quepp(c, obs, noiseless_backend(), PLAN,
                       policy=TruncationPolicy.order(0))
    assert result.eta.method == "unit"
    assert result.boosted == pytest.approx(0.0, abs=1e-12)


def test_run_quepp_truncated_without_reference_still_fails():
    # here the order-0 cut omits sin-branch weight (p_kt = cos^2) and both
    # kept frames have zero expectation, so no rescaling factor exists
    from quepp.circuits import PauliRotation
    from quepp.pauli import CliffordGate
    c = Circuit(1, (CliffordGate("h", (0,)),
                    PauliRotation(PauliString.from_label("X"), 0.3)))
    obs = PauliString.from_label("Z")
    with pytest.raises(EnumerationLimitError):
        run_quepp(c, obs, noiseless_backend(), PLAN,
                  policy=TruncationPolicy.order(0))


def test_run_quepp_coefficient_cut_without_reference_fails():
    # the sine path (weight sin 0.1) falls under the floor and the cosine
    # frame Y has zero expectation: p_kt is 0.990, so paths were omitted and
    # the raw target (-0.0839 here, ideal -0.0998) must not pass as exact
    c = Circuit(1, (PauliRotation(PauliString.from_label("X"), 0.1),))
    obs = PauliString.from_label("Y")
    noise = NoiseModel.depolarizing(lambda2=0.0, lambda1=0.05, readout=0.05)
    backend = TrajectorySimulator(noise, infinite_shots=True)
    for policy in (TruncationPolicy(min_coefficient=0.2),
                   TruncationPolicy(1, 0.2)):
        with pytest.raises(EnumerationLimitError, match="min_coefficient"):
            run_quepp(c, obs, backend, PLAN, policy=policy)
    # the order cut at K keeps the sine path and runs
    result = run_quepp(c, obs, backend, PLAN, policy=TruncationPolicy.order(1))
    assert len(result.records) == 1


def test_only_order_policies_report_the_order_tail_bound():
    # the combinatorial bound sums the orders above k_t; a coefficient floor
    # also drops low-order paths, which no k_t accounts for
    c = random_circuit(3, 12, 5, np.random.default_rng(34),
                       rotation_angle=0.6)
    obs = PauliString.from_label("ZII")
    backend = TrajectorySimulator(NoiseModel.depolarizing(), infinite_shots=True)
    for policy in (TruncationPolicy(min_coefficient=0.2),
                   TruncationPolicy(2, 0.2)):
        result = run_quepp(c, obs, backend, PLAN, policy=policy)
        assert result.records and result.variance.p_kt < 1.0
        assert result.bias_combinatorial is None
        assert result.to_json_dict()["bias_combinatorial"] is None
    result = run_quepp(c, obs, backend, PLAN, policy=TruncationPolicy.order(2))
    assert result.bias_combinatorial is not None


def test_uniform_attenuation_is_rescaled_exactly():
    # readout flips scale every circuit's noiseless mean by one factor, the
    # target's and each reference's alike, so each eta method recovers that
    # factor and the boosted estimate is exact at any truncation order
    backend = TrajectorySimulator(NoiseModel(readout_flip=0.05),
                                  infinite_shots=True)
    rng = np.random.default_rng(16)
    rescaled = dict.fromkeys(ETA_METHODS, 0)
    for _ in range(80):
        for input_kind in ("all_zero", "all_plus"):
            c = random_circuit(4, 12, 5, rng, input_kind=input_kind)
            obs = random_pauli(4, rng)
            ideal = sv.expectation(c, obs)
            for order, method in itertools.product(range(3), ETA_METHODS):
                try:
                    result = run_quepp(c, obs, backend, PLAN,
                                       policy=TruncationPolicy.order(order),
                                       eta_method=method)
                except EnumerationLimitError:
                    continue  # no executable path calibrates the factor
                assert abs(result.boosted - ideal) <= 1e-15, (order, method)
                if result.eta.method == method:
                    rescaled[method] += result.eta.value != 1.0
    assert min(rescaled.values()) >= 40, rescaled


def test_boosted_error_falls_with_the_order():
    # under biased Pauli noise one factor rescales the tail only roughly,
    # so the infinite-shot error falls as the order keeps more of the
    # expansion exact, stays below plain CPT's and below the residual's
    # unrescaled (eta 1) sum, and is rounding once the order covers all
    # eight rotations
    noise = NoiseModel(two_qubit_rates=(("XX", 0.01), ("ZI", 0.015),
                                        ("YZ", 0.006)),
                       single_qubit_rates=(("Z", 0.003),), readout_flip=0.02)
    backend = TrajectorySimulator(noise, infinite_shots=True)
    rng = np.random.default_rng(16)
    errors = []  # per run and order: boosted, CPT and unrescaled errors
    for _ in range(300):
        c = random_circuit(4, 12, 8, rng, input_kind="all_plus")
        letters = rng.choice(["X", "I"], size=4)
        letters[int(rng.integers(4))] = "X"
        obs = PauliString.from_label("".join(letters))
        ideal = sv.expectation(c, obs)
        try:
            results = [run_quepp(c, obs, backend, PLAN,
                                 policy=TruncationPolicy.order(k_t))
                       for k_t in range(9)]
        except (EnumerationLimitError, DegenerateEtaError):
            continue  # the set keeps the runs that succeed at every order
        errors.append([(abs(r.boosted - ideal), abs(r.classical_part - ideal),
                        abs(r.classical_part + r.residual - ideal))
                       for r in results])
        if len(errors) == 40:
            break
    assert len(errors) == 40
    boosted, cpt, unrescaled = np.mean(errors, axis=0).T
    for k_t in range(1, 9):
        assert boosted[k_t] <= boosted[k_t - 1] \
            or max(boosted[k_t - 1:k_t + 1]) <= 1e-15, (k_t, boosted)
    assert boosted[8] <= 1e-15
    for other in (cpt, unrescaled):
        assert all(b < o for b, o in zip(boosted, other) if o > 1e-12), \
            (boosted, other)


def test_run_quepp_matches_manual_assembly():
    # the pipeline is glue: enumeration + backend + estimator must equal
    # doing the same steps by hand
    rng = np.random.default_rng(74)
    c = mirror_circuit(rng, rotations=3)
    obs = PauliString.from_label("ZI")
    noise = NoiseModel.depolarizing(lambda2=2e-2, lambda1=5e-3, readout=1e-2)
    backend = TrajectorySimulator(noise, infinite_shots=True)
    result = run_quepp(c, obs, backend, PLAN,
                       policy=TruncationPolicy.order(1),
                       eta_method="weighted_average")
    from quepp.circuits import normalize_rotations
    from quepp.engine import classical_cpt_estimate, path_to_circuit
    norm = normalize_rotations(c)
    paths = [p for p in paths_oracle(norm, obs, TruncationPolicy.order(1))
             if p.ideal_expectation != 0]
    classical = classical_cpt_estimate(paths)
    target = submit_one(backend, norm, obs, PLAN)
    records = [make_record(p, submit_one(backend,
                                         path_to_circuit(norm, p.codes),
                                         obs, PLAN))
               for p in paths]
    eta = choose_eta(records, "weighted_average")
    assert result.eta.value == pytest.approx(eta.value, abs=1e-14)
    want = classical + (target.mean - math.fsum(
        r.path.coeff * r.noisy.mean for r in records)) / eta.value
    assert result.boosted == pytest.approx(want, abs=1e-12)


def test_convergence_series_prefixes():
    records = records_from_etas([0.8, 0.7, 0.9, 0.75],
                                g=[0.4, 0.3, 0.2, 0.1])
    target = target_estimate(0.5)
    series = convergence_series(records, target, sizes=[1, 2, 4], seed=1)
    assert [row["size"] for row in series] == [1, 2, 4]
    full = series[-1]
    eta = choose_eta(records, "median")
    by_hand = quepp_estimate(records, target, eta)
    assert full["classical_part"] == by_hand.classical_part
    assert full["boosted"] == pytest.approx(by_hand.boosted, abs=1e-12)
    assert full["std_error"] >= by_hand.boosted_std_error
    with pytest.raises(ValueError):
        convergence_series(records, target, sizes=[0])
    with pytest.raises(ValueError):
        convergence_series(records, target, sizes=[5])


def bootstrap_eta_variance(records, method, num_resamples=200, seed=0):
    """The bootstrap variance of the records' eta, as the convergence
    series takes it: ``_eta_rows`` on one (R, n) draw from a generator of
    ``seed``, then ``_bootstrap_variance``."""
    if not records:
        raise ValueError("no records")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    picks = rng.integers(0, len(records), size=(num_resamples, len(records)))
    values, _ = _eta_rows(method, picks, np.array([r.eta for r in records]),
                          np.array([r.path.coeff * r.ideal for r in records]))
    return _bootstrap_variance(values)


@pytest.mark.parametrize("method", ETA_METHODS)
def test_series_errors_rebuild_from_each_prefix_bootstrap(method):
    # two zero etas come first, so the shortest prefixes cannot rescale
    # and their rows report None
    rng = np.random.default_rng(41)
    etas = [0.0, 0.0] + rng.uniform(0.5, 0.9, 14).tolist()
    records = [fake_record(float(g), int(ideal), eta, f"{i:016d}")
               for i, (g, ideal, eta) in enumerate(zip(
                   rng.uniform(-0.3, 0.3, 16), rng.choice([1, -1], 16),
                   etas))]
    records = [dataclasses.replace(r, noisy=dataclasses.replace(
        r.noisy, std_error=0.01 * (i % 4))) for i, r in enumerate(records)]
    target = target_estimate(0.4)
    series = convergence_series(records, target, eta_method=method,
                                bootstrap_resamples=50, seed=9)
    assert [row["size"] for row in series] == list(range(1, 17))
    rebuilt = 0
    for row in series:
        prefix = records[:row["size"]]
        eta = row["eta"]
        if eta is None:
            assert row["std_error"] is None and row["boosted"] is None
            continue
        eta_var = bootstrap_eta_variance(prefix, method, num_resamples=50,
                                         seed=9)
        shot_error = math.sqrt(target.std_error ** 2 + math.fsum(
            (r.path.coeff * r.noisy.std_error) ** 2 for r in prefix)) / abs(eta)
        want = math.sqrt(shot_error ** 2
                         + (row["residual"] / eta ** 2) ** 2 * eta_var)
        assert repr(row["std_error"]) == repr(want), row
        rebuilt += eta_var > 0.0
    assert rebuilt >= 10 and series[0]["eta"] is None


def reference_bootstrap_values(records, method, num_resamples, seed):
    """Per resample, the eta choose_eta reports; skipped where it refuses."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    values = []
    for _ in range(num_resamples):
        picks = rng.integers(0, len(records), size=len(records))
        try:
            values.append(choose_eta([records[i] for i in picks],
                                     method).value)
        except DegenerateEtaError:
            continue
    return values


@pytest.mark.parametrize("method", ETA_METHODS)
def test_bootstrap_resamples_match_choose_eta(method):
    # zero etas make some resample medians zero; the +-1 ideals make some
    # weighted-average denominators vanish
    with_zeros = records_from_etas([0.0, 0.0, 0.9, 0.6, 0.8, 0.7])
    degenerate = [fake_record(0.25, 1, 0.9, "a"), fake_record(0.25, -1, 0.8, "b"),
                  fake_record(0.25, 1, 0.6, "c"), fake_record(0.25, -1, 0.7, "d")]
    # many distinct etas of both signs, for the variance's last bits
    spread = records_from_etas(
        np.random.default_rng(5).uniform(-1.0, 1.0, 40).tolist())
    for records in (with_zeros, degenerate, spread):
        values = reference_bootstrap_values(records, method, 200, seed=4)
        got = bootstrap_eta_variance(records, method, num_resamples=200,
                                     seed=4)
        assert got == float(np.var(values, ddof=1))
    assert len(reference_bootstrap_values(with_zeros, "median", 200, 4)) < 200


@pytest.mark.parametrize("n", [1, 2, 7, 10])
def test_one_bootstrap_draw_equals_a_draw_per_resample(n):
    # the bootstrap draws all its picks in one (R, n) call, which
    # must give each resample the picks of its own size-n call
    for seed in range(3):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        rows = [rng.integers(0, n, size=n) for _ in range(100)]
        block = np.random.default_rng(np.random.SeedSequence(seed)).integers(
            0, n, size=(100, n))
        assert np.array_equal(block, np.array(rows))


@pytest.mark.parametrize("n", [1, 2, 5, 6])
def test_row_estimators_match_their_references(n):
    # nine records with few distinct etas of both signs, 0.0 and -0.0
    # among them, and weights that cancel, exactly or (0.1 + 0.2 - 0.3) to
    # rounding: rows tie, repeat their middle elements and leave weighted
    # averages degenerate
    etas = np.array([0.3, 0.7, -0.2, 0.0, 0.7000000000000001, -0.0, 0.7,
                     0.9, -0.4])
    g_ideal = np.array([0.25, -0.25, 0.5, -0.5, 0.25, 0.125, 0.1, 0.2, -0.3])
    picks = np.random.default_rng(300 + n).integers(0, 9, size=(600, n))
    references = {
        "median": lambda row: statistics.median(etas[row].tolist()),
        "balance": lambda row: eta_balance_oracle(etas[row].tolist()),
        "weighted_average": lambda row: eta_weighted_average_oracle(
            etas[row].tolist(), g_ideal[row].tolist()),
    }
    for method, estimator in _ROW_ESTIMATORS.items():
        got = estimator(picks, etas, g_ideal)
        assert [repr(float(value)) for value in got] \
            == [repr(references[method](row)) for row in picks], method
    degenerate = np.isnan(_ROW_ESTIMATORS["weighted_average"](
        picks, etas, g_ideal))
    assert degenerate.any() != (n == 1) and not degenerate.all()


def test_logsumexp_matches_scipy_bit_for_bit():
    from scipy.special import logsumexp
    rng = np.random.default_rng(91)
    cases = [[1.0, 1.0], [0.5, 0.5, 0.2], [3.0], [2.0, 2.0, 2.0, 1.9]]
    for _ in range(2000):
        # the log terms bias_bound_combinatorial sums
        k_total = int(rng.integers(1, 120))
        k_t = int(rng.integers(0, k_total))
        log_s = math.log(abs(math.sin(rng.uniform(-math.pi, math.pi))))
        cases.append([math.lgamma(k_total + 1) - math.lgamma(k + 1)
                      - math.lgamma(k_total - k + 1) + k * log_s
                      for k in range(k_t + 1, k_total + 1)])
    for values in cases:
        assert repr(float(_logsumexp(values))) == repr(float(logsumexp(values)))


@pytest.mark.parametrize("etas, num_resamples",
                         [([0.0] * 4, 200), ([0.4, 0.9, 0.6], 1)],
                         ids=["zero-etas", "one-resample"])
def test_eta_variance_needs_two_usable_resamples(etas, num_resamples):
    # a zero eta cannot rescale, so zero etas leave no usable resample, and
    # one resample has no spread: the variance is 0
    records = records_from_etas(etas)
    for method in ETA_METHODS:
        assert bootstrap_eta_variance(records, method,
                                      num_resamples=num_resamples) == 0.0


def test_bootstrap_eta_variance_behaviour():
    uniform = records_from_etas([0.7] * 6)
    assert bootstrap_eta_variance(uniform, "median", seed=2) == 0.0
    spread = records_from_etas([0.4, 0.9, 0.6, 0.8, 0.5, 0.7])
    assert bootstrap_eta_variance(spread, "median", seed=2) > 0.0
    with pytest.raises(ValueError):
        bootstrap_eta_variance([], "median")
    with pytest.raises(ValueError):
        bootstrap_eta_variance(uniform, "mode")
