"""Rescaling factors, bounds, and the boosted estimator."""

import math

import numpy as np
import pytest

from quepp.backend import (ExecutionPlan, NoiseModel, NoisyEstimate,
                           TrajectorySimulator)
from quepp.backprop import BranchAssignment, COS
from quepp.circuits import Circuit, inverse_circuit
from quepp.engine import (PathCoefficient, PauliPath, TruncationPolicy,
                          enumerate_paths)
from quepp.errors import ConsistencyError, DegenerateEtaError
from quepp.pauli import PauliString
from quepp.pipeline import (EtaChoice, bem_combine, bias_bound_combinatorial,
                            bias_bound_eta, bootstrap_eta_variance,
                            choose_eta, convergence_series, eta_balance,
                            eta_bar, eta_median, eta_prime, eta_star,
                            eta_weighted_average, make_record, quepp_estimate,
                            ETA_METHODS,
                            run_quepp, variance_bound)
from quepp.sampler import SamplerConfig

from helpers import random_circuit


def fake_record(g, ideal, eta_value, tag):
    path = PauliPath(
        branches=BranchAssignment(((1, COS),)),
        coeff=PathCoefficient(value=g, order=0, sin_indices=frozenset(),
                              cos_indices=frozenset({1})),
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
    assert eta_median(records_from_etas([0.5, 0.9])) == pytest.approx(0.7)
    assert eta_median(records_from_etas([0.1, 0.5, 0.9])) == pytest.approx(0.5)


def test_balance_frozen_examples():
    assert eta_balance(records_from_etas([0.2, 0.3, 0.5])) == 0.5
    assert eta_balance(records_from_etas([0.3, 0.7])) == 0.7
    assert eta_balance(records_from_etas([0.4])) == 0.4


def test_weighted_average_hand_oracle():
    records = [fake_record(0.5, 1, 0.9, "a"),
               fake_record(0.3, -1, 0.8, "b"),
               fake_record(0.2, 1, 0.7, "c")]
    # (0.5*0.9 - 0.3*0.8 + 0.2*0.7) / (0.5 - 0.3 + 0.2)
    assert eta_weighted_average(records) == pytest.approx(0.875, abs=1e-15)


def test_estimators_coincide_on_uniform_sample():
    records = records_from_etas([0.6] * 7, g=[0.3, 0.1, 0.2, 0.05, 0.15,
                                              0.1, 0.1])
    assert eta_median(records) == pytest.approx(0.6, abs=1e-12)
    assert eta_balance(records) == pytest.approx(0.6, abs=1e-12)
    assert eta_weighted_average(records) == pytest.approx(0.6, abs=1e-12)


def test_weighted_average_degenerate_denominator():
    records = [fake_record(0.5, 1, 0.9, "a"), fake_record(0.5, -1, 0.8, "b")]
    with pytest.raises(DegenerateEtaError):
        eta_weighted_average(records)
    choice, candidates = choose_eta(records, "weighted_average")
    assert choice.method == "median"
    assert choice.value == pytest.approx(0.85)
    assert candidates["weighted_average"] is None


def test_balance_sits_above_median_on_right_skew():
    rng = np.random.default_rng(70)
    wins = 0
    for _ in range(100):
        etas = rng.beta(2.0, 8.0, size=31)
        records = records_from_etas(list(etas))
        if eta_balance(records) >= eta_median(records):
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
    for fn in (eta_median, eta_balance, eta_weighted_average, eta_bar):
        with pytest.raises(ValueError):
            fn([])


def test_make_record_requires_nonzero_ideal():
    path = PauliPath(
        branches=BranchAssignment(((1, COS),)),
        coeff=PathCoefficient(value=0.4, order=0, sin_indices=frozenset(),
                              cos_indices=frozenset({1})),
        frame=PauliString.from_label("Y"),
        ideal_expectation=0,
        path_id="z",
    )
    with pytest.raises(ValueError):
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
    assert not got.worst_case_capped


def test_eta_bias_bound_caps_uniform_noise_at_zero():
    got = bias_bound_eta(0.9, 0.7, 0.7, 0.7, 0.05)
    assert got.worst_case_raw == pytest.approx(-0.05)
    assert got.worst_case == 0.0
    assert got.worst_case_capped and got.average_case_capped
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


def test_quepp_estimate_checks_classical_part():
    records = [fake_record(0.5, 1, 0.9, "a"), fake_record(0.3, -1, 0.8, "b")]
    eta = EtaChoice(method="median", value=0.85)
    with pytest.raises(ConsistencyError):
        quepp_estimate(records, target_estimate(0.4), 0.9, eta)
    result = quepp_estimate(records, target_estimate(0.4), 0.2, eta)
    assert result.residual == pytest.approx(0.4 - (0.5 * 0.9 + 0.3 * -0.8),
                                            abs=1e-12)
    assert result.boosted == result.classical_part + result.residual / 0.85


def test_quepp_estimate_json_shape():
    records = [fake_record(0.5, 1, 0.9, "a")]
    eta = EtaChoice(method="median", value=0.9)
    result = quepp_estimate(records, target_estimate(0.4), 0.5, eta,
                            p_kt=0.3, k_total=6, k_t=2, theta_star=0.4)
    data = result.to_json_dict()
    assert set(data) == {
        "classical_part", "noisy_target", "noisy_ensemble_part", "residual",
        "eta", "eta_candidates", "boosted", "boosted_std_error", "gamma",
        "p_kt", "variance", "bias_combinatorial", "bias_eta", "records",
        "sampling_report",
    }
    assert data["p_kt"] == 0.3
    assert data["records"][0]["path_id"] == "a"
    assert data["bias_combinatorial"] is not None


def test_quepp_estimate_empty_ensemble_rescales_target():
    eta = EtaChoice(method="median", value=0.8)
    result = quepp_estimate([], target_estimate(0.4), 0.0, eta)
    assert result.boosted == pytest.approx(0.5, abs=1e-12)
    assert result.bias_eta is None and result.bias_combinatorial is None


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


def test_run_quepp_sampler_saturation():
    from quepp.circuits import PauliRotation
    from quepp.pauli import CliffordGate
    c = Circuit(1, (CliffordGate("h", (0,)),
                    PauliRotation(PauliString.from_label("X"), 0.3)),
                input_kind="all_plus")
    obs = PauliString.from_label("Z")
    config = SamplerConfig(target_unique_paths=2, max_attempts=50, rng_seed=4)
    with pytest.raises(ConsistencyError):
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
    assert result.p_kt == pytest.approx(1.0, abs=1e-12)


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
    with pytest.raises(ConsistencyError):
        run_quepp(c, obs, noiseless_backend(), PLAN,
                  policy=TruncationPolicy.order(0))


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
    paths = [p for p in enumerate_paths(norm, obs, TruncationPolicy.order(1),
                                        keep_zero_expectation=True)
             if p.ideal_expectation != 0]
    classical = classical_cpt_estimate(paths)
    target = backend.estimate(norm, obs, PLAN)
    records = [make_record(p, backend.estimate(path_to_circuit(norm, p.branches),
                                               obs, PLAN))
               for p in paths]
    eta, _ = choose_eta(records, "weighted_average")
    assert result.eta.value == pytest.approx(eta.value, abs=1e-14)
    want = classical + (target.mean - math.fsum(
        r.path.coeff.value * r.noisy.mean for r in records)) / eta.value
    assert result.boosted == pytest.approx(want, abs=1e-12)


def test_convergence_series_prefixes():
    records = records_from_etas([0.8, 0.7, 0.9, 0.75],
                                g=[0.4, 0.3, 0.2, 0.1])
    target = target_estimate(0.5)
    series = convergence_series(records, target, sizes=[1, 2, 4], seed=1)
    assert [row["size"] for row in series] == [1, 2, 4]
    full = series[-1]
    eta, _ = choose_eta(records, "median")
    classical = math.fsum(r.path.coeff.value * r.ideal for r in records)
    by_hand = quepp_estimate(records, target, classical, eta)
    assert full["boosted"] == pytest.approx(by_hand.boosted, abs=1e-12)
    assert full["std_error"] >= by_hand.boosted_std_error
    with pytest.raises(ValueError):
        convergence_series(records, target, sizes=[0])
    with pytest.raises(ValueError):
        convergence_series(records, target, sizes=[5])


def reference_bootstrap_values(records, method, num_resamples, seed):
    """Per resample, the eta choose_eta reports; skipped where it refuses."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    values = []
    for _ in range(num_resamples):
        picks = rng.integers(0, len(records), size=len(records))
        try:
            values.append(choose_eta([records[i] for i in picks],
                                     method)[0].value)
        except ValueError:
            continue
    return values


@pytest.mark.parametrize("method", ETA_METHODS)
def test_bootstrap_resamples_match_choose_eta(method):
    # zero etas make some resample medians zero; the +-1 ideals make some
    # weighted-average denominators vanish
    with_zeros = records_from_etas([0.0, 0.0, 0.9, 0.6, 0.8, 0.7])
    degenerate = [fake_record(0.25, 1, 0.9, "a"), fake_record(0.25, -1, 0.8, "b"),
                  fake_record(0.25, 1, 0.6, "c"), fake_record(0.25, -1, 0.7, "d")]
    for records in (with_zeros, degenerate):
        values = reference_bootstrap_values(records, method, 200, seed=4)
        got = bootstrap_eta_variance(records, method, num_resamples=200,
                                     seed=4)
        assert got == float(np.var(values, ddof=1))
    assert len(reference_bootstrap_values(with_zeros, "median", 200, 4)) < 200


def test_bootstrap_eta_variance_behaviour():
    uniform = records_from_etas([0.7] * 6)
    assert bootstrap_eta_variance(uniform, "median", seed=2) == 0.0
    spread = records_from_etas([0.4, 0.9, 0.6, 0.8, 0.5, 0.7])
    assert bootstrap_eta_variance(spread, "median", seed=2) > 0.0
    with pytest.raises(ValueError):
        bootstrap_eta_variance([], "median")
    with pytest.raises(ValueError):
        bootstrap_eta_variance(uniform, "mode")
