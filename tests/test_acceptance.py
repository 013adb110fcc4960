"""Whole-package acceptance suite.

Every published capability is exercised end to end at its stated
tolerance: exactness of the untruncated expansion, the one-qubit two-path
decomposition, the boosted estimator beating both its inputs on mirror
benchmarks, Monte Carlo convergence on a deep circuit, a rotation-angle
sweep against a dense oracle, the variance and bias bounds, the sampling
distribution laws, estimator algebra, and bit-exact reruns.  Each test
prints one summary line with the measured numbers.
"""

import filecmp
import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from helpers import eta_estimate, random_circuit
from oracles import (bem_combine, circuit_unitary,
                     empirical_distribution_check, pauli_matrix,
                     paths_oracle)
from quepp import cli
from quepp import statevector as sv
from quepp.circuits import (Circuit, PauliRotation, inverse_circuit,
                            normalize_rotations)
from quepp.backend import ExecutionPlan, NoiseModel, TrajectorySimulator
from quepp.engine import (TruncationPolicy, classical_cpt_estimate,
                          enumerate_paths_parallel)
from quepp.errors import EnumerationLimitError
from quepp.experiments import ExperimentSpec, generate_experiment
from quepp.pauli import CliffordGate, PauliString
from quepp.pipeline import (EnsembleRecord, NoisyEstimate,
                            ETA_METHODS, choose_eta, convergence_series,
                            make_record, run_quepp)
from quepp.sampler import D_POSTSELECTED, D_TILDE, SamplerConfig
from quepp.engine import PauliPath

DEFAULT_NOISE = NoiseModel.depolarizing()
PLAN = ExecutionPlan(num_twirls=100, shots_per_twirl=200, rng_seed=5)


def z_on_first(n: int) -> PauliString:
    return PauliString.from_label("Z" + "I" * (n - 1))


def untruncated(circuit: Circuit) -> TruncationPolicy:
    return TruncationPolicy.order(circuit.num_rotations)


def synthetic_record(g: float, ideal: float, noisy_mean: float,
                     tag: str) -> EnsembleRecord:
    path = PauliPath(
        codes="c",
        coeff=g,
        order=0,
        frame=PauliString.from_label("Z"),
        ideal_expectation=ideal,
        path_id=tag,
    )
    return make_record(path, NoisyEstimate(mean=noisy_mean, std_error=0.0,
                                           total_shots=0))


def records_with_etas(etas, weights=None) -> list[EnsembleRecord]:
    if weights is None:
        weights = [1.0 / len(etas)] * len(etas)
    return [synthetic_record(g, 1.0, e, f"{i:016x}")
            for i, (e, g) in enumerate(zip(etas, weights))]


def test_01_untruncated_expansion_matches_dense_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 11))
        k = int(rng.integers(1, 9))
        depth = k + int(rng.integers(2, 8))
        circuit = random_circuit(n, depth, k, rng, rotation_weight=2)
        obs = z_on_first(n)
        norm = normalize_rotations(circuit)
        paths = enumerate_paths_parallel(norm, obs, untruncated(norm))
        estimate = classical_cpt_estimate(paths.executed)
        oracle = sv.expectation(circuit, obs)
        worst = max(worst, abs(estimate - oracle))
        assert estimate == pytest.approx(oracle, abs=1e-10)
    elapsed = time.monotonic() - started
    print(f"[01] untruncated expansion vs dense oracle: max |err| = "
          f"{worst:.2e} over 50 circuits (n<=10, K<=8) in {elapsed:.0f}s")
    assert elapsed < 120


def test_02_two_path_decomposition_is_exact():
    rng = np.random.default_rng(102)
    worst_coeff = worst_identity = 0.0
    for _ in range(10):
        theta = float(rng.uniform(0.05, 3.0))
        circuit = Circuit(1, (CliffordGate("h", (0,)),
                              PauliRotation(PauliString.from_label("X"),
                                            theta)))
        obs = PauliString.from_label("Z")
        norm = normalize_rotations(circuit)
        paths = list(paths_oracle(norm, obs, untruncated(norm)))
        assert len(paths) == 2
        # normalization may relabel the branches, so compare the signed
        # amplitude each path puts on the +X and +Y axes
        amplitude = {"X": 0.0, "Y": 0.0}
        for p in paths:
            label = p.frame.label()
            sign = -1.0 if label.startswith("-") else 1.0
            amplitude[label.lstrip("-")] += sign * p.coeff
        worst_coeff = max(worst_coeff,
                          abs(amplitude["X"] - math.cos(theta)),
                          abs(amplitude["Y"] + math.sin(theta)))
        assert amplitude["X"] == pytest.approx(math.cos(theta), abs=1e-12)
        assert amplitude["Y"] == pytest.approx(-math.sin(theta), abs=1e-12)

        # the same statement as an operator identity on a random state
        state = rng.normal(size=2) + 1j * rng.normal(size=2)
        state /= np.linalg.norm(state)
        unitary = circuit_unitary(circuit)
        evolved = unitary @ state
        lhs = np.vdot(evolved,
                      pauli_matrix(obs) @ evolved).real
        pauli_x = pauli_matrix(PauliString.from_label("X"))
        pauli_y = pauli_matrix(PauliString.from_label("Y"))
        rhs = (math.cos(theta) * np.vdot(state, pauli_x @ state).real
               - math.sin(theta) * np.vdot(state, pauli_y @ state).real)
        worst_identity = max(worst_identity, abs(lhs - rhs))
        assert lhs == pytest.approx(rhs, abs=1e-12)
    print(f"[02] two-path decomposition: max coefficient err = "
          f"{worst_coeff:.2e}, max operator-identity err = "
          f"{worst_identity:.2e} over 10 angles")


def test_03_boosted_estimate_beats_cpt_and_unmitigated_on_mirror():
    started = time.monotonic()
    spec = ExperimentSpec(family="mirror2d", num_qubits=10, layers=8,
                          rotation_angle=math.pi / 5, rng_seed=11,
                          p_rx=0.35)
    circuit = generate_experiment(spec)
    obs = spec.resolved_observable()
    backend = TrajectorySimulator(DEFAULT_NOISE)

    rows = []
    for k_t in (1, 2, 3):
        result = run_quepp(circuit, obs, backend, PLAN,
                           policy=TruncationPolicy.order(k_t))
        q_err = abs(result.boosted - 1.0)
        cpt_err = abs(result.classical_part - 1.0)
        raw_err = abs(result.noisy_target.mean - 1.0)
        se = result.boosted_std_error
        rows.append((k_t, q_err, cpt_err, raw_err, se))
        assert cpt_err - q_err > 3 * se
        assert raw_err - q_err > 3 * se
    for (_, prev_err, _, _, prev_se), (_, next_err, _, _, next_se) \
            in zip(rows, rows[1:]):
        assert next_err <= prev_err + 3 * math.hypot(prev_se, next_se)
    elapsed = time.monotonic() - started
    detail = "  ".join(
        f"K_T={k}: |q-1|={q:.4f} |cpt-1|={c:.4f} |raw-1|={r:.4f} se={s:.4f}"
        for k, q, c, r, s in rows)
    print(f"[03] mirror boost: {detail} ({elapsed:.0f}s)")
    assert elapsed < 600


def two_qubit_depth(circuit: Circuit) -> int:
    depth = [0] * circuit.num_qubits
    for op in circuit.ops:
        if isinstance(op, CliffordGate) and len(op.qubits) == 2:
            a, b = op.qubits
            depth[a] = depth[b] = max(depth[a], depth[b]) + 1
    return max(depth)


def test_04_sampled_ensemble_converges_on_deep_mirror():
    started = time.monotonic()
    spec = ExperimentSpec(family="mirror1d", num_qubits=12, layers=20,
                          rotation_angle=math.pi / 5, rng_seed=11,
                          p_single=0.5, p_cz=1.0, p_rx=0.2)
    circuit = generate_experiment(spec)
    assert two_qubit_depth(circuit) >= 40
    obs = spec.resolved_observable()
    backend = TrajectorySimulator(DEFAULT_NOISE)
    sampler = SamplerConfig(target_unique_paths=64, max_attempts=100_000,
                            rng_seed=7)

    result = run_quepp(circuit, obs, backend, PLAN, sampler=sampler)
    series = convergence_series(result.records, result.noisy_target)
    ses = [row["std_error"] for row in series]
    final = series[-1]

    # a one-record bootstrap cannot see the eta spread, so the comparison
    # starts once the error bar is meaningful
    assert ses[-1] < ses[3]
    assert np.mean(ses[32:]) < np.mean(ses[3:32])
    assert abs(final["boosted"] - 1.0) <= 2 * final["std_error"]
    elapsed = time.monotonic() - started
    print(f"[04] deep-mirror sampling: {len(series)} paths, se "
          f"{ses[3]:.4f} -> {ses[-1]:.4f}, final {final['boosted']:.4f} "
          f"+/- {final['std_error']:.4f} covers 1.0 ({elapsed:.0f}s)")
    assert elapsed < 1200


def test_05_angle_sweep_tracks_oracle_where_cpt_fails():
    started = time.monotonic()
    base = ExperimentSpec(family="trotter", num_qubits=10, layers=2,
                          rotation_angle=0.0)
    obs = base.resolved_observable()
    backend = TrajectorySimulator(DEFAULT_NOISE)
    policy = TruncationPolicy.order(3)
    thetas = np.linspace(0.0, math.pi, 21)

    rows = []
    for theta in thetas:
        circuit = generate_experiment(base.with_angle(float(theta)))
        oracle = sv.expectation(circuit, obs)
        norm = normalize_rotations(circuit)
        cpt = classical_cpt_estimate(
            enumerate_paths_parallel(norm, obs, policy).executed)
        result = run_quepp(circuit, obs, backend, PLAN, policy=policy)
        rows.append((oracle, cpt, result.boosted, result.boosted_std_error))

    for idx in (0, 10, 20):  # theta = 0, pi/2, pi are fully Clifford
        oracle, cpt, boosted, se = rows[idx]
        assert cpt == pytest.approx(oracle, abs=1e-10)
        assert abs(boosted - oracle) <= 3 * se

    hard = [(abs(c - o), abs(q - o), s) for o, c, q, s in rows
            if abs(c - o) > 0.1]
    wins = sum(q_err + 3 * se < cpt_err for cpt_err, q_err, se in hard)
    elapsed = time.monotonic() - started
    print(f"[05] trotter sweep: {len(hard)} hard points, boosted wins "
          f"{wins}/{len(hard)} with 3-sigma margin; Clifford points within "
          f"shot noise ({elapsed:.0f}s)")
    assert len(hard) >= 4
    assert wins / len(hard) >= 0.8
    assert elapsed < 900


def test_06_reseeded_variance_stays_under_bound():
    started = time.monotonic()
    spec = ExperimentSpec(family="mirror1d", num_qubits=3, layers=2,
                          rotation_angle=math.pi / 5, rng_seed=9, p_rx=0.6)
    circuit = generate_experiment(spec)
    obs = spec.resolved_observable()
    policy = TruncationPolicy.order(2)

    boosted, bounds = [], []
    for seed in range(200):
        backend = TrajectorySimulator(DEFAULT_NOISE)
        plan = ExecutionPlan(num_twirls=20, shots_per_twirl=50,
                             rng_seed=1000 + seed)
        result = run_quepp(circuit, obs, backend, plan, policy=policy)
        boosted.append(result.boosted)
        bounds.append(result.variance.bound)

    sample_var = float(np.var(boosted, ddof=1))
    bound = min(bounds)
    # one-sided 99% upper confidence bound on the true variance
    upper = 199 * sample_var / stats.chi2.ppf(0.01, 199)
    elapsed = time.monotonic() - started
    print(f"[06] variance over 200 reseeded runs: s^2 = {sample_var:.2e}, "
          f"99% upper bound {upper:.2e} <= gamma P / N = {bound:.2e} "
          f"({elapsed:.0f}s)")
    assert upper <= bound


def biased_noise(rng: np.random.Generator) -> NoiseModel:
    # skew the channel toward a few Paulis so frames of different type
    # attenuate differently
    return NoiseModel(
        two_qubit_rates=(("XX", float(rng.uniform(0.001, 0.02))),
                         ("ZI", float(rng.uniform(0.001, 0.02))),
                         ("YZ", float(rng.uniform(0.001, 0.01)))),
        single_qubit_rates=(("Z", float(rng.uniform(0.0005, 0.004))),),
        readout_flip=float(rng.uniform(0.0, 0.03)),
    )


def test_07_bias_bounds_cover_measured_error():
    plan = ExecutionPlan(1, 1)

    # noiseless sanity: the ensemble telescopes exactly, the bound must
    # never be undercut
    rng = np.random.default_rng(21)
    noiseless = TrajectorySimulator(NoiseModel.noiseless(),
                                    infinite_shots=True)
    sanity = 0
    for _ in range(20):
        n = int(rng.integers(2, 5))
        half = random_circuit(n, 4, int(rng.integers(1, 4)), rng,
                              rotation_angle=0.5)
        circuit = Circuit(n, half.ops + inverse_circuit(half).ops,
                          half.input_kind)
        k_t = int(rng.integers(0, 3))
        result = run_quepp(circuit, z_on_first(n), noiseless, plan,
                           policy=TruncationPolicy.order(k_t))
        bound = result.bias_combinatorial
        assert bound is not None
        assert abs(result.boosted - 1.0) <= bound.sum_bound + 1e-12
        sanity += 1

    # noisy desk-scale runs at infinite shots isolate the bias; the bound
    # uses only executed-circuit information, so a small failure rate is
    # tolerated
    rng = np.random.default_rng(29)
    covered = total = 0
    while total < 40:
        n = int(rng.integers(4, 7))
        circuit = random_circuit(n, 8, int(rng.integers(4, 9)), rng,
                                 rotation_angle=float(rng.uniform(0.4, 0.9)))
        noise = biased_noise(rng) if rng.random() < 0.5 else \
            NoiseModel.depolarizing(lambda2=float(rng.uniform(0.005, 0.025)))
        backend = TrajectorySimulator(noise, infinite_shots=True)
        policy = TruncationPolicy.order(int(rng.integers(1, 3)))
        try:
            # a run's records are its executed paths: enumerating alone
            # skips the runs that would give fewer than two, unexecuted
            if len(enumerate_paths_parallel(normalize_rotations(circuit),
                                            z_on_first(n),
                                            policy).executed) < 2:
                continue
            result = run_quepp(circuit, z_on_first(n), backend, plan,
                               policy=policy)
        except EnumerationLimitError:
            continue
        if result.bias_combinatorial is None or len(result.records) < 2:
            continue
        total += 1
        ideal = sv.expectation(circuit, z_on_first(n))
        if abs(result.boosted - ideal) \
                <= result.bias_combinatorial.sum_bound + 1e-12:
            covered += 1
    assert total == 40
    assert covered / total >= 0.95

    # closed form dominates the numeric sum whenever its premise holds
    from quepp.pipeline import bias_bound_combinatorial
    rng = np.random.default_rng(31)
    applicable = 0
    for _ in range(100):
        k_total = int(rng.integers(2, 41))
        k_t = int(rng.integers(0, k_total))
        theta = float(rng.uniform(0.05, 1.5))
        eta = float(rng.uniform(0.5, 1.1))
        eta_star_value = eta * float(rng.uniform(0.7, 1.3))
        bound = bias_bound_combinatorial(k_total, k_t, theta, eta,
                                         eta_star_value)
        if bound.closed_form_applicable:
            applicable += 1
            assert bound.closed_form >= bound.sum_bound - 1e-12
    print(f"[07] bias bounds: noiseless {sanity}/20, noisy {covered}/{total} "
          f"covered, closed form >= sum on {applicable}/100 applicable")
    assert applicable >= 20


def test_08_sampling_laws_pass_chi_square():
    started = time.monotonic()
    single = Circuit(1, (PauliRotation(PauliString.from_label("Z"), 0.5),
                         PauliRotation(PauliString.from_label("X"), 0.7),
                         PauliRotation(PauliString.from_label("X"), 0.7),
                         PauliRotation(PauliString.from_label("X"), 0.7)))
    double = Circuit(2, (PauliRotation(PauliString.from_label("XI"), 0.6),
                         PauliRotation(PauliString.from_label("ZZ"), 0.5),
                         PauliRotation(PauliString.from_label("YI"), 0.9),
                         PauliRotation(PauliString.from_label("IX"), 0.4),
                         PauliRotation(PauliString.from_label("XX"), 1.1)))
    details = []
    for circuit, obs_label in ((single, "Z"), (double, "ZI")):
        obs = PauliString.from_label(obs_label)
        for distribution in (D_TILDE, D_POSTSELECTED):
            check = empirical_distribution_check(circuit, obs, 1_000_000,
                                                 distribution=distribution,
                                                 rng_seed=7)
            assert check.num_paths <= 64
            assert check.p_value > 0.01
            details.append(f"{circuit.num_qubits}q {distribution}: "
                           f"p={check.p_value:.3f}")
    elapsed = time.monotonic() - started
    print(f"[08] sampling laws at 1e6 draws: {'; '.join(details)} "
          f"({elapsed:.0f}s)")


def test_09_eta_estimator_algebra():
    # all three estimators coincide on uniform samples
    rng = np.random.default_rng(109)
    for _ in range(50):
        eta = float(rng.uniform(0.3, 1.0))
        count = int(rng.integers(1, 12))
        weights = rng.uniform(0.05, 1.0, size=count)
        records = records_with_etas([eta] * count, list(weights))
        for method in ETA_METHODS:
            assert eta_estimate(records, method) == pytest.approx(eta,
                                                                  abs=1e-12)

    # balance point resists a right-skewed minority pulling the mean down
    rng = np.random.default_rng(110)
    above = 0
    for _ in range(1000):
        count = int(rng.integers(5, 26))
        etas = 0.15 + 0.8 * rng.beta(2.0, 8.0, size=count)
        records = records_with_etas(list(etas))
        if eta_estimate(records, "balance") \
                >= eta_estimate(records, "median") - 1e-12:
            above += 1
    assert above >= 950

    # the generic combiner under rescaling equals the boosted estimate
    from quepp.pipeline import quepp_estimate
    rng = np.random.default_rng(113)
    worst = 0.0
    for _ in range(100):
        count = int(rng.integers(1, 9))
        records = []
        for i in range(count):
            g = float(rng.uniform(0.05, 1.0)) * (-1 if rng.random() < 0.5 else 1)
            ideal = -1.0 if rng.random() < 0.5 else 1.0
            noisy = float(rng.uniform(0.4, 0.9)) * ideal \
                + float(rng.uniform(-0.05, 0.05))
            records.append(synthetic_record(g, ideal, noisy, f"{i:016x}"))
        target = NoisyEstimate(mean=float(rng.uniform(-1, 1)),
                               std_error=0.0, total_shots=0)
        eta = choose_eta(records, "median")
        boosted = quepp_estimate(records, target, eta).boosted
        combined = bem_combine(
            target.mean / eta.value,
            [r.ideal for r in records],
            [r.noisy.mean / eta.value for r in records],
            [r.path.coeff for r in records])
        worst = max(worst, abs(boosted - combined))
        assert boosted == pytest.approx(combined, abs=1e-12)
    print(f"[09] estimator algebra: uniform coincide, skew balance >= "
          f"median in {above}/1000, combiner identity max err {worst:.2e}")


def test_10_rerun_from_embedded_config_is_bit_exact(tmp_path):
    document = {
        "experiment": {"family": "mirror1d", "num_qubits": 3, "layers": 2,
                       "rotation_angle": 0.5, "rng_seed": 3, "p_rx": 0.6},
        "truncation": {"mode": "order", "max_order": 1},
        "noise": {"depolarizing": {"lambda2": 2e-2, "lambda1": 5e-3,
                                   "readout": 1e-2}},
        "plan": {"num_twirls": 5, "shots_per_twirl": 40, "rng_seed": 9},
    }
    config = tmp_path / "run.json"
    config.write_text(json.dumps(document), encoding="utf-8")

    first = tmp_path / "first"
    second = tmp_path / "second"
    assert cli.main(["quepp", "--config", str(config), "--out", str(first),
                     "--workers", "1"]) == 0
    assert cli.main(["quepp", "--config", str(first / "quepp_result.json"),
                     "--out", str(second), "--workers", "1"]) == 0
    for name in ("quepp_result.json", "quepp_convergence.csv"):
        assert filecmp.cmp(str(first / name), str(second / name),
                           shallow=False), name
    print("[10] rerun from embedded config: quepp_result.json and "
          "quepp_convergence.csv byte-identical")
