"""Branch code strings and the two-path worked example.

The single-qubit case U = RX(theta) after H with observable Z back-propagates
to cos(theta) X - sin(theta) Y; every number in that expansion is frozen here.
"""

import math

import numpy as np
import pytest

import quepp.statevector as sv
from quepp.backend import DEFAULT_MAX_TERMS, NoiseModel
from quepp.circuits import Circuit, PauliRotation, normalize_rotations
from quepp.engine import TruncationPolicy, path_to_circuit
from quepp.pauli import CliffordGate, PauliString
from quepp.sampler import SamplerConfig, build_ensemble

from helpers import (expectation_on_stabilizer_input, random_circuit,
                     single_site_observable)
from oracles import (InconsistentBranchError, _exact_noisy_mean,
                     backpropagate, paths_oracle)


def hx_circuit(theta, input_kind="all_zero"):
    return Circuit(1, (CliffordGate("h", (0,)),
                       PauliRotation(PauliString(1, 1, 0), theta)),
                   input_kind=input_kind)


def expand(circuit, observable):
    paths = list(paths_oracle(circuit, observable,
                              TruncationPolicy.order(circuit.num_rotations)))
    # signed Pauli times coefficient, keyed by unsigned frame label
    return {p.frame.label().lstrip("-"): p.coeff * p.frame.sign
            for p in paths}, paths


def test_two_path_expansion_exact():
    # the enumeration engine works on normalized circuits, so draw residual
    # angles; the full angle range is covered through backpropagate below
    rng = np.random.default_rng(11)
    obs = PauliString.from_label("Z")
    for theta in rng.uniform(-math.pi / 4, math.pi / 4, size=10):
        if abs(theta) < 1e-6:
            theta = 0.3
        terms, paths = expand(hx_circuit(float(theta)), obs)
        # Z back-propagates to cos(theta) X - sin(theta) Y
        assert set(terms) == {"X", "Y"}
        assert terms["X"] == pytest.approx(math.cos(theta), abs=1e-12)
        assert terms["Y"] == pytest.approx(-math.sin(theta), abs=1e-12)
        orders = {p.frame.label().lstrip("-"): p.order for p in paths}
        assert orders == {"X": 0, "Y": 1}
        codes = {p.frame.label().lstrip("-"): p.codes for p in paths}
        assert codes == {"X": "c", "Y": "s"}


def test_two_path_frames_via_backpropagate():
    # frames are angle-independent, so this pins the expansion for any theta:
    # Z -> cos X + sin * (-Y)
    c = hx_circuit(0.7)
    obs = PauliString.from_label("Z")
    cos_frame = backpropagate(c, obs, "c")
    assert cos_frame == PauliString.from_label("X")
    sin_frame = backpropagate(c, obs, "s")
    # sin branch takes Z to i X Z = Y, then H sends Y to -Y
    assert sin_frame == PauliString.from_label("-Y")


def test_two_path_sum_matches_statevector():
    rng = np.random.default_rng(12)
    obs = PauliString.from_label("Z")
    for theta in rng.uniform(-math.pi, math.pi, size=10):
        for kind in ("all_zero", "all_plus"):
            c = hx_circuit(float(theta), kind)
            # the stabilizer expectation folds in the frame sign, so the
            # path contribution is just trig factor times that
            total = sum(
                (math.cos(theta) if code == "c" else math.sin(theta))
                * expectation_on_stabilizer_input(
                    backpropagate(c, obs, code), c.input_kind)
                for code in "cs")
            assert total == pytest.approx(sv.expectation(c, obs), abs=1e-12)


def test_inconsistent_branch_raises():
    c = Circuit(1, (PauliRotation(PauliString(1, 0, 1), 0.4),))  # Z rotation
    obs = PauliString.from_label("Z")  # commutes: only passthrough is legal
    for bad in "cs":
        with pytest.raises(InconsistentBranchError) as err:
            backpropagate(c, obs, bad)
        assert err.value.rotation_index == 1
    # and the opposite direction: anticommuting needs cos or sin
    c2 = hx_circuit(0.4)
    with pytest.raises(InconsistentBranchError):
        backpropagate(c2, PauliString.from_label("Z"), "p")


def test_missing_decision_raises():
    c = hx_circuit(0.4)
    with pytest.raises(InconsistentBranchError):
        backpropagate(c, PauliString.from_label("Z"), "")


def test_missing_code_names_the_first_rotation_without_one():
    c = Circuit(1, (PauliRotation(PauliString(1, 1, 0), 0.3),
                    PauliRotation(PauliString(1, 0, 1), 0.2),
                    PauliRotation(PauliString(1, 1, 0), 0.1)))
    with pytest.raises(InconsistentBranchError) as err:
        backpropagate(c, PauliString.from_label("Z"), "c")
    assert err.value.rotation_index == 2


def test_code_strings_from_outside_are_validated():
    c = hx_circuit(0.4)
    obs = PauliString.from_label("Z")
    for bad in ("cc", "x", "C", "s "):
        with pytest.raises(ValueError):
            backpropagate(c, obs, bad)
        with pytest.raises(ValueError):
            path_to_circuit(c, bad)
    with pytest.raises(ValueError, match="rotation 1"):
        path_to_circuit(c, "")
    assert path_to_circuit(c, "s").ops[1].angle == math.pi / 2
    assert path_to_circuit(c, "c").ops[1].angle == 0.0


def test_reference_walk_reproduces_every_enumerated_and_sampled_frame():
    rng = np.random.default_rng(14)
    policies = (TruncationPolicy.order(3),
                TruncationPolicy(min_coefficient=0.05),
                TruncationPolicy(2, 0.02))
    checked = 0
    for trial in range(10):
        n = int(rng.integers(1, 6))
        kind = "all_plus" if trial % 3 == 0 else "all_zero"
        c = normalize_rotations(random_circuit(n, 14, 5, rng, input_kind=kind,
                                               rotation_weight=2))
        obs = single_site_observable(n, rng)
        k = c.num_rotations
        paths = [p for policy in policies
                 for p in paths_oracle(c, obs, policy)]
        sampled, _ = build_ensemble(c, obs, SamplerConfig(
            target_unique_paths=8, max_attempts=64, rng_seed=trial))
        for p in paths + sampled:
            assert len(p.codes) == k
            assert backpropagate(c, obs, p.codes) == p.frame
            checked += 1
    assert checked > 100


def test_ideal_clifford_expectation_matches_statevector():
    rng = np.random.default_rng(13)
    for trial in range(30):
        n = int(rng.integers(1, 5))
        kind = "all_plus" if trial % 3 == 0 else "all_zero"
        c = random_circuit(n, 10, 2, rng, input_kind=kind,
                           rotation_angle=math.pi / 2)
        obs = single_site_observable(n, rng)
        # the noiseless case of the backend's propagation kernel
        got = _exact_noisy_mean(c, obs, NoiseModel.noiseless(),
                                DEFAULT_MAX_TERMS, 0)
        assert got == pytest.approx(sv.expectation(c, obs), abs=1e-12)
        assert got in (-1.0, 0.0, 1.0)
