"""The ideal value the commands report, against the dense oracle.

``quepp cpt`` and ``quepp quepp`` take their ``ideal`` from the noiseless
Pauli-sum walk.  Here it must agree with the dense statevector within 1e-12
on every config whose bytes ``test_same_bytes`` pins and on the circuits of
at most 12 qubits that the acceptance suite runs.  The random circuits are
drawn with the acceptance tests' seeds and draw order.
"""

import json
import math

import numpy as np
import pytest

from helpers import random_circuit
from quepp import cli
from quepp import statevector as sv
from quepp.circuits import (Circuit, PauliRotation, inverse_circuit,
                            parse_circuit, serialize_circuit)
from quepp.config import RunConfig
from quepp.experiments import generate_experiment
from quepp.pauli import CliffordGate, PauliString
from test_same_bytes import CONFIGS, RUNS, _run as run_pinned

TOLERANCE = 1e-12


def _run(tmp_path, tag, document, command):
    """Run ``command`` on ``document``; return its result payload."""
    config = tmp_path / f"{tag}.json"
    config.write_text(json.dumps(document), encoding="utf-8")
    out = tmp_path / f"{tag}-{command}"
    assert cli.main([command, "--config", str(config), "--out",
                     str(out)]) == 0
    with open(out / f"{command}_result.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def _reported_and_dense(payload):
    """Each ideal a result file reports, with the dense oracle's value on
    the circuit its embedded config names."""
    config = RunConfig.from_json_dict(payload["config"])
    if "sweep" in payload:
        specs = [config.experiment.with_angle(row["theta"])
                 for row in payload["sweep"]]
        return [(row["ideal"], sv.expectation(generate_experiment(spec),
                                              spec.resolved_observable()))
                for row, spec in zip(payload["sweep"], specs)]
    if config.experiment is not None:
        circuit = generate_experiment(config.experiment)
        observable = config.experiment.resolved_observable()
    else:  # the circuit as written, not as the command normalized it
        with open(config.circuit_file, "r", encoding="utf-8") as fh:
            circuit = parse_circuit(fh.read())
        observable = PauliString.from_label(config.observable)
    return [(payload["ideal"], sv.expectation(circuit, observable))]


def _assert_close(pairs):
    for reported, dense in pairs:
        assert reported is not None
        assert abs(reported - dense) <= TOLERANCE, (reported, dense)


@pytest.mark.parametrize("name,command",
                         [run for run in RUNS if run[1] != "sample"],
                         ids=[f"{n}-{c}" for n, c in RUNS if c != "sample"])
def test_pinned_configs_report_the_dense_ideal(tmp_path, name, command):
    out = run_pinned(tmp_path, name, CONFIGS[name], command)
    with open(out / f"{command}_result.json", "r", encoding="utf-8") as fh:
        _assert_close(_reported_and_dense(json.load(fh)))


# test_03, test_04, test_05 (as one sweep), test_06 and test_10, each at
# an order of truncation its test runs (test_04 samples instead)
EXPERIMENTS = {
    "mirror2d-10q-L8": ({"family": "mirror2d", "num_qubits": 10,
                         "layers": 8, "rotation_angle": math.pi / 5,
                         "rng_seed": 11, "p_rx": 0.35}, 1),
    "mirror1d-12q-L20": ({"family": "mirror1d", "num_qubits": 12,
                          "layers": 20, "rotation_angle": math.pi / 5,
                          "rng_seed": 11, "p_single": 0.5, "p_cz": 1.0,
                          "p_rx": 0.2}, 1),
    "trotter-10q-L2-sweep": ({"family": "trotter", "num_qubits": 10,
                              "layers": 2, "rotation_angle": 0.0,
                              "sweep": np.linspace(0.0, math.pi,
                                                   21).tolist()}, 3),
    "mirror1d-3q-L2-seed9": ({"family": "mirror1d", "num_qubits": 3,
                              "layers": 2, "rotation_angle": math.pi / 5,
                              "rng_seed": 9, "p_rx": 0.6}, 2),
    "mirror1d-3q-L2-seed3": ({"family": "mirror1d", "num_qubits": 3,
                              "layers": 2, "rotation_angle": 0.5,
                              "rng_seed": 3, "p_rx": 0.6}, 1),
}


def _document(max_order, **sections):
    return {"truncation": {"mode": "order", "max_order": max_order},
            "noise": {"depolarizing": {}}, "infinite_shots": True,
            **sections}


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_acceptance_experiments_report_the_dense_ideal(tmp_path, name):
    experiment, max_order = EXPERIMENTS[name]
    commands = ["quepp"]
    if "sweep" in experiment:  # cpt runs one angle at a time
        for theta in experiment["sweep"]:
            single = dict(experiment, rotation_angle=theta)
            del single["sweep"]
            _assert_close(_reported_and_dense(_run(
                tmp_path, f"theta-{theta!r}",
                _document(max_order, experiment=single), "cpt")))
    else:
        commands.append("cpt")
    for command in commands:
        _assert_close(_reported_and_dense(_run(
            tmp_path, name, _document(max_order, experiment=experiment),
            command)))


def _z_on_first(n):
    return "Z" + "I" * (n - 1)


def _untruncated_sums():
    """test_01's 50 random circuits."""
    rng = np.random.default_rng(101)
    for _ in range(50):
        n = int(rng.integers(2, 11))
        k = int(rng.integers(1, 9))
        depth = k + int(rng.integers(2, 8))
        yield random_circuit(n, depth, k, rng, rotation_weight=2), \
            _z_on_first(n)


def _two_path_circuits():
    """test_02's ten one-qubit circuits."""
    rng = np.random.default_rng(102)
    for _ in range(10):
        theta = float(rng.uniform(0.05, 3.0))
        yield Circuit(1, (CliffordGate("h", (0,)),
                          PauliRotation(PauliString.from_label("X"),
                                        theta))), "Z"
        rng.normal(size=2), rng.normal(size=2)  # the test's random state


def _bias_bound_circuits():
    """test_07's 20 noiseless mirrored circuits and the first 40 circuits
    of its noisy loop, which draws on until 40 runs give a bound."""
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        half = random_circuit(n, 4, int(rng.integers(1, 4)), rng,
                              rotation_angle=0.5)
        yield Circuit(n, half.ops + inverse_circuit(half).ops,
                      half.input_kind), _z_on_first(n)
        rng.integers(0, 3)  # k_t
    rng = np.random.default_rng(29)
    for _ in range(40):
        n = int(rng.integers(4, 7))
        circuit = random_circuit(n, 8, int(rng.integers(4, 9)), rng,
                                 rotation_angle=float(rng.uniform(0.4, 0.9)))
        yield circuit, _z_on_first(n)
        # the noise model's draws, then k_t
        rng.uniform(size=5) if rng.random() < 0.5 else rng.uniform()
        rng.integers(1, 3)


def _sampling_law_circuits():
    """test_08's two circuits."""
    rot = lambda label, angle: PauliRotation(PauliString.from_label(label),
                                             angle)
    yield Circuit(1, (rot("Z", 0.5), rot("X", 0.7), rot("X", 0.7),
                      rot("X", 0.7))), "Z"
    yield Circuit(2, (rot("XI", 0.6), rot("ZZ", 0.5), rot("YI", 0.9),
                      rot("IX", 0.4), rot("XX", 1.1))), "ZI"


RANDOM_FAMILIES = {"test_01": _untruncated_sums,
                   "test_02": _two_path_circuits,
                   "test_07": _bias_bound_circuits,
                   "test_08": _sampling_law_circuits}


@pytest.mark.parametrize("family", RANDOM_FAMILIES)
def test_acceptance_circuits_report_the_dense_ideal(tmp_path, family):
    for index, (circuit, label) in enumerate(RANDOM_FAMILIES[family]()):
        path = tmp_path / f"{index}.txt"
        path.write_text(serialize_circuit(circuit), encoding="utf-8")
        document = _document(circuit.num_rotations, observable=label,
                             circuit_file=str(path))
        for command in ("cpt", "quepp"):
            pairs = _reported_and_dense(_run(tmp_path, str(index), document,
                                             command))
            # the file holds the very circuit the acceptance test builds
            assert pairs[0][1] == sv.expectation(
                circuit, PauliString.from_label(label))
            _assert_close(pairs)
