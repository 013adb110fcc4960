"""Command line behaviour: files written, exit codes, reproducibility."""

import csv
import dataclasses
import filecmp
import functools
import json
import math
import re
import warnings

import pytest

import quepp.backend
import quepp.engine
from quepp import cli
from quepp.backend import TrajectorySimulator
from quepp.circuits import parse_circuit, serialize_circuit
from quepp.config import SCHEMA_VERSION, RunConfig, load_config
from quepp.experiments import ExperimentSpec, generate_experiment
from quepp.pauli import PauliString
from quepp.errors import ConsistencyError
from quepp.pipeline import bias_bound_combinatorial, run_quepp

from helpers import deadline


def write_config(tmp_path, name="run.json", **sections):
    document = {
        "experiment": {"family": "mirror1d", "num_qubits": 3, "layers": 2,
                       "rotation_angle": 0.5, "rng_seed": 3, "p_rx": 0.6},
        "truncation": {"mode": "order", "max_order": 1},
        "noise": {"depolarizing": {"lambda2": 2e-2, "lambda1": 5e-3,
                                   "readout": 1e-2}},
        "infinite_shots": True,
    }
    document.update(sections)
    path = tmp_path / name
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_generate_writes_circuit_and_manifest(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["generate", "--config", config, "--out", str(out)]) == 0
    circuit = parse_circuit((out / "circuit.txt").read_text(encoding="utf-8"))
    spec = ExperimentSpec(family="mirror1d", num_qubits=3, layers=2,
                          rotation_angle=0.5, rng_seed=3, p_rx=0.6)
    assert circuit == generate_experiment(spec)
    manifest = read_json(out / "manifest.json")
    assert manifest["version"].startswith("quepp ")
    assert manifest["observable"] == "ZII"
    assert manifest["circuit_manifest"]["num_rotations"] == circuit.num_rotations
    # the embedded config must itself load
    RunConfig.from_json_dict(manifest["config"])


def test_cpt_untruncated_matches_statevector(tmp_path):
    config = write_config(tmp_path, truncation={"mode": "order",
                                                "max_order": 64})
    out = tmp_path / "out"
    assert cli.main(["cpt", "--config", config, "--out", str(out)]) == 0
    payload = read_json(out / "cpt_result.json")
    ideal = payload["ideal"]
    assert ideal is not None
    final = payload["order_series"][-1]
    assert final["estimate"] == pytest.approx(ideal, abs=1e-10)
    assert payload["merged_bfs"]["estimate"] == pytest.approx(ideal, abs=1e-10)
    assert payload["budget_series"][-1]["estimate"] == pytest.approx(
        ideal, abs=1e-10)
    assert (out / "cpt_order_series.csv").exists()
    assert (out / "cpt_budget_series.csv").exists()


def test_cpt_reference_walk_honours_max_terms(tmp_path):
    # the uncapped merged walk of this circuit peaks at 9 terms
    config = write_config(
        tmp_path,
        experiment={"family": "trotter", "num_qubits": 4, "layers": 3,
                    "rotation_angle": 0.5},
        truncation={"mode": "order", "max_order": 64},
        max_terms=4,
    )
    out = tmp_path / "out"
    assert cli.main(["cpt", "--config", config, "--out", str(out)]) == 0
    payload = read_json(out / "cpt_result.json")
    assert payload["merged_bfs"]["term_cap"] == 4
    assert payload["merged_bfs"]["peak_terms"] <= 4
    assert max(row["max_terms"] for row in payload["budget_series"]) <= 4
    # the floor-free walk reached the cap, so it gives no ideal
    assert payload["ideal"] is None
    for name in ("cpt_order_series.csv", "cpt_budget_series.csv"):
        with open(out / name, "r", encoding="utf-8") as handle:
            assert "ideal" not in next(csv.reader(handle)), name


def test_quepp_single_run_and_bit_exact_rerun(tmp_path):
    config = write_config(tmp_path)
    first = tmp_path / "first"
    assert cli.main(["quepp", "--config", config, "--out", str(first)]) == 0
    payload = read_json(first / "quepp_result.json")
    assert "result" in payload and "series" in payload
    assert payload["result"]["eta"]["value"] > 0

    # a result file is itself a valid config: rerunning must reproduce
    # every byte
    second = tmp_path / "second"
    assert cli.main(["quepp", "--config",
                     str(first / "quepp_result.json"),
                     "--out", str(second)]) == 0
    for name in ("quepp_result.json", "quepp_convergence.csv"):
        assert filecmp.cmp(first / name, second / name, shallow=False), name


def test_a_turn_within_the_tolerance_is_exact_in_every_estimate(tmp_path):
    # 5e-10 is within QUARTER_TURN_TOLERANCE of no turn, which the Pauli-sum
    # walks take as exact; normalization drops it for the enumerator too
    circuit_file = tmp_path / "near.txt"
    circuit_file.write_text("qubits 1\ninput all_plus\nrot Y 5e-10\n",
                            encoding="utf-8")
    config = write_config(tmp_path, experiment=None, observable="Z",
                          circuit_file=str(circuit_file))
    out = tmp_path / "out"
    assert cli.main(["cpt", "--config", config, "--out", str(out)]) == 0
    payload = read_json(out / "cpt_result.json")
    assert payload["order_series"][-1]["estimate"] == payload["ideal"] \
        == payload["merged_bfs"]["estimate"]


def test_quepp_runs_the_circuit_it_reports(tmp_path):
    # 8.5 quarter turns leave a residual that rounds to just past pi/4; a
    # second normalization would factor one more turn, a noisy sx gate
    circuit_file = tmp_path / "tie.txt"
    text = "qubits 2\nrx 0 13.351768777756622\ncz 0 1\nrx 1 0.5\n"
    circuit_file.write_text(text, encoding="utf-8")
    config = write_config(tmp_path, experiment=None, observable="ZI",
                          circuit_file=str(circuit_file))
    out = tmp_path / "out"
    assert cli.main(["quepp", "--config", config, "--out", str(out)]) == 0
    payload = read_json(out / "quepp_result.json")
    assert payload["circuit_manifest"]["angles"][0] > math.pi / 4
    assert payload["circuit_manifest"]["census"]["sx"] == 0
    loaded = load_config(config)
    direct = run_quepp(parse_circuit(text), PauliString.from_label("ZI"),
                       TrajectorySimulator(loaded.noise, infinite_shots=True),
                       loaded.plan, policy=loaded.truncation)
    assert payload["result"] == json.loads(json.dumps(direct.to_json_dict()))


def test_quepp_sweep(tmp_path):
    config = write_config(
        tmp_path,
        experiment={"family": "mirror1d", "num_qubits": 3, "layers": 2,
                    "rng_seed": 1, "p_rx": 0.6, "sweep": [0.0, 0.3]},
    )
    out = tmp_path / "out"
    assert cli.main(["quepp", "--config", config, "--out", str(out)]) == 0
    payload = read_json(out / "quepp_result.json")
    assert [row["theta"] for row in payload["sweep"]] == [0.0, 0.3]
    assert len(payload["results"]) == 2
    header = (out / "quepp_sweep.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header.split(",")[0] == "theta"
    # the report plots a sweep against theta
    report_dir = tmp_path / "report"
    assert cli.main(["report", str(out / "quepp_result.json"),
                     "--out", str(report_dir), "--gnuplot"]) == 0
    assert "set xlabel 'theta'" in (report_dir / "report.gp").read_text(
        encoding="utf-8")
    assert_plotted_columns_exist(report_dir)


def test_infinite_shots_flag_overrides_the_config(tmp_path):
    # the flag gives the run, and the config it embeds, of a config that
    # sets infinite_shots itself
    sampled = write_config(tmp_path, name="sampled.json",
                           infinite_shots=False)
    flagged, exact = tmp_path / "flagged", tmp_path / "exact"
    assert cli.main(["quepp", "--config", sampled, "--infinite-shots",
                     "--out", str(flagged)]) == 0
    assert cli.main(["quepp", "--config", write_config(tmp_path),
                     "--out", str(exact)]) == 0
    payload = read_json(flagged / "quepp_result.json")
    assert payload["config"]["infinite_shots"] is True
    assert payload["result"]["noisy_target"]["total_shots"] == 0
    assert filecmp.cmp(flagged / "quepp_result.json",
                       exact / "quepp_result.json", shallow=False)


@pytest.mark.parametrize("count", [1, 64, 65, 78, 1000])
def test_series_sizes_take_every_prefix_or_a_geometric_grid(count):
    sizes = cli._series_sizes(count)
    if count <= 64:
        assert sizes == list(range(1, count + 1))
        return
    # 32 points from 1 to count, equally spaced in log and rounded: small
    # ones coincide, and two sizes in a row round neighbouring points
    assert sizes[0] == 1 and sizes[-1] == count
    assert sizes == sorted(set(sizes)) and 20 <= len(sizes) <= 32
    ratio = count ** (1 / 31)
    assert all(ratio * (a - 0.5) - 0.5 <= b <= ratio * (a + 0.5) + 0.5
               for a, b in zip(sizes, sizes[1:]))


def test_sample_writes_ensemble(tmp_path):
    config = write_config(
        tmp_path,
        truncation=None,
        sampler={"target_unique_paths": 2, "max_attempts": 500,
                 "rng_seed": 9},
    )
    out = tmp_path / "out"
    assert cli.main(["sample", "--config", config, "--out", str(out)]) == 0
    report = read_json(out / "sampling_report.json")
    lines = (out / "ensemble.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == report["report"]["unique"] == 2
    record = json.loads(lines[0])
    assert set(record) == {"path_id", "order", "coefficient", "sin_indices",
                           "frame", "ideal_expectation"}


def test_sample_saturation_exit_codes(tmp_path, capsys):
    config = write_config(
        tmp_path,
        truncation=None,
        sampler={"target_unique_paths": 500, "max_attempts": 600,
                 "rng_seed": 9},
    )
    out = tmp_path / "out"
    for command in ("sample", "quepp"):
        assert cli.main([command, "--config", config, "--out", str(out)]) == 3
        stderr = capsys.readouterr().err
        assert "--allow-partial" in stderr
        assert "Traceback" not in stderr
    assert cli.main(["sample", "--config", config, "--out", str(out),
                     "--allow-partial"]) == 0
    report = read_json(out / "sampling_report.json")
    assert report["report"]["saturated"]


def test_sampler_without_executable_paths_exits_3(tmp_path, capsys):
    # every frame of this circuit has zero expectation on |0>
    circuit = tmp_path / "circuit.txt"
    circuit.write_text("qubits 1\nh 0\nrx 0 0.3\n", encoding="utf-8")
    config = write_config(
        tmp_path, experiment=None, circuit_file=str(circuit),
        observable="Z", truncation=None,
        sampler={"target_unique_paths": 2, "max_attempts": 50,
                 "rng_seed": 9},
    )
    assert cli.main(["quepp", "--config", config, "--allow-partial",
                     "--out", str(tmp_path / "out")]) == 3
    stderr = capsys.readouterr().err
    assert "max_attempts" in stderr
    assert "Traceback" not in stderr
    assert not (tmp_path / "out").exists()


def test_policy_without_executable_paths_exits_3(tmp_path, capsys):
    # the sine path falls under the floor and the cosine frame Y has zero
    # expectation on |0>, so the policy keeps nothing to execute
    circuit = tmp_path / "circuit.txt"
    circuit.write_text("qubits 1\nrx 0 0.1\n", encoding="utf-8")
    config = write_config(
        tmp_path, experiment=None, circuit_file=str(circuit),
        observable="Y",
        truncation={"mode": "coefficient", "min_coefficient": 0.2},
    )
    assert cli.main(["quepp", "--config", config,
                     "--out", str(tmp_path / "out")]) == 3
    stderr = capsys.readouterr().err
    assert "truncation policy" in stderr
    assert "Traceback" not in stderr
    assert not (tmp_path / "out").exists()


def test_report_merges_runs_by_truncation_order(tmp_path):
    runs = []
    for k_t in (0, 1):
        config = write_config(tmp_path, name=f"run{k_t}.json",
                              truncation={"mode": "order", "max_order": k_t})
        out = tmp_path / f"out{k_t}"
        assert cli.main(["quepp", "--config", config, "--out", str(out)]) == 0
        runs.append(str(out / "quepp_result.json"))
    report_dir = tmp_path / "report"
    assert cli.main(["report", *runs, "--out", str(report_dir),
                     "--gnuplot"]) == 0
    lines = (report_dir / "report.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0].split(",")[:2] == ["k_t", "ideal"]
    assert len(lines) == 3
    assert "cpt_bias" in lines[0]
    assert_plotted_columns_exist(report_dir)
    # runs too wide for the dense ideal value have no bias columns
    bare = []
    for k_t, run in enumerate(runs):
        document = read_json(run)
        document["ideal"] = None
        bare.append(tmp_path / f"no_ideal{k_t}.json")
        bare[-1].write_text(json.dumps(document), encoding="utf-8")
    bare_dir = tmp_path / "bare"
    assert cli.main(["report", *map(str, bare), "--out", str(bare_dir),
                     "--gnuplot"]) == 0
    assert_plotted_columns_exist(bare_dir)


def assert_plotted_columns_exist(report_dir):
    """Every column number a ``report.gp`` plot reads is in ``report.csv``."""
    header = (report_dir / "report.csv").read_text(encoding="utf-8") \
        .splitlines()[0].split(",")
    script = (report_dir / "report.gp").read_text(encoding="utf-8")
    used = {int(n) for spec in re.findall(r"using ([\d:]+)", script)
            for n in spec.split(":")}
    assert used and max(used) <= len(header), (used, header)


def test_report_refuses_mixed_seeds(tmp_path):
    config = write_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["quepp", "--config", config, "--out", str(out_a)]) == 0
    assert cli.main(["quepp", "--config", config, "--seed", "77",
                     "--out", str(out_b)]) == 0
    inputs = [str(out_a / "quepp_result.json"),
              str(out_b / "quepp_result.json")]
    report_dir = tmp_path / "report"
    assert cli.main(["report", *inputs, "--out", str(report_dir)]) == 2
    assert cli.main(["report", *inputs, "--out", str(report_dir),
                     "--force"]) == 0


def test_report_rejects_sweep_single_mixtures(tmp_path):
    sweep_config = write_config(
        tmp_path, name="sweep.json",
        experiment={"family": "mirror1d", "num_qubits": 3, "layers": 2,
                    "rng_seed": 3, "p_rx": 0.6, "sweep": [0.3]},
    )
    single_config = write_config(tmp_path, name="single.json")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["quepp", "--config", sweep_config, "--out",
                     str(out_a)]) == 0
    assert cli.main(["quepp", "--config", single_config, "--out",
                     str(out_b)]) == 0
    assert cli.main(["report", str(out_a / "quepp_result.json"),
                     str(out_b / "quepp_result.json"),
                     "--out", str(tmp_path / "r")]) == 2
    # a sweep-only report works and keys its table on theta
    assert cli.main(["report", str(out_a / "quepp_result.json"),
                     "--out", str(tmp_path / "r")]) == 0
    header = (tmp_path / "r" / "report.csv").read_text(
        encoding="utf-8").splitlines()[0]
    assert header.split(",")[0] == "theta"


_RESULT = {"noisy_target": {"mean": 0.5}, "boosted": 1.0,
           "boosted_std_error": 0.1}


@pytest.mark.parametrize("text", [
    json.dumps([{"schema_version": SCHEMA_VERSION}]),
    json.dumps({"schema_version": SCHEMA_VERSION,
                "result": dict(_RESULT, classical_part=0.9)}),
    json.dumps({"schema_version": SCHEMA_VERSION, "config": {},
                "result": _RESULT}),
    "boosted,std_error\n1.0,0.1\n",
    json.dumps({"schema_version": SCHEMA_VERSION + 1, "config": {},
                "result": dict(_RESULT, classical_part=0.9)}),
], ids=["list", "no-config", "no-classical-part", "not-json",
        "schema-version"])
def test_report_rejects_documents_that_are_not_results(tmp_path, capsys,
                                                       text):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["report", str(path), "--out", str(tmp_path / "r")]) == 2
    stderr = capsys.readouterr().err
    assert str(path) in stderr
    assert "Traceback" not in stderr


def test_config_errors_exit_2(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["cpt", "--config", missing,
                     "--out", str(tmp_path / "o")]) == 2

    sampler_only = write_config(tmp_path, name="s.json", truncation=None,
                                sampler={"target_unique_paths": 2,
                                         "max_attempts": 50})
    assert cli.main(["cpt", "--config", sampler_only,
                     "--out", str(tmp_path / "o")]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": {"family": "mirror1d",
                                              "num_qubits": 3, "layers": 2},
                               "fidelity": 0.9}), encoding="utf-8")
    assert cli.main(["generate", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == 2

    # each command refuses a config without the section it needs
    no_experiment = write_config(tmp_path, name="n.json", experiment=None,
                                 circuit_file="circuit.txt", observable="Z")
    assert cli.main(["generate", "--config", no_experiment,
                     "--out", str(tmp_path / "o")]) == 2
    assert cli.main(["sample", "--config", write_config(tmp_path),
                     "--out", str(tmp_path / "o")]) == 2

    # term caps are int64 in the walk; cpt builds them before it walks
    huge_cap = write_config(tmp_path, name="t.json", max_terms=10 ** 20)
    assert cli.main(["cpt", "--config", huge_cap,
                     "--out", str(tmp_path / "o")]) == 2


def _experiment(**fields):
    return {"experiment": {"family": "mirror1d", "num_qubits": 3,
                           "layers": 2, **fields}}


def _sampler(**fields):
    return {"truncation": None,
            "sampler": {"target_unique_paths": 2, "max_attempts": 50,
                        **fields}}


_FROM_FILE = {"experiment": None, "circuit_file": "circuit.txt"}

# each value is read without complaint by a plain json.load; the reader
# must turn it into a config error (exit 2), not run on it or crash
BAD_VALUES = {
    "infinite-shots-string": ({"infinite_shots": "no"}, []),
    "max-order-float": ({"truncation": {"mode": "order", "max_order": 1.5}},
                        []),
    "target-unique-paths-float": (_sampler(target_unique_paths=2.5), []),
    "circuit-file-int": (dict(_FROM_FILE, circuit_file=7, observable="ZZZ"),
                         []),
    "num-qubits-string": (_experiment(num_qubits="3"), []),
    "min-coefficient-string": (
        {"truncation": {"mode": "coefficient", "min_coefficient": "0.1"}}, []),
    "max-terms-string": ({"max_terms": "5"}, []),
    "readout-flip-string": ({"noise": {"readout_flip": "x"}}, []),
    "coupling-one-qubit-edge": (_experiment(coupling=[[0, 1], [2]]), []),
    "coupling-unknown-name": (_experiment(coupling="ring"), []),
    "census-without-h": ({"experiment": {
        "family": "mirror2d", "num_qubits": 3, "layers": 2,
        "census": {"cz": 2, "rx": 2}}}, []),
    "experiment-int": ({"experiment": 5}, []),
    "experiment-seed-null": (_experiment(rng_seed=None), []),
    "sampler-seed-null": (_sampler(rng_seed=None), []),
    "plan-seed-null": ({"plan": {"rng_seed": None}}, []),
    "experiment-seed-negative": (_experiment(rng_seed=-3), []),
    "sampler-seed-negative": (_sampler(rng_seed=-3), []),
    "plan-seed-negative": ({"plan": {"rng_seed": -3},
                            "infinite_shots": False}, []),
    "seed-flag-negative": ({}, ["--seed", "-1"]),
    "observable-bad-letter": (dict(_FROM_FILE, observable="ZQ"), []),
    "observable-beside-experiment": ({"observable": "ZZ"}, []),
    "workers-zero": ({}, ["--workers", "0"]),
    "workers-negative": ({}, ["--workers", "-3"]),
    "rotation-angle-nan": (_experiment(rotation_angle=math.nan), []),
    "rotation-angle-infinity": (_experiment(rotation_angle=math.inf), []),
    "sweep-angle-nan": (_experiment(sweep=[0.3, math.nan]), []),
    "sweep-angle-infinity": (_experiment(sweep=[0.3, -math.inf]), []),
    "min-coefficient-nan": (
        {"truncation": {"mode": "coefficient", "min_coefficient": math.nan}},
        []),
    # int64 counts: the shot draw and the walk's term caps
    "total-shots-past-2-62": ({"plan": {"num_twirls": 10 ** 12,
                                        "shots_per_twirl": 10 ** 12},
                               "infinite_shots": False}, []),
    "max-terms-past-2-62": ({"max_terms": 10 ** 20}, []),
    "no-circuit": ({"experiment": None}, []),
    "circuit-file-unreadable": (dict(_FROM_FILE, circuit_file="missing.txt",
                                     observable="ZZ"), []),
    "observable-wider-than-circuit-file": (dict(_FROM_FILE,
                                                observable="ZZZ"), []),
    "no-truncation-or-sampler": ({"truncation": None}, []),
}


@pytest.mark.parametrize("sections, flags", BAD_VALUES.values(),
                         ids=BAD_VALUES.keys())
def test_bad_config_values_exit_2(tmp_path, monkeypatch, capsys, sections,
                                  flags):
    monkeypatch.chdir(tmp_path)
    spec = ExperimentSpec(family="mirror1d", num_qubits=2, layers=1)
    (tmp_path / "circuit.txt").write_text(
        serialize_circuit(generate_experiment(spec)), encoding="utf-8")
    config = write_config(tmp_path, **sections)
    assert cli.main(["quepp", "--config", config, "--out", "out",
                     *flags]) == 2
    stderr = capsys.readouterr().err
    assert "config error:" in stderr
    assert "Traceback" not in stderr


_SAMPLE = {"truncation": None,
           "sampler": {"target_unique_paths": 2, "max_attempts": 50}}
# num_qubits x layers past the generation ceiling of 10**5
_TOO_LARGE = {"family": "trotter", "num_qubits": 1001, "layers": 100}

FAILING_RUNS = {
    **{f"missing-file-{command}": (command, {
        **_FROM_FILE, "circuit_file": "missing.txt", "observable": "Z",
        **extra}, 2)
       for command, extra in (("cpt", {}), ("quepp", {}),
                              ("sample", _SAMPLE))},
    **{f"ceiling-{command}": (command, {"experiment": _TOO_LARGE, **extra}, 3)
       for command, extra in (("generate", {}), ("cpt", {}), ("quepp", {}),
                              ("sample", _SAMPLE))},
    "ceiling-quepp-sweep": ("quepp", {"experiment": dict(
        _TOO_LARGE, sweep=[0.3, 0.7])}, 3),
}


@pytest.mark.parametrize("command, sections, code", FAILING_RUNS.values(),
                         ids=FAILING_RUNS.keys())
def test_a_failing_command_makes_no_output_dir(tmp_path, monkeypatch, capsys,
                                               command, sections, code):
    monkeypatch.chdir(tmp_path)  # where missing.txt is missing
    config = write_config(tmp_path, **sections)
    out = tmp_path / "out"
    assert cli.main([command, "--config", config, "--out", str(out)]) == code
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_closed_form_past_the_float_range_exits_0(tmp_path):
    # order K on 1,200 rotations: the truncation is exact, so the
    # combinatorial closed form is 0, with no power taken that would pass
    # the float range
    circuit = tmp_path / "long.txt"
    circuit.write_text("qubits 2\n" + "rx 1 0.78\n" * 1200, encoding="utf-8")
    config = write_config(tmp_path, experiment=None,
                          circuit_file=str(circuit), observable="ZI",
                          truncation={"mode": "order", "max_order": 1200},
                          noise={"depolarizing": {}})
    assert cli.main(["quepp", "--config", config,
                     "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("command, fields", [
    pytest.param("generate", {"layers": 10 ** 20}, id="generate-layers"),
    pytest.param("quepp", {"layers": 10 ** 20}, id="quepp-layers"),
    pytest.param("quepp", {"num_qubits": 10 ** 20}, id="quepp-num_qubits"),
    # just past the ceiling: 100,100 sites, about 400k ops if built
    pytest.param("generate", {"family": "trotter", "num_qubits": 1001,
                              "layers": 100}, id="generate-trotter")])
def test_generation_ceiling_exits_3(tmp_path, capsys, command, fields):
    # a size past the ceiling is refused before any gate is built
    config = write_config(tmp_path, **_experiment(**fields))
    with deadline(1.0):
        assert cli.main([command, "--config", config,
                         "--out", str(tmp_path / "o")]) == 3
    stderr = capsys.readouterr().err
    assert "generation ceiling" in stderr
    assert "Traceback" not in stderr


def test_capability_errors_exit_3(tmp_path):
    # a 16-qubit non-Clifford target exceeds a small propagation term cap
    config = write_config(
        tmp_path,
        experiment={"family": "mirror1d", "num_qubits": 16, "layers": 1,
                    "rotation_angle": 0.4, "rng_seed": 2, "p_rx": 0.9},
        truncation={"mode": "order", "max_order": 0},
        infinite_shots=False,
        max_terms=1,
    )
    assert cli.main(["quepp", "--config", config,
                     "--out", str(tmp_path / "o")]) == 3


def paper_width_mirror(tmp_path, layers, max_order):
    """mirror2d at the paper's 49 qubits (ideal 1) under the default
    depolarizing noise, at the acceptance plan."""
    return write_config(
        tmp_path,
        experiment={"family": "mirror2d", "num_qubits": 49, "layers": layers,
                    "rotation_angle": math.pi / 5, "rng_seed": 11,
                    "p_rx": 0.35},
        truncation={"mode": "order", "max_order": max_order},
        noise={"depolarizing": {}},
        plan={"num_twirls": 100, "shots_per_twirl": 200, "rng_seed": 5},
        infinite_shots=False,
    )


def test_internal_errors_exit_4(tmp_path, monkeypatch, capsys):
    # a QueppError that is neither a config nor a capability error is an
    # internal consistency failure, reported with its traceback
    def broken(circuit):
        raise ConsistencyError("planted inconsistency")

    monkeypatch.setattr(cli, "normalize_rotations", broken)
    assert cli.main(["cpt", "--config", write_config(tmp_path),
                     "--out", str(tmp_path / "o")]) == 4
    stderr = capsys.readouterr().err
    assert "internal error: planted inconsistency" in stderr
    assert "Traceback" in stderr


def test_paper_width_mirror_runs_at_twelve_layers(tmp_path):
    out = tmp_path / "o"
    assert cli.main(["quepp", "--config", paper_width_mirror(tmp_path, 12, 2),
                     "--out", str(out)]) == 0
    payload = read_json(out / "quepp_result.json")
    # the noiseless walk gives the ideal at any width its peak fits
    assert abs(payload["ideal"] - 1.0) < 1e-12
    result = payload["result"]
    error = abs(result["boosted"] - 1.0)
    assert error < 3 * result["boosted_std_error"]
    assert error < abs(result["classical_part"] - 1.0)
    assert error < abs(result["noisy_target"]["mean"] - 1.0)


def test_paper_width_mirror_stops_at_the_term_cap(tmp_path, capsys):
    # the noisy target of the 20-layer mirror outgrows the default term cap;
    # the run stops with exit 3 before any shot is drawn
    assert cli.main(["quepp", "--config", paper_width_mirror(tmp_path, 20, 1),
                     "--out", str(tmp_path / "o")]) == 3
    stderr = capsys.readouterr().err
    assert "needs more than 65536 terms" in stderr
    assert "Traceback" not in stderr


# trotter 6q/L3 under biased noise with four records, whose median eta is
# exactly 0 at some seeds
ETA_ZERO = {
    "experiment": {"family": "trotter", "num_qubits": 6, "layers": 3,
                   "rotation_angle": 0.9},
    "truncation": {"mode": "hybrid", "max_order": 4,
                   "min_coefficient": 0.001},
    "noise": {"two_qubit_rates": {"XZ": 0.03, "ZI": 0.02, "YY": 0.01},
              "single_qubit_rates": {"X": 0.02, "Z": 0.05},
              "readout_flip": 0.01},
    "plan": {"num_twirls": 3, "shots_per_twirl": 50},
    "infinite_shots": False,
}


def test_zero_median_eta_exits_3(tmp_path, capsys):
    # four records, none with eta 0, whose two middle etas have opposite
    # signs, so the median eta is exactly 0 and cannot rescale the target
    config = write_config(tmp_path, **ETA_ZERO)
    assert cli.main(["quepp", "--config", config, "--seed", "6",
                     "--out", str(tmp_path / "o")]) == 3
    stderr = capsys.readouterr().err
    assert "median rescaling factor eta is 0.0" in stderr
    assert "Traceback" not in stderr


def test_degenerate_series_prefix_keeps_the_run(tmp_path):
    # at this seed the run's median eta is nonzero, but the median of the
    # first three records is exactly 0: that series row has no estimate
    config = write_config(tmp_path, **ETA_ZERO)
    out = tmp_path / "o"
    assert cli.main(["quepp", "--config", config, "--seed", "2",
                     "--out", str(out)]) == 0
    payload = read_json(out / "quepp_result.json")
    assert payload["result"]["eta"]["value"] != 0.0
    degenerate = [row for row in payload["series"] if row["eta"] is None]
    assert [row["size"] for row in degenerate] == [3]
    assert degenerate[0]["boosted"] is None
    assert degenerate[0]["std_error"] is None
    assert math.isfinite(degenerate[0]["classical_part"])
    assert math.isfinite(degenerate[0]["residual"])
    with open(out / "quepp_convergence.csv", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["size"] for row in rows] == ["1", "2", "3", "4"]
    assert (rows[2]["boosted"], rows[2]["std_error"], rows[2]["eta"]) == \
        ("", "", "")
    assert float(rows[2]["residual"]) == degenerate[0]["residual"]


@pytest.mark.parametrize("command", ["quepp", "cpt"])
def test_worker_count_keeps_the_bytes(tmp_path, command):
    config = write_config(tmp_path, truncation={"mode": "order",
                                                "max_order": 2},
                          plan={"num_twirls": 2, "shots_per_twirl": 20},
                          infinite_shots=False)
    outs = []
    for workers in ("1", "3"):
        out = tmp_path / f"workers{workers}"
        assert cli.main([command, "--config", config, "--seed", "1",
                         "--workers", workers, "--out", str(out)]) == 0
        outs.append(out)
    names = sorted(path.name for path in outs[0].iterdir())
    assert names == sorted(path.name for path in outs[1].iterdir())
    for name in names:
        assert filecmp.cmp(outs[0] / name, outs[1] / name,
                           shallow=False), name


def test_quepp_walks_one_pauli_sum_per_run(tmp_path, monkeypatch):
    # the ideal is the target's noiseless value in the backend's group walk:
    # a run makes one Pauli-sum walk and no merged breadth-first walk
    walks, merged = [], []
    for module in (quepp.backend, quepp.engine):
        monkeypatch.setattr(module, "walk_rows", functools.partial(
            _counted, walks, module.walk_rows))
    for module in (cli, quepp.engine):
        monkeypatch.setattr(module, "merged_bfs_cpt", functools.partial(
            _counted, merged, module.merged_bfs_cpt))
    trotter = {"family": "trotter", "num_qubits": 8, "layers": 4,
               "rotation_angle": 0.7}
    for runs, experiment in ((1, trotter),
                             (2, dict(trotter, sweep=[0.3, 0.7]))):
        walks.clear()
        config = write_config(tmp_path, experiment=experiment,
                              truncation={"mode": "order", "max_order": 4},
                              plan={"num_twirls": 2, "shots_per_twirl": 100,
                                    "rng_seed": 5},
                              infinite_shots=False)
        out = tmp_path / f"runs{runs}"
        assert cli.main(["quepp", "--config", config, "--out", str(out)]) == 0
        payload = read_json(out / "quepp_result.json")
        ideals = ([row["ideal"] for row in payload["sweep"]]
                  if runs > 1 else [payload["ideal"]])
        assert None not in ideals and len(ideals) == runs
        assert (len(walks), merged) == (runs, [])


def _counted(calls, function, *args, **kwargs):
    calls.append(function.__name__)
    return function(*args, **kwargs)


def test_output_dir_precedence(tmp_path, monkeypatch):
    # --out, then the config's output_dir, then the environment variable,
    # then the working directory
    config_dir, env_dir, flag_dir, cwd = (
        tmp_path / name for name in ("from_config", "from_env", "from_flag",
                                     "cwd"))
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    config = write_config(tmp_path)
    with_dir = write_config(tmp_path, name="with_dir.json",
                            output_dir=str(config_dir))
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(env_dir))
    assert cli.main(["generate", "--config", config]) == 0
    assert (env_dir / "circuit.txt").exists()
    assert cli.main(["generate", "--config", config,
                     "--out", str(flag_dir)]) == 0
    assert (flag_dir / "circuit.txt").exists()
    assert cli.main(["generate", "--config", with_dir]) == 0
    assert (config_dir / "circuit.txt").exists()
    for out in (config_dir, env_dir, flag_dir):
        (out / "circuit.txt").unlink()
    assert cli.main(["generate", "--config", with_dir,
                     "--out", str(flag_dir)]) == 0
    assert (flag_dir / "circuit.txt").exists()
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV)
    assert cli.main(["generate", "--config", config]) == 0
    assert (cwd / "circuit.txt").exists()
    assert not any((out / "circuit.txt").exists()
                   for out in (config_dir, env_dir))


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.strip().startswith("quepp ")


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    # the argparse tree is cached per process, so no option may carry over
    # from one command to the next
    assert cli.build_parser() is cli.build_parser()
    config = write_config(tmp_path)
    seeded, plain = tmp_path / "seeded", tmp_path / "plain"
    assert cli.main(["generate", "--config", config, "--seed", "5",
                     "--out", str(seeded)]) == 0
    with pytest.raises(SystemExit) as info:
        cli.main(["--version"])
    assert info.value.code == 0
    with pytest.raises(SystemExit) as info:
        cli.main(["generate", "--config", config, "--seed", "x"])
    assert info.value.code == 2
    assert cli.main(["generate", "--config", config,
                     "--out", str(plain)]) == 0
    capsys.readouterr()
    loaded = load_config(config)
    assert read_json(seeded / "manifest.json")["config"] == \
        loaded.with_seed(5).to_json_dict()
    assert read_json(plain / "manifest.json")["config"] == \
        loaded.to_json_dict() != loaded.with_seed(5).to_json_dict()


def test_write_json_matches_json_dump_bytes(tmp_path):
    payload = {"b": [1, 2.5, -0.0, 1e-300, None, True], "a": {"z": "é",
               "y": [], "x": {}}, "c": float("inf"), "d": 0.1 + 0.2}
    path = tmp_path / "new.json"
    cli._write_json(str(path), payload)
    # strict JSON has no Infinity: the writer puts null in its place
    with open(tmp_path / "old.json", "w", encoding="utf-8") as handle:
        json.dump({**payload, "c": None}, handle, indent=2, sort_keys=True)
        handle.write("\n")
    assert path.read_bytes() == (tmp_path / "old.json").read_bytes()


def strict_json(text):
    """``text`` parsed as strict JSON, which has no NaN or Infinity."""
    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")
    return json.loads(text, parse_constant=reject)


def test_overflowed_bounds_are_written_as_strict_json(tmp_path):
    # a sum past the float range (no warning) and a closed form past it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bounds = [dataclasses.asdict(bias_bound_combinatorial(*args))
                  for args in ((1500, 10, 0.7, 0.7, 0.5),
                               (1500, 1000, 0.66, 0.7, 0.5))]
    assert bounds[0]["sum_bound"] == bounds[1]["closed_form"] == math.inf
    path = tmp_path / "result.json"
    cli._write_json(str(path), {"bias": bounds,
                                "order": {10: math.nan, 2: 1.0}})
    document = strict_json(path.read_text(encoding="utf-8"))
    assert document["bias"][0]["sum_bound"] is None
    assert document["bias"][1]["closed_form"] is None
    assert document["bias"][1]["sum_bound"] == bounds[1]["sum_bound"]
    # the keys keep json.dump's order, numbers sorted as numbers
    assert list(document["order"].items()) == [("2", 1.0), ("10", None)]
