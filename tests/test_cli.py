"""Command line behaviour: files written, exit codes, reproducibility."""

import filecmp
import json
import math

import pytest

from quepp import cli
from quepp.circuits import parse_circuit
from quepp.config import RunConfig
from quepp.experiments import ExperimentSpec, generate_experiment


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


def test_sample_saturation_exit_codes(tmp_path):
    config = write_config(
        tmp_path,
        truncation=None,
        sampler={"target_unique_paths": 500, "max_attempts": 600,
                 "rng_seed": 9},
    )
    out = tmp_path / "out"
    assert cli.main(["sample", "--config", config, "--out", str(out)]) == 4
    assert cli.main(["sample", "--config", config, "--out", str(out),
                     "--allow-partial"]) == 0
    report = read_json(out / "sampling_report.json")
    assert report["report"]["saturated"]


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
    assert (report_dir / "report.gp").exists()


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


def test_output_dir_precedence(tmp_path, monkeypatch):
    config = write_config(tmp_path)
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(env_dir))
    assert cli.main(["generate", "--config", config]) == 0
    assert (env_dir / "circuit.txt").exists()
    flag_dir = tmp_path / "from_flag"
    assert cli.main(["generate", "--config", config,
                     "--out", str(flag_dir)]) == 0
    assert (flag_dir / "circuit.txt").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.strip().startswith("quepp ")
