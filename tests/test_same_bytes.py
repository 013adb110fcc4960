"""Every CLI output file keeps its exact bytes.

Refactors of the walk, the backend and the pipeline promise byte-identical
result files.  Four tiny experiment configs (no ``circuit_file``, so no
output depends on a path) run ``quepp quepp``, ``quepp cpt`` and
``quepp sample`` with one worker at a fixed seed, and the SHA-256 of every
file written must equal the digest pinned here.  A tiny trotter sweep and
two single runs at orders 1 and 2 pin ``quepp report --gnuplot`` too, on
the sweep and on the pair.  A change that is meant to alter the outputs
updates these digests and says why.
"""

import hashlib
import json

import pytest

from quepp import cli

_NOISE = {"depolarizing": {"lambda2": 2e-2, "lambda1": 5e-3,
                           "readout": 1e-2}}

CONFIGS = {
    # order truncation, sampled shots, median eta
    "mirror_order": {
        "experiment": {"family": "mirror1d", "num_qubits": 4, "layers": 3,
                       "rotation_angle": 0.5, "rng_seed": 3, "p_rx": 0.6},
        "truncation": {"mode": "order", "max_order": 2},
        "noise": _NOISE,
        "plan": {"num_twirls": 2, "shots_per_twirl": 50, "rng_seed": 5},
    },
    # hybrid truncation, exact means, balance eta
    "trotter_hybrid": {
        "experiment": {"family": "trotter", "num_qubits": 4, "layers": 4,
                       "rotation_angle": 0.7},
        "truncation": {"mode": "hybrid", "max_order": 4,
                       "min_coefficient": 0.01},
        "noise": _NOISE,
        "eta_method": "balance",
        "infinite_shots": True,
    },
    # post-selected sampler, sampled shots, weighted-average eta
    "mirror_sampler": {
        "experiment": {"family": "mirror1d", "num_qubits": 4, "layers": 3,
                       "rotation_angle": 0.6, "rng_seed": 2, "p_rx": 0.5},
        "sampler": {"target_unique_paths": 6, "max_attempts": 300,
                    "distribution": "d_postselected", "rng_seed": 9},
        "noise": _NOISE,
        "eta_method": "weighted_average",
        "plan": {"num_twirls": 2, "shots_per_twirl": 40, "rng_seed": 5},
    },
    # coefficient truncation (most kept paths have zero ideal), sampled
    # shots, median eta
    "mirror_coefficient": {
        "experiment": {"family": "mirror1d", "num_qubits": 4, "layers": 4,
                       "rotation_angle": 0.6, "rng_seed": 3, "p_rx": 0.6},
        "truncation": {"mode": "coefficient", "min_coefficient": 0.05},
        "noise": _NOISE,
        "plan": {"num_twirls": 2, "shots_per_twirl": 50, "rng_seed": 5},
    },
}

RUNS = [("mirror_order", "quepp"), ("mirror_order", "cpt"),
        ("trotter_hybrid", "quepp"), ("trotter_hybrid", "cpt"),
        ("mirror_sampler", "quepp"), ("mirror_sampler", "sample"),
        ("mirror_coefficient", "quepp"), ("mirror_coefficient", "cpt")]

# recorded before the per-op walk refactor; see CHANGES.md.  The quepp runs
# with sampled shots were re-recorded when a batch's shots became one
# binomial draw over all its items, from one stream per batch, and every
# file that carries ``ideal`` when the ideal came to be the noiseless
# Pauli-sum walk's value instead of the dense statevector's
DIGESTS = {
    "mirror_order-quepp": {
        "quepp_convergence.csv":
            "b31089c51e11c0d1a329583a021d7a02fb9eaafe1c3203d7a85bfb10d62dd367",
        "quepp_result.json":
            "8d2ea678cec65bfd6894d8ae399580419958518e3c0c8c2ce24e1a4957e6aa37",
    },
    "mirror_order-cpt": {
        "cpt_budget_series.csv":
            "d24240845382115f0507438fd46d7431a1f7d628d3d9335420123fad6ee958db",
        "cpt_order_series.csv":
            "5d6600056cc990875cf9a16c6b9e4474e29682cfdbf8ceeb8917f4f7c1ae5666",
        "cpt_result.json":
            "ee3418b3be2517518e79048542d90f6f8be16e16002ea6a5077fd7e4a2923802",
    },
    "trotter_hybrid-quepp": {
        "quepp_convergence.csv":
            "0d8926a4ff517b924ae0dba0cfaed8822ea4053120ea01bfd8b78d1e774d1d7d",
        # re-recorded when hybrid policies stopped reporting the order-tail
        # bound; result.bias_combinatorial is now null, nothing else moved
        "quepp_result.json":
            "83c97dacd6bd3b0f88ccc38f727f5733e1433214d7d24e8f865ab9c43c3962c1",
    },
    "trotter_hybrid-cpt": {
        "cpt_budget_series.csv":
            "e22a1c56e2ccf0039ead67079c6965818ef6bc168afbf34a8b14a2be89fca5a6",
        "cpt_order_series.csv":
            "41b034887612ebccc90ed57e59030ee546293c18e04fe86d32b77f8b1bbd3f5e",
        "cpt_result.json":
            "5ca39f5a5a63f895f5a57abdd047f45e7f6abef6ed58fdd54f9628a31889fb1e",
    },
    "mirror_sampler-quepp": {
        "quepp_convergence.csv":
            "fda7c6eaa3a7742f9845c0da3be69c0fd0072c01654cf10758100ff5d69d4172",
        "quepp_result.json":
            "120a9528a1826ad0e15a96ef23c926c46ba0adf46c407b800cefdf8c2b8e03a0",
    },
    "mirror_sampler-sample": {
        "ensemble.jsonl":
            "4bccc9d2eac580d26abf2247a9f9759d4784fb5908a0dc8dec406bfe0cf50d9e",
        "sampling_report.json":
            "36c3c3a191311a00e72fd480866701d9accf3524f9d984509e5fe63fe65c574d",
    },
    # recorded before the enumerator stopped building zero-ideal paths
    "mirror_coefficient-quepp": {
        "quepp_convergence.csv":
            "b83a1e6ca7bf6b0ae416e0d0588ed533287a3aee19a1708e1b625b5949ee19dc",
        "quepp_result.json":
            "ab7f1112762b25c2ca8cfa5691bd90b8714706a157f0b2f25a59829890164241",
    },
    "mirror_coefficient-cpt": {
        "cpt_budget_series.csv":
            "403fc888a9f50df53b4473de47c4599bf517e712135fbfe003a4ed043b77a7ac",
        "cpt_order_series.csv":
            "894210427ab8f93a6b4e75132a718757f793b427e9883b55abefc37ed373b36e",
        "cpt_result.json":
            "edd5f3da0279c2295fe05c496be9f76884c33c199f9ae0fd68e3d261db860f5d",
    },
}


def _run(tmp_path, tag, config, command):
    """Run one pinned command on ``config``; return its output directory."""
    path = tmp_path / f"{tag}.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / f"{tag}-{command}"
    argv = [command, "--config", str(path), "--out", str(out),
            "--seed", "1", "--workers", "1"]
    if command in ("quepp", "sample"):
        argv.append("--allow-partial")
    assert cli.main(argv) == 0
    return out


def _digests(tmp_path, name, command):
    out = _run(tmp_path, name, CONFIGS[name], command)
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


@pytest.mark.parametrize("name,command", RUNS,
                         ids=[f"{n}-{c}" for n, c in RUNS])
def test_outputs_keep_their_bytes(tmp_path, name, command):
    assert _digests(tmp_path, name, command) == DIGESTS[f"{name}-{command}"]


def _outputs(out):
    """Every file's bytes; a JSON file's without its config section, which
    names the circuit's source."""
    files = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".json":
            payload = json.loads(data)
            del payload["config"]
            data = json.dumps(payload, indent=2, sort_keys=True)
        files[path.name] = data
    return files


@pytest.mark.parametrize("name,command", RUNS,
                         ids=[f"{n}-{c}" for n, c in RUNS])
def test_circuit_file_runs_match_experiment_runs(tmp_path, name, command):
    # the same command from the circuit text that quepp generate writes;
    # --seed reseeds an experiment's circuit, so generate takes it too
    generated = tmp_path / "generated"
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(CONFIGS[name]), encoding="utf-8")
    assert cli.main(["generate", "--config", str(config), "--seed", "1",
                     "--out", str(generated)]) == 0
    manifest = json.loads((generated / "manifest.json").read_text())
    from_file = {key: value for key, value in CONFIGS[name].items()
                 if key != "experiment"}
    from_file.update(circuit_file=str(generated / "circuit.txt"),
                     observable=manifest["observable"])
    expected = _outputs(_run(tmp_path, name, CONFIGS[name], command))
    assert _outputs(_run(tmp_path, "file", from_file, command)) == expected


# a sweep and two single runs at different orders, each merged by
# ``quepp report --gnuplot``; the sweep's rows and the report's rows are
# built by one summary, so both are pinned
_TROTTER = {
    "experiment": {"family": "trotter", "num_qubits": 4, "layers": 2,
                   "rotation_angle": 0.5},
    "noise": _NOISE,
    "eta_method": "balance",
    "plan": {"num_twirls": 2, "shots_per_twirl": 50, "rng_seed": 5},
}
SWEEP = dict(_TROTTER,
             experiment=dict(_TROTTER["experiment"], sweep=[0.3, 0.7]),
             truncation={"mode": "order", "max_order": 2})
SINGLES = [dict(_TROTTER, truncation={"mode": "order", "max_order": order})
           for order in (1, 2)]

REPORT_DIGESTS = {
    "sweep": {
        "quepp_result.json":
            "55f17099abf938eb1d2694db451b8a9d1efff27410695c9ef2f8a2cd4cc4c4ca",
        "quepp_sweep.csv":
            "d3f0c0283a80a366f34f687520a8d90e1ed099cda360e2eb31889d8a9bad0523",
        "report.csv":
            "d3f0c0283a80a366f34f687520a8d90e1ed099cda360e2eb31889d8a9bad0523",
        "report.gp":
            "2d2ccb994b582acf77646b2d0ce2b270c046794072a1b3e145431b32c33fded6",
    },
    "orders": {
        "report.csv":
            "39dbcb9c226d2c53e0e7043deb2ac69622b11c582208e1953c0be17bf8f02eb9",
        "report.gp":
            "69973de08a3c7cd6c8397bab04ef9c4247a9027e0cd86f02f0e1bb1ea0ab8e08",
    },
}


def _report_digests(tmp_path, tag, inputs):
    out = tmp_path / f"{tag}-report"
    assert cli.main(["report", *map(str, inputs), "--out", str(out),
                     "--gnuplot"]) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


def test_sweep_and_its_report_keep_their_bytes(tmp_path):
    out = _run(tmp_path, "sweep", SWEEP, "quepp")
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(out.iterdir())}
    digests.update(_report_digests(tmp_path, "sweep",
                                   [out / "quepp_result.json"]))
    assert digests == REPORT_DIGESTS["sweep"]


def test_report_of_two_orders_keeps_its_bytes(tmp_path):
    inputs = [_run(tmp_path, f"order{order}", config, "quepp")
              / "quepp_result.json"
              for order, config in zip((1, 2), SINGLES)]
    assert (_report_digests(tmp_path, "orders", inputs)
            == REPORT_DIGESTS["orders"])
