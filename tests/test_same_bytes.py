"""Every CLI output file keeps its exact bytes.

Refactors of the walk, the backend and the pipeline promise byte-identical
result files.  Four tiny experiment configs (no ``circuit_file``, so no
output depends on a path) run ``quepp quepp``, ``quepp cpt`` and
``quepp sample`` with one worker at a fixed seed, and the SHA-256 of every
file written must equal the digest pinned here.  A change that is meant to
alter the outputs updates these digests and says why.
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
# binomial draw over all its items, from one stream per batch
DIGESTS = {
    "mirror_order-quepp": {
        "quepp_convergence.csv":
            "b31089c51e11c0d1a329583a021d7a02fb9eaafe1c3203d7a85bfb10d62dd367",
        "quepp_result.json":
            "b09b92d8152093de75d9d146fc3953daca27539eed76f808e4847e5daa5523d5",
    },
    "mirror_order-cpt": {
        "cpt_budget_series.csv":
            "d8cbe92aa51a53ffffd82ff26be7f1d94df785c60811dfd2681336f4e59f6595",
        "cpt_order_series.csv":
            "807c0e42f7685feebac7f2b09756b064ac8b39b533bc3e400c5fe38c8e754b4e",
        "cpt_result.json":
            "3c0d1bf0d4c1db7abc638b943f4997d138951e6d49ee79fab8fa32322ac37e6a",
    },
    "trotter_hybrid-quepp": {
        "quepp_convergence.csv":
            "0d8926a4ff517b924ae0dba0cfaed8822ea4053120ea01bfd8b78d1e774d1d7d",
        # re-recorded when hybrid policies stopped reporting the order-tail
        # bound; result.bias_combinatorial is now null, nothing else moved
        "quepp_result.json":
            "980e958e4e04352064a1d9b3c15539f60c58c6ba0cc2a56216dcd8fee3ab8217",
    },
    "trotter_hybrid-cpt": {
        "cpt_budget_series.csv":
            "bd9c39c28c061e7190e8c9e0687530bd0fec178427f8fda491d8b1ceecdc514b",
        "cpt_order_series.csv":
            "bcb460d1ce4cf4759b775f202038ab2c85c87e438eff96ecddc5f9cf503d76b8",
        "cpt_result.json":
            "3db4959299372c37879c96ea6f01629df2e4bfc223e32d765aa55d8c9c7d2abf",
    },
    "mirror_sampler-quepp": {
        "quepp_convergence.csv":
            "fda7c6eaa3a7742f9845c0da3be69c0fd0072c01654cf10758100ff5d69d4172",
        "quepp_result.json":
            "953a20950f9ed303354d69498ec5bfb8c5402e04121ba7f51a8f5b036118d8be",
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
            "897826c78eadbf3346e3fe11638b3e461521075f9d923e2c4e4d7fe6b59f86f4",
    },
    "mirror_coefficient-cpt": {
        "cpt_budget_series.csv":
            "864ed14368273af4782ce93eca3697e552daad45967ff3233b6ea32798aab6cf",
        "cpt_order_series.csv":
            "3f0b44c36963e998bab5a2f4718d59b86275d75d6157ed71a460cf456e6da3b3",
        "cpt_result.json":
            "c0e6fe52fa13bf1dc92ac0aafd44924f35ef7a7a0df7b90dd84ebc9c69491539",
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
