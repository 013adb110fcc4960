"""Run-config serialization: strict keys, round trips, seed derivation."""

import json
import math

import pytest

from quepp.backend import ExecutionPlan, NoiseModel
from quepp.config import RunConfig, SCHEMA_VERSION, load_config
from quepp.engine import TruncationPolicy
from quepp.errors import ConfigError
from quepp.experiments import CensusTargets, ExperimentSpec
from quepp.sampler import SamplerConfig

from helpers import is_noiseless


def full_config():
    spec = ExperimentSpec(
        family="mirror2d", num_qubits=6, layers=4, rotation_angle=0.4,
        rng_seed=3, coupling=((0, 1), (1, 2), (2, 3), (4, 5)),
        p_single=0.6, p_cz=0.4, p_rx=0.2,
        census=CensusTargets(cz=4, h=6, rx=2),
        sweep=(0.0, 0.2, 0.4),
    )
    return RunConfig(
        experiment=spec,
        truncation=TruncationPolicy(3, 1e-4),
        noise=NoiseModel.depolarizing(lambda2=1e-3, lambda1=1e-4,
                                      readout=5e-3),
        plan=ExecutionPlan(num_twirls=10, shots_per_twirl=100, rng_seed=8),
        eta_method="balance",
        output_dir="out",
        seed=5,
        infinite_shots=True,
        max_terms=10,
    )


def test_round_trip_with_truncation():
    config = full_config()
    assert RunConfig.from_json_dict(config.to_json_dict()) == config


def test_round_trip_with_sampler_and_circuit_file():
    config = RunConfig(
        circuit_file="circuit.txt",
        observable="ZZI",
        sampler=SamplerConfig(target_unique_paths=50, max_attempts=5000,
                              distribution="d_postselected", rng_seed=2),
    )
    assert RunConfig.from_json_dict(config.to_json_dict()) == config


def test_defaults_survive_minimal_document():
    config = RunConfig.from_json_dict({
        "experiment": {"family": "mirror1d", "num_qubits": 3, "layers": 2},
    })
    assert config.experiment.rotation_angle == math.pi / 5
    assert is_noiseless(config.noise)
    assert config.plan == ExecutionPlan()
    assert config.eta_method == "median"
    assert not config.infinite_shots


@pytest.mark.parametrize("document", [
    {"schema_version": SCHEMA_VERSION, "wibble": 1},
    {"experiment": {"family": "mirror1d", "num_qubits": 3, "layers": 2,
                    "depth": 5}},
    {"experiment": {"family": "mirror2d", "num_qubits": 3, "layers": 2,
                    "census": {"cz": 2, "h": 2, "rx": 2, "sx": 2}}},
    {"truncation": {"mode": "order", "max_order": 2, "keep": True}},
    {"sampler": {"target_unique_paths": 5, "max_attempts": 50, "paths": 2}},
    {"noise": {"lambda2": 1e-3}},
    {"plan": {"twirls": 5}},
    {"truncation": "order"},
])
def test_unknown_keys_are_rejected_at_every_level(document):
    with pytest.raises(ConfigError):
        RunConfig.from_json_dict(document)


def test_required_experiment_keys():
    for experiment in ({"family": "mirror1d", "num_qubits": 3},
                       {"num_qubits": 3, "layers": 2}):
        with pytest.raises(ConfigError):
            RunConfig.from_json_dict({"experiment": experiment})


def test_source_and_policy_exclusivity():
    spec = ExperimentSpec(family="mirror1d", num_qubits=3, layers=2)
    with pytest.raises(ConfigError):
        RunConfig(experiment=spec, circuit_file="c.txt", observable="ZII")
    with pytest.raises(ConfigError):
        RunConfig(circuit_file="c.txt")
    # beside an experiment a top-level observable measured nothing: the
    # experiment's own observable was run instead
    for source in ({"experiment": spec}, {}):
        with pytest.raises(ConfigError, match="experiment.observable"):
            RunConfig(**source, observable="ZZI")
    with pytest.raises(ConfigError):
        RunConfig(experiment=spec, truncation=TruncationPolicy.order(2),
                  sampler=SamplerConfig(5, 50))
    with pytest.raises(ConfigError):
        RunConfig(experiment=spec, eta_method="mean")


def test_retired_dense_qubit_cap_is_accepted_and_ignored(tmp_path):
    document = full_config().to_json_dict()
    del document["max_terms"]
    document["dense_qubit_cap"] = 10
    config = RunConfig.from_json_dict(document)
    assert config.max_terms == RunConfig().max_terms
    assert "dense_qubit_cap" not in config.to_json_dict()
    result_file = tmp_path / "result.json"
    result_file.write_text(json.dumps({
        "version": "quepp 0.1.0", "config": document,
        "result": {"boosted": 1.0}}), encoding="utf-8")
    assert load_config(str(result_file)) == config
    with pytest.raises(ConfigError):
        RunConfig.from_json_dict({"max_terms": 0})
    # term caps are int64 in the walk
    with pytest.raises(ConfigError, match=r"2\*\*62"):
        RunConfig.from_json_dict({"max_terms": 2 ** 62})
    assert RunConfig(max_terms=2 ** 62 - 1).max_terms == 2 ** 62 - 1


def test_retired_interleave_flag_is_accepted_and_ignored():
    document = full_config().to_json_dict()
    document["plan"]["interleave"] = True
    config = RunConfig.from_json_dict(document)
    assert config.plan == full_config().plan
    assert "interleave" not in config.to_json_dict()["plan"]


def test_schema_version_gate():
    with pytest.raises(ConfigError):
        RunConfig.from_json_dict({"schema_version": SCHEMA_VERSION + 1})


def test_truncation_modes_round_trip():
    for policy in (TruncationPolicy.order(3),
                   TruncationPolicy(min_coefficient=1e-3),
                   TruncationPolicy(2, 1e-4)):
        config = RunConfig(truncation=policy)
        assert RunConfig.from_json_dict(config.to_json_dict()) == config
    for truncation in (
            {"mode": "budget"}, {"mode": "order"},
            # a field that contradicts the mode is an error, not silently
            # dropped
            {"mode": "order", "max_order": 2, "min_coefficient": 0.1},
            {"mode": "coefficient", "max_order": 2, "min_coefficient": 0.1}):
        with pytest.raises(ConfigError):
            RunConfig.from_json_dict({"truncation": truncation})


@pytest.mark.parametrize("max_terms", [2.5, True, 0, 2 ** 62])
def test_max_terms_has_the_walks_range(max_terms):
    # the range of every walk's term cap: an int in [1, 2**62), no bool
    with pytest.raises(ConfigError, match="max_terms"):
        RunConfig(max_terms=max_terms)


def test_numbers_are_written_back_as_given():
    config = RunConfig.from_json_dict({
        "experiment": {"family": "trotter", "num_qubits": 2, "layers": 1,
                       "rotation_angle": 1, "sweep": [0, 0.5]},
        "noise": {"readout_flip": 0},
    })
    written = json.dumps(config.to_json_dict(), sort_keys=True)
    assert '"rotation_angle": 1,' in written
    assert '"readout_flip": 0,' in written
    assert '"sweep": [0.0, 0.5]' in written


def test_noise_shorthand_accepted_in_config():
    config = RunConfig.from_json_dict({
        "experiment": {"family": "mirror1d", "num_qubits": 3, "layers": 2},
        "noise": {"depolarizing": {"lambda2": 1e-3}},
    })
    assert config.noise == NoiseModel.depolarizing(lambda2=1e-3)


def test_with_seed_derives_all_streams():
    config = RunConfig(
        experiment=ExperimentSpec(family="mirror1d", num_qubits=3, layers=2,
                                  rng_seed=0),
        sampler=SamplerConfig(target_unique_paths=5, max_attempts=50,
                              rng_seed=0),
    )
    seeded = config.with_seed(41)
    assert seeded.seed == 41
    assert seeded.experiment.rng_seed == 41
    assert seeded.sampler.rng_seed == 42
    assert seeded.plan.rng_seed == 43
    bare = RunConfig(circuit_file="c.txt", observable="Z").with_seed(7)
    assert bare.experiment is None and bare.sampler is None
    assert bare.plan.rng_seed == 9


def test_load_config_reads_plain_and_result_files(tmp_path):
    config = full_config()
    plain = tmp_path / "run.json"
    plain.write_text(json.dumps(config.to_json_dict()), encoding="utf-8")
    assert load_config(str(plain)) == config

    result_file = tmp_path / "result.json"
    result_file.write_text(json.dumps({
        "version": "quepp 0.1.0",
        "config": config.to_json_dict(),
        "result": {"boosted": 1.0},
    }), encoding="utf-8")
    assert load_config(str(result_file)) == config


def test_two_configs_in_one_process_read_back_their_own_values(tmp_path):
    # every section reads its dataclass's annotations from one cache per
    # process; two configs loaded in turn must not share any value
    first = full_config()
    second = RunConfig(
        circuit_file="c.txt", observable="XZ",
        sampler=SamplerConfig(target_unique_paths=7, max_attempts=90,
                              distribution="d_tilde", rng_seed=4),
        noise=NoiseModel(single_qubit_rates=(("Z", 0.25),)),
        plan=ExecutionPlan(num_twirls=3, shots_per_twirl=11, rng_seed=2),
        eta_method="weighted_average", max_terms=77)
    paths = []
    for name, config in (("first", first), ("second", second)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(config.to_json_dict()),
                             encoding="utf-8")
    for _ in range(2):
        assert [load_config(str(path)) for path in paths] == [first, second]
    assert load_config(str(paths[1])).plan.shots_per_twirl == 11
    assert load_config(str(paths[0])).plan.shots_per_twirl == 100


def test_load_config_error_paths(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    array = tmp_path / "array.json"
    array.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(array))
