"""Run configuration: one JSON document that reproduces a whole run.

Every output file embeds the fully resolved config (seeds included), so any
result can be regenerated bit-exactly from its own header.  Unknown keys are
rejected rather than ignored: a typo that silently changes nothing is worse
than an error.
"""

import json
import math
from dataclasses import dataclass, replace
from typing import Optional

from .backend import DEFAULT_MAX_TERMS, ExecutionPlan, NoiseModel
from .engine import TruncationPolicy
from .errors import ConfigError
from .experiments import CensusTargets, ExperimentSpec
from .pauli import PauliString
from .pipeline import ETA_METHODS
from .sampler import SamplerConfig

__all__ = [
    "SCHEMA_VERSION",
    "RunConfig",
    "load_config",
    "experiment_to_json",
    "experiment_from_json",
    "truncation_to_json",
    "truncation_from_json",
    "sampler_to_json",
    "sampler_from_json",
]

SCHEMA_VERSION = 1


def _require_keys(data: dict, allowed: set[str], what: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"{what}: unknown keys {sorted(unknown)}")


def experiment_to_json(spec: ExperimentSpec) -> dict:
    coupling = spec.coupling
    if coupling is not None and not isinstance(coupling, str):
        coupling = [list(edge) for edge in coupling]
    return {
        "family": spec.family,
        "num_qubits": spec.num_qubits,
        "layers": spec.layers,
        "rotation_angle": spec.rotation_angle,
        "rng_seed": spec.rng_seed,
        "observable": None if spec.observable is None else spec.observable.label(),
        "coupling": coupling,
        "p_single": spec.p_single,
        "p_cz": spec.p_cz,
        "p_rx": spec.p_rx,
        "census": None if spec.census is None else {
            "cz": spec.census.cz, "h": spec.census.h, "rx": spec.census.rx},
        "sweep": None if spec.sweep is None else list(spec.sweep),
    }


def experiment_from_json(data: dict) -> ExperimentSpec:
    _require_keys(data, {
        "family", "num_qubits", "layers", "rotation_angle", "rng_seed",
        "observable", "coupling", "p_single", "p_cz", "p_rx", "census",
        "sweep",
    }, "experiment")
    for key in ("family", "num_qubits", "layers"):
        if key not in data:
            raise ConfigError(f"experiment: missing required key {key!r}")
    observable = data.get("observable")
    if observable is not None:
        observable = PauliString.from_label(observable)
    coupling = data.get("coupling")
    if coupling is not None and not isinstance(coupling, str):
        coupling = tuple((int(a), int(b)) for a, b in coupling)
    census = data.get("census")
    if census is not None:
        _require_keys(census, {"cz", "h", "rx"}, "experiment.census")
        census = CensusTargets(cz=census["cz"], h=census["h"], rx=census["rx"])
    sweep = data.get("sweep")
    if sweep is not None:
        sweep = tuple(float(x) for x in sweep)
    try:
        return ExperimentSpec(
            family=data["family"],
            num_qubits=data["num_qubits"],
            layers=data["layers"],
            rotation_angle=data.get("rotation_angle", math.pi / 5),
            rng_seed=data.get("rng_seed", 0),
            observable=observable,
            coupling=coupling,
            p_single=data.get("p_single", 0.5),
            p_cz=data.get("p_cz", 0.5),
            p_rx=data.get("p_rx", 0.1),
            census=census,
            sweep=sweep,
        )
    except ValueError as exc:
        raise ConfigError(f"experiment: {exc}") from exc


def truncation_to_json(policy: TruncationPolicy) -> dict:
    return {
        "mode": policy.mode,
        "max_order": policy.max_order,
        "min_coefficient": policy.min_coefficient,
    }


def truncation_from_json(data: dict) -> TruncationPolicy:
    _require_keys(data, {"mode", "max_order", "min_coefficient"}, "truncation")
    mode = data.get("mode")
    try:
        if mode == "order":
            return TruncationPolicy.order(data["max_order"])
        if mode == "coefficient":
            return TruncationPolicy.coefficient(data["min_coefficient"])
        if mode == "hybrid":
            return TruncationPolicy.hybrid(data["max_order"],
                                           data["min_coefficient"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"truncation: {exc}") from exc
    raise ConfigError(f"truncation: unknown mode {mode!r}")


def sampler_to_json(config: SamplerConfig) -> dict:
    return {
        "target_unique_paths": config.target_unique_paths,
        "max_attempts": config.max_attempts,
        "distribution": config.distribution,
        "rng_seed": config.rng_seed,
    }


def sampler_from_json(data: dict) -> SamplerConfig:
    _require_keys(data, {"target_unique_paths", "max_attempts",
                         "distribution", "rng_seed"}, "sampler")
    try:
        return SamplerConfig(
            target_unique_paths=data["target_unique_paths"],
            max_attempts=data["max_attempts"],
            distribution=data.get("distribution", "d_tilde"),
            rng_seed=data.get("rng_seed", 0),
        )
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"sampler: {exc}") from exc


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs; commands validate the parts they use.

    The circuit comes either from a generated experiment or from a circuit
    file plus an observable label.  Exactly one of ``truncation`` and
    ``sampler`` selects the path set for cpt/quepp runs.
    """

    experiment: Optional[ExperimentSpec] = None
    circuit_file: Optional[str] = None
    observable: Optional[str] = None
    truncation: Optional[TruncationPolicy] = None
    sampler: Optional[SamplerConfig] = None
    noise: NoiseModel = NoiseModel.noiseless()
    plan: ExecutionPlan = ExecutionPlan()
    eta_method: str = "median"
    output_dir: Optional[str] = None
    seed: Optional[int] = None
    infinite_shots: bool = False
    max_terms: int = DEFAULT_MAX_TERMS

    def __post_init__(self):
        if self.experiment is not None and self.circuit_file is not None:
            raise ConfigError("give either experiment or circuit_file, not both")
        if self.circuit_file is not None and self.observable is None:
            raise ConfigError("circuit_file needs an observable label")
        if self.truncation is not None and self.sampler is not None:
            raise ConfigError("give either truncation or sampler, not both")
        if self.eta_method not in ETA_METHODS:
            raise ConfigError(f"unknown eta_method {self.eta_method!r}")
        if self.max_terms < 1:
            raise ConfigError("max_terms must be >= 1")

    def with_seed(self, seed: int) -> "RunConfig":
        """Override every sub-seed deterministically from one master seed."""
        experiment = self.experiment
        if experiment is not None:
            experiment = replace(experiment, rng_seed=seed)
        sampler = self.sampler
        if sampler is not None:
            sampler = replace(sampler, rng_seed=seed + 1)
        plan = replace(self.plan, rng_seed=seed + 2)
        return replace(self, experiment=experiment, sampler=sampler,
                       plan=plan, seed=seed)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "experiment": (None if self.experiment is None
                           else experiment_to_json(self.experiment)),
            "circuit_file": self.circuit_file,
            "observable": self.observable,
            "truncation": (None if self.truncation is None
                           else truncation_to_json(self.truncation)),
            "sampler": (None if self.sampler is None
                        else sampler_to_json(self.sampler)),
            "noise": self.noise.to_json_dict(),
            "plan": self.plan.to_json_dict(),
            "eta_method": self.eta_method,
            "output_dir": self.output_dir,
            "seed": self.seed,
            "infinite_shots": self.infinite_shots,
            "max_terms": self.max_terms,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RunConfig":
        _require_keys(data, {
            "schema_version", "experiment", "circuit_file", "observable",
            "truncation", "sampler", "noise", "plan", "eta_method",
            "output_dir", "seed", "infinite_shots", "max_terms",
            # the qubit cap of the retired dense engine; accepted, ignored
            "dense_qubit_cap",
        }, "config")
        schema = data.get("schema_version", SCHEMA_VERSION)
        if schema != SCHEMA_VERSION:
            raise ConfigError(
                f"config schema_version {schema} is not supported "
                f"(this build reads version {SCHEMA_VERSION})")
        try:
            noise = NoiseModel.from_json_dict(data.get("noise", {}))
            plan = ExecutionPlan.from_json_dict(data.get("plan", {}))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        experiment = data.get("experiment")
        return cls(
            experiment=(None if experiment is None
                        else experiment_from_json(experiment)),
            circuit_file=data.get("circuit_file"),
            observable=data.get("observable"),
            truncation=(None if data.get("truncation") is None
                        else truncation_from_json(data["truncation"])),
            sampler=(None if data.get("sampler") is None
                     else sampler_from_json(data["sampler"])),
            noise=noise,
            plan=plan,
            eta_method=data.get("eta_method", "median"),
            output_dir=data.get("output_dir"),
            seed=data.get("seed"),
            infinite_shots=data.get("infinite_shots", False),
            max_terms=data.get("max_terms", DEFAULT_MAX_TERMS),
        )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    if "version" in data and isinstance(data.get("config"), dict):
        # result files embed their config; accept them directly so a run
        # can be reproduced straight from its own output
        data = data["config"]
    return RunConfig.from_json_dict(data)
