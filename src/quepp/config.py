"""Run configuration: one JSON document that reproduces a whole run.

Every output file embeds the fully resolved config (seeds included), so any
result can be regenerated bit-exactly from its own header.  Each section's
dataclass is its schema: the section's keys are the dataclass's fields, a
field without a default is required, and a missing key takes the field's
default.  A value must have its field's JSON type: an int is no bool and no
float, a float may be written as an int (and is written back as one), a str
or a bool is exact, and null is only allowed where the field is Optional.
Unknown keys are rejected rather than ignored: a typo that silently changes
nothing is worse than an error.  The keys of retired options are accepted
and ignored.  ``RunConfig`` reads and writes its sections through one table,
``_RUN``, of (read, write) functions; the truncation section also names its
``mode``, which must be the mode its fields give.  ``max_terms`` has the one
range of every walk's term cap (``backend._term_cap``).
"""

import dataclasses
import json
import typing
from dataclasses import dataclass, replace
from typing import Optional

from .backend import DEFAULT_MAX_TERMS, ExecutionPlan, NoiseModel, _term_cap
from .engine import TruncationPolicy
from .errors import ConfigError
from .experiments import CensusTargets, ExperimentSpec
from .pauli import PauliString
from .pipeline import ETA_METHODS
from .sampler import SamplerConfig

__all__ = ["SCHEMA_VERSION", "RunConfig", "load_config"]

SCHEMA_VERSION = 1

_JSON_TYPES = {int: int, float: (int, float), str: str, bool: bool}


def _object(data, what: str) -> dict:
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be a JSON object, got {data!r}")
    return data


def _check(name: str, value, hint):
    """``value`` if it has the JSON type of a field annotated ``hint``."""
    if value is None and type(None) in typing.get_args(hint):
        return None
    hint = (typing.get_args(hint) or (hint,))[0]
    if isinstance(value, bool) != (hint is bool) \
            or not isinstance(value, _JSON_TYPES[hint]):
        raise TypeError(f"{name} must be {hint.__name__}, got {value!r}")
    return value


def _read(cls, data, what: str, convert=None, retired=()):
    """The ``cls`` instance that the JSON section ``data`` describes.

    ``convert`` maps a field to a (read, write) pair of functions of its
    non-null JSON value; every other field is checked against its
    annotation.  Only the keys present are passed, so the dataclass
    defaults apply.
    """
    convert = convert or {}
    fields = dataclasses.fields(cls)
    unknown = set(_object(data, what)) - {f.name for f in fields} - set(retired)
    if unknown:
        raise ConfigError(f"{what}: unknown keys {sorted(unknown)}")
    missing = [f.name for f in fields
               if f.default is dataclasses.MISSING and f.name not in data]
    if missing:
        raise ConfigError(f"{what}: missing required keys {missing}")
    values = {}
    try:
        for name, hint in [(f.name, f.type) for f in fields
                           if f.name in data]:
            value = data[name]
            if name in convert and value is not None:
                values[name] = convert[name][0](value)
            else:
                values[name] = _check(name, value, hint)
        return cls(**values)
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _write(value, convert=None) -> dict:
    """One key per field of the dataclass ``value``, as ``_read`` reads."""
    data = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    for name, (_, write) in (convert or {}).items():
        if data[name] is not None:
            data[name] = write(data[name])
    return data


def _edges(coupling):
    """A coupling map name, or [a, b] qubit pairs as a tuple of pairs."""
    if isinstance(coupling, str):
        return coupling
    edges = tuple(tuple(_check("coupling qubit", q, int) for q in edge)
                  for edge in coupling)
    if any(len(edge) != 2 for edge in edges):
        raise ValueError(f"coupling edges must be qubit pairs, got {coupling!r}")
    return edges


def _rates(table) -> tuple:
    return tuple((label, _check(label, prob, float))
                 for label, prob in _object(table, "noise rates").items())


_EXPERIMENT = {
    "observable": (lambda label: PauliString.from_label(
        _check("observable", label, str)), PauliString.label),
    "coupling": (_edges, lambda coupling: coupling if isinstance(coupling, str)
                 else [list(edge) for edge in coupling]),
    "census": (lambda census: _read(CensusTargets, census, "experiment.census"),
               _write),
    "sweep": (lambda angles: tuple(float(_check("sweep angle", angle, float))
                                   for angle in angles), list),
}
_RATES = dict.fromkeys(("two_qubit_rates", "single_qubit_rates"),
                       (_rates, dict))


def _truncation_from_json(data) -> TruncationPolicy:
    fields = dict(_object(data, "truncation"))
    mode = fields.pop("mode", None)
    if mode not in ("order", "coefficient", "hybrid"):
        raise ConfigError(f"truncation: unknown mode {mode!r}")
    policy = _read(TruncationPolicy, fields, "truncation")
    if policy.mode != mode:
        raise ConfigError(f"truncation: mode {mode!r} contradicts its fields, "
                          f"which give mode {policy.mode!r}")
    return policy


def _noise_from_json(data) -> NoiseModel:
    if isinstance(data, dict) and "depolarizing" in data:
        if len(data) != 1:
            raise ConfigError("noise: the depolarizing shorthand replaces "
                              "explicit rates, not supplements them")
        shorthand = _object(data["depolarizing"], "noise.depolarizing")
        try:  # the call rejects a key that is not a parameter
            return NoiseModel.depolarizing(**{
                key: _check(key, value, float)
                for key, value in shorthand.items()})
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"noise.depolarizing: {exc}") from exc
    return _read(NoiseModel, data, "noise", _RATES)


_RUN = {
    "experiment": (lambda spec: _read(ExperimentSpec, spec, "experiment",
                                      _EXPERIMENT),
                   lambda spec: _write(spec, _EXPERIMENT)),
    "truncation": (_truncation_from_json,
                   lambda policy: {"mode": policy.mode, **_write(policy)}),
    "sampler": (lambda sampler: _read(SamplerConfig, sampler, "sampler"),
                _write),
    "noise": (_noise_from_json, lambda noise: _write(noise, _RATES)),
    # "interleave" was a no-op scheduling flag
    "plan": (lambda plan: _read(ExecutionPlan, plan, "plan",
                                retired=("interleave",)), _write),
}


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs; commands validate the parts they use.

    The circuit comes either from a generated experiment or from a circuit
    file plus an observable label; beside an experiment, which names its
    own observable, the label is refused.  Exactly one of ``truncation`` and
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
        if self.observable is not None and self.circuit_file is None:
            raise ConfigError("observable goes with circuit_file; an "
                              "experiment takes experiment.observable")
        if self.truncation is not None and self.sampler is not None:
            raise ConfigError("give either truncation or sampler, not both")
        if self.eta_method not in ETA_METHODS:
            raise ConfigError(f"unknown eta_method {self.eta_method!r}")
        try:
            _term_cap(self.max_terms)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.observable is not None:
            PauliString.from_label(self.observable)  # ValueError if bad

    def with_seed(self, seed: int) -> "RunConfig":
        """Override every sub-seed deterministically from one master seed."""
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
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
        return {"schema_version": SCHEMA_VERSION, **_write(self, _RUN)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "RunConfig":
        fields = dict(_object(data, "config"))
        schema = fields.pop("schema_version", SCHEMA_VERSION)
        if schema != SCHEMA_VERSION:
            raise ConfigError(
                f"config schema_version {schema} is not supported "
                f"(this build reads version {SCHEMA_VERSION})")
        # the qubit cap of the retired dense engine
        return _read(cls, fields, "config", _RUN, retired=("dense_qubit_cap",))


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    if "version" in document and isinstance(document.get("config"), dict):
        # result files embed their config; accept them directly so a run
        # can be reproduced straight from its own output
        document = document["config"]
    return RunConfig.from_json_dict(document)
