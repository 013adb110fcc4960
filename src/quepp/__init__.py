"""Pauli-path simulation with noise-boosted estimation.

The package splits into layers: Pauli algebra and circuit representation
(:mod:`quepp.pauli`, :mod:`quepp.circuits`), back-propagated path expansion
(:mod:`quepp.engine`), stochastic path sampling
(:mod:`quepp.sampler`), noisy execution (:mod:`quepp.backend`), and the
boosted estimator that combines classical and noisy parts
(:mod:`quepp.pipeline`).  :mod:`quepp.experiments` generates benchmark
circuit families and :mod:`quepp.cli` exposes everything as subcommands.
"""

__version__ = "0.1.0"

from .backend import (Backend, ExecutionPlan, NoiseModel, NoisyEstimate,
                      TrajectorySimulator)
from .circuits import (Circuit, PauliRotation, inverse_circuit,
                       normalize_rotations, parse_circuit, serialize_circuit)
from .config import RunConfig, load_config
from .engine import (PathSet, PauliPath, TruncationPolicy,
                     classical_cpt_estimate, coefficient_power,
                     enumerate_paths_parallel, merged_bfs_cpt, path_record,
                     path_to_circuit)
from .errors import (CapabilityError, ConfigError, ConsistencyError,
                     DegenerateEtaError, EnumerationLimitError,
                     ParseError, QueppError)
from .experiments import (CensusTargets, ExperimentSpec, circuit_manifest,
                          generate_experiment, heavy_hex_edges)
from .pauli import CliffordGate, PauliString
from .pipeline import (EnsembleRecord, EtaChoice, QueppResult,
                       bias_bound_combinatorial, bias_bound_eta, choose_eta,
                       convergence_series, eta_balance, eta_median,
                       eta_weighted_average, make_record, quepp_estimate,
                       run_quepp, variance_bound)
from .sampler import SamplerConfig, SamplingReport, build_ensemble

__all__ = [
    "__version__",
    "Backend", "ExecutionPlan", "NoiseModel", "NoisyEstimate",
    "TrajectorySimulator",
    "Circuit", "PauliRotation", "inverse_circuit", "normalize_rotations",
    "parse_circuit", "serialize_circuit",
    "RunConfig", "load_config",
    "PathSet", "PauliPath", "TruncationPolicy",
    "classical_cpt_estimate", "coefficient_power",
    "enumerate_paths_parallel", "merged_bfs_cpt", "path_record",
    "path_to_circuit",
    "CapabilityError", "ConfigError", "ConsistencyError",
    "DegenerateEtaError", "EnumerationLimitError", "ParseError", "QueppError",
    "CensusTargets", "ExperimentSpec", "circuit_manifest",
    "generate_experiment", "heavy_hex_edges",
    "CliffordGate", "PauliString",
    "EnsembleRecord", "EtaChoice", "QueppResult",
    "bias_bound_combinatorial", "bias_bound_eta", "choose_eta",
    "convergence_series", "eta_balance", "eta_median",
    "eta_weighted_average", "make_record", "quepp_estimate", "run_quepp",
    "variance_bound",
    "SamplerConfig", "SamplingReport", "build_ensemble",
]
