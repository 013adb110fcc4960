"""Command line front end.

Commands read a JSON run config and write JSON results plus CSV series into
an output directory (``--out``, the config's ``output_dir``, the
``QUEPP_OUTPUT_DIR`` environment variable, or the working directory, in that
order).  Every output embeds the fully resolved config and a version string,
and contains no timestamps, so re-running from an embedded config reproduces
the files bit for bit.  ``--workers`` is checked (>= 1) and ignored: path
enumeration runs in process, as a worker pool lost on every tree measured.
The ``ideal`` that ``cpt`` and ``quepp`` report is the noiseless Pauli-sum
walk's value, or null when that walk reaches ``max_terms``: ``cpt`` walks
it, and ``quepp`` reads it off the target's ``NoisyEstimate.noiseless``.

Exit codes: 0 success, 2 config or input error, 3 capability error (the
requested simulation is outside what the engines support, a path budget ran
out, or the chosen rescaling factor eta is 0 or not finite), 4 internal
consistency failure.
"""

import argparse
import csv
import dataclasses
import functools
import json
import os
import sys
import traceback

import numpy as np

from . import __version__
from .circuits import Circuit, normalize_rotations, parse_circuit, serialize_circuit
from .config import SCHEMA_VERSION, RunConfig, load_config
from .engine import (classical_cpt_estimate, enumerate_paths_parallel,
                     merged_bfs_cpt, path_record)
from .errors import (CapabilityError, ConfigError, DegenerateEtaError,
                     EnumerationLimitError, ParseError, QueppError)
from .experiments import circuit_manifest, generate_experiment
from .pauli import PauliString
from .pipeline import convergence_series, run_quepp
from .sampler import build_ensemble, require_complete
from .backend import TrajectorySimulator

OUTPUT_DIR_ENV = "QUEPP_OUTPUT_DIR"


def _version_string() -> str:
    return f"quepp {__version__}"


def _load(args) -> RunConfig:
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    config = load_config(args.config)
    if args.seed is not None:
        config = config.with_seed(args.seed)
    if args.infinite_shots:
        config = dataclasses.replace(config, infinite_shots=True)
    return config


def _header(config: RunConfig, circuit: Circuit = None,
            observable: PauliString = None) -> dict:
    """A result file's shared keys, with the circuit's manifest and the
    observable where the command ran one."""
    header = {"schema_version": SCHEMA_VERSION, "version": _version_string(),
              "config": config.to_json_dict()}
    if circuit is not None:
        header["circuit_manifest"] = circuit_manifest(circuit)
        header["observable"] = observable.label()
    return header


def _resolve_circuit(config: RunConfig) -> tuple[Circuit, PauliString]:
    """The config's circuit, normalized, and its observable."""
    if config.experiment is not None:
        circuit = generate_experiment(config.experiment)
        return (normalize_rotations(circuit),
                config.experiment.resolved_observable())
    if config.circuit_file is None:
        raise ConfigError("config needs an experiment or a circuit_file")
    try:
        with open(config.circuit_file, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {config.circuit_file}: {exc}") from exc
    circuit = parse_circuit(text)
    observable = PauliString.from_label(config.observable)
    if observable.num_qubits != circuit.num_qubits:
        raise ConfigError(
            f"observable acts on {observable.num_qubits} qubits but the "
            f"circuit has {circuit.num_qubits}")
    return normalize_rotations(circuit), observable


def _write_json(path: str, payload: dict) -> None:
    # strict JSON: a NaN or infinity is written as null, by decoding an
    # encode in key order; one write, as json.dump writes once per chunk;
    # a payload is a fresh tree, so no cycle check
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False,
                          check_circular=False)
    except ValueError:
        text = json.dumps(json.loads(json.dumps(payload, sort_keys=True),
                                     parse_constant=lambda _: None), indent=2)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def _write_csv(path: str, header: list[str], rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(row.get(column)) for column in header])


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return value


def _prepare_out(args, config: RunConfig = None) -> str:
    """The output directory, made: ``--out``, then the config's
    ``output_dir``, then ``$QUEPP_OUTPUT_DIR``, then the working directory.
    A command makes it only to write its files, so a failed one makes
    none."""
    out = args.out or (config and config.output_dir) \
        or os.environ.get(OUTPUT_DIR_ENV, ".")
    os.makedirs(out, exist_ok=True)
    return out


def cmd_generate(args) -> int:
    config = _load(args)
    if config.experiment is None:
        raise ConfigError("generate needs an experiment section")
    circuit = generate_experiment(config.experiment)
    out = _prepare_out(args, config)
    circuit_path = os.path.join(out, "circuit.txt")
    with open(circuit_path, "w", encoding="utf-8") as handle:
        handle.write(serialize_circuit(circuit))
    payload = _header(config, circuit,
                      config.experiment.resolved_observable())
    manifest_path = os.path.join(out, "manifest.json")
    _write_json(manifest_path, payload)
    print(f"wrote {circuit_path}")
    print(f"wrote {manifest_path}")
    return 0


def cmd_cpt(args) -> int:
    config = _load(args)
    if config.truncation is None:
        raise ConfigError("cpt enumerates the truncated tree; "
                          "configure truncation, not sampler")
    circuit, observable = _resolve_circuit(config)
    policy = config.truncation

    paths = enumerate_paths_parallel(circuit, observable, policy)
    k_max = policy.max_order if policy.max_order is not None \
        else circuit.num_rotations
    k_max = min(k_max, circuit.num_rotations)
    order_rows = []
    # zero-ideal paths add only signed zeros, which fsum drops
    for k_t in range(k_max + 1):
        order_rows.append({
            "k_t": k_t,
            "estimate": classical_cpt_estimate(
                p for p in paths.executed if p.order <= k_t),
            "num_paths": sum(paths.counts[:k_t + 1]),
        })

    [(reference, peak)] = merged_bfs_cpt(
        circuit, observable, [config.max_terms],
        min_coefficient=policy.min_coefficient)
    # powers of two below the peak, in one walk; a cap at the peak binds only
    # if the reference's own cap did, so the reference walk is the last row
    budgets = [1 << k for k in range((peak - 1).bit_length())]
    budget_rows = [
        {"max_terms": budget, "terms_kept": kept, "estimate": estimate}
        for budget, (estimate, kept) in zip(budgets, merged_bfs_cpt(
            circuit, observable, budgets,
            min_coefficient=policy.min_coefficient))]
    budget_rows.append({"max_terms": peak, "terms_kept": peak,
                        "estimate": reference})

    # the noiseless walk's value unless its peak reaches max_terms; without
    # a floor the reference is that walk
    [(ideal, ideal_peak)] = merged_bfs_cpt(
        circuit, observable, [config.max_terms]) \
        if policy.min_coefficient > 0 else [(reference, peak)]
    if ideal_peak >= config.max_terms:
        ideal = None
    if ideal is not None:
        for row in order_rows + budget_rows:
            row["ideal"] = ideal

    payload = _header(config, circuit, observable)
    payload["ideal"] = ideal
    payload["order_series"] = order_rows
    payload["budget_series"] = budget_rows
    payload["merged_bfs"] = {"estimate": reference, "peak_terms": peak,
                             "term_cap": config.max_terms}
    out = _prepare_out(args, config)
    result_path = os.path.join(out, "cpt_result.json")
    _write_json(result_path, payload)
    extra = [] if ideal is None else ["ideal"]
    _write_csv(os.path.join(out, "cpt_order_series.csv"),
               ["k_t", "estimate", "num_paths"] + extra, order_rows)
    _write_csv(os.path.join(out, "cpt_budget_series.csv"),
               ["max_terms", "terms_kept", "estimate"] + extra, budget_rows)
    print(f"wrote {result_path}")
    print(f"cpt estimate at k_t={k_max}: {order_rows[-1]['estimate']:.12g}")
    if ideal is not None:
        print(f"ideal value: {ideal:.12g}")
    return 0


def _series_sizes(count: int) -> list[int]:
    if count <= 64:
        return list(range(1, count + 1))
    grid = np.geomspace(1, count, 32)
    return sorted({int(round(x)) for x in grid})


def _run_single(config: RunConfig, circuit: Circuit, observable: PauliString,
                args):
    backend = TrajectorySimulator(config.noise, max_terms=config.max_terms,
                                  infinite_shots=config.infinite_shots)
    return run_quepp(circuit, observable, backend, config.plan,
                     policy=config.truncation,
                     sampler=config.sampler,
                     eta_method=config.eta_method,
                     allow_partial=args.allow_partial)


def cmd_quepp(args) -> int:
    config = _load(args)
    if config.truncation is None and config.sampler is None:
        raise ConfigError("quepp needs a truncation or sampler section")
    if config.experiment is not None and config.experiment.sweep is not None:
        rows = []
        results = []
        for theta in config.experiment.sweep:
            circuit, observable = _resolve_circuit(dataclasses.replace(
                config, experiment=config.experiment.with_angle(theta)))
            result = _run_single(config, circuit, observable, args)
            results.append(result.to_json_dict())
            rows.append({"theta": theta, **_summary(
                results[-1], result.noisy_target.noiseless)})
        payload = _header(config)
        payload["sweep"] = rows
        payload["results"] = results
        out = _prepare_out(args, config)
        result_path = os.path.join(out, "quepp_result.json")
        _write_json(result_path, payload)
        _write_csv(os.path.join(out, "quepp_sweep.csv"), _SWEEP_COLUMNS,
                   rows)
        print(f"wrote {result_path}")
        print(f"swept {len(rows)} angles")
        return 0

    circuit, observable = _resolve_circuit(config)
    result = _run_single(config, circuit, observable, args)
    ideal = result.noisy_target.noiseless
    series = convergence_series(result.records, result.noisy_target,
                                eta_method=config.eta_method,
                                sizes=_series_sizes(len(result.records)),
                                bootstrap_resamples=100,
                                seed=config.plan.rng_seed)
    payload = _header(config, circuit, observable)
    payload["ideal"] = ideal
    payload["result"] = result.to_json_dict()
    payload["series"] = series
    out = _prepare_out(args, config)
    result_path = os.path.join(out, "quepp_result.json")
    _write_json(result_path, payload)
    _write_csv(os.path.join(out, "quepp_convergence.csv"),
               ["size", "boosted", "std_error", "eta", "classical_part",
                "residual"], series)
    print(f"wrote {result_path}")
    print(f"boosted estimate: {result.boosted:.12g} "
          f"(std error {result.boosted_std_error:.3g}, "
          f"eta {result.eta.value:.6g} via {result.eta.method})")
    if ideal is not None:
        print(f"ideal value: {ideal:.12g}")
    return 0


def cmd_sample(args) -> int:
    config = _load(args)
    if config.sampler is None:
        raise ConfigError("sample needs a sampler section")
    circuit, observable = _resolve_circuit(config)
    paths, report = build_ensemble(circuit, observable, config.sampler)
    require_complete(report, config.sampler, args.allow_partial)
    out = _prepare_out(args, config)
    ensemble_path = os.path.join(out, "ensemble.jsonl")
    with open(ensemble_path, "w", encoding="utf-8") as handle:
        handle.write("".join(json.dumps(path_record(path), sort_keys=True)
                             + "\n" for path in paths))
    payload = _header(config, circuit, observable)
    payload["report"] = report.to_json_dict()
    report_path = os.path.join(out, "sampling_report.json")
    _write_json(report_path, payload)
    print(f"wrote {ensemble_path}")
    print(f"wrote {report_path}")
    print(f"accepted {report.accepted} walks, {report.unique} unique paths "
          f"in {report.attempts} attempts")
    return 0


def _seed_signature(config_dict: dict) -> tuple:
    experiment = config_dict.get("experiment") or {}
    sampler = config_dict.get("sampler") or {}
    plan = config_dict.get("plan") or {}
    return (config_dict.get("seed"), experiment.get("rng_seed"),
            sampler.get("rng_seed"), plan.get("rng_seed"))


_ESTIMATES = ["ideal", "cpt", "unmitigated", "quepp", "quepp_std_error"]
_SWEEP_COLUMNS = ["theta", *_ESTIMATES]


def _summary(result: dict, ideal) -> dict:
    """The estimate cells (``_ESTIMATES``) of a sweep or report row, from
    a result's JSON and the ideal value."""
    return dict(zip(_ESTIMATES, (
        ideal, result["classical_part"], result["noisy_target"]["mean"],
        result["boosted"], result["boosted_std_error"])))


def _document_rows(doc: dict) -> tuple[bool, list[dict]]:
    """Whether a result document is a sweep, and its report rows."""
    if "sweep" in doc:
        return True, [{column: row[column] for column in _SWEEP_COLUMNS}
                      for row in doc["sweep"]]
    truncation = doc["config"].get("truncation") or {}
    ideal = doc.get("ideal")
    row = {"k_t": truncation.get("max_order"),
           **_summary(doc["result"], ideal)}
    if ideal is not None:
        row["cpt_bias"] = abs(row["cpt"] - ideal)
        row["quepp_bias"] = abs(row["quepp"] - ideal)
    return False, [row]


def _read_result(path: str) -> tuple[tuple, bool, list[dict]]:
    """Seed signature, sweep flag and report rows of one result file; a
    file of any other shape raises ConfigError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: not a quepp result file")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"{path}: schema_version {doc.get('schema_version')} does "
            f"not match this build ({SCHEMA_VERSION})")
    try:
        return (_seed_signature(doc["config"]), *_document_rows(doc))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ConfigError(f"{path}: not a quepp result file "
                          f"({type(exc).__name__}: {exc})") from exc


def _report_rows(loaded: list[tuple[tuple, bool, list[dict]]]
                 ) -> tuple[list[str], list[dict]]:
    sweeps = {is_sweep for _, is_sweep, _ in loaded}
    if len(sweeps) > 1:
        raise ConfigError("cannot merge sweep results with single runs")
    rows = [row for _, _, doc_rows in loaded for row in doc_rows]
    if True in sweeps:
        rows.sort(key=lambda row: row["theta"])
        return list(_SWEEP_COLUMNS), rows
    rows.sort(key=lambda row: (row["k_t"] is None, row["k_t"]))
    columns = ["k_t", *_ESTIMATES]
    if any("cpt_bias" in row for row in rows):
        columns += ["cpt_bias", "quepp_bias"]
    return columns, rows


_GNUPLOT_SWEEP = """set datafile separator ','
set key autotitle columnhead outside
set xlabel 'theta'
set ylabel 'expectation'
plot 'report.csv' using 1:2 with lines lw 2, \\
     '' using 1:3 with linespoints, \\
     '' using 1:4 with linespoints, \\
     '' using 1:5:6 with yerrorlines
"""

_GNUPLOT_ORDER = """set datafile separator ','
set key autotitle columnhead outside
set xlabel 'truncation order'
set ylabel 'absolute bias'
set logscale y
plot 'report.csv' using 1:7 with linespoints, \\
     '' using 1:8 with linespoints
"""

# without an ideal value there are no bias columns: plot the estimates
_GNUPLOT_ORDER_ESTIMATES = """set datafile separator ','
set key autotitle columnhead outside
set xlabel 'truncation order'
set ylabel 'expectation'
plot 'report.csv' using 1:3 with linespoints, \\
     '' using 1:4 with linespoints, \\
     '' using 1:5:6 with yerrorlines
"""


def cmd_report(args) -> int:
    loaded = [_read_result(path) for path in args.inputs]
    if len({signature for signature, _, _ in loaded}) > 1 and not args.force:
        raise ConfigError("inputs were produced with different seeds; "
                          "pass --force to merge them anyway")
    columns, rows = _report_rows(loaded)
    out = _prepare_out(args)
    report_path = os.path.join(out, "report.csv")
    _write_csv(report_path, columns, rows)
    widths = [max(len(col), 12) for col in columns]
    print("  ".join(col.rjust(w) for col, w in zip(columns, widths)))
    for row in rows:
        cells = []
        for col, w in zip(columns, widths):
            value = row.get(col)
            if isinstance(value, float):
                cells.append(f"{value:.6g}".rjust(w))
            else:
                cells.append(str("" if value is None else value).rjust(w))
        print("  ".join(cells))
    print(f"wrote {report_path}")
    if args.gnuplot:
        if columns[0] == "theta":
            script = _GNUPLOT_SWEEP
        elif "cpt_bias" in columns:
            script = _GNUPLOT_ORDER
        else:
            script = _GNUPLOT_ORDER_ESTIMATES
        script_path = os.path.join(out, "report.gp")
        with open(script_path, "w", encoding="utf-8") as handle:
            handle.write(script)
        print(f"wrote {script_path}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of every subcommand, built once per process."""
    parser = argparse.ArgumentParser(
        prog="quepp",
        description="Pauli-path simulation and noise-boosted estimation.",
        epilog="exit codes: 0 success, 2 config error, 3 capability error, "
               "exhausted path budget or degenerate rescaling factor, "
               "4 internal consistency failure")
    parser.add_argument("--version", action="version",
                        version=_version_string())
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("generate", "write a circuit file and manifest"),
                       ("cpt", "classical estimate series"),
                       ("quepp", "boosted estimate (single run or sweep)"),
                       ("sample", "Monte Carlo path ensemble")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True,
                       help="JSON run config (a result file with an embedded "
                            "config also works)")
        p.add_argument("--seed", type=int, default=None,
                       help="override every sub-seed from one master seed")
        p.add_argument("--workers", type=int, default=1,
                       help="accepted and ignored (must be >= 1); path "
                            "enumeration runs in one process")
        p.add_argument("--out", default=None,
                       help=f"output directory (default: config output_dir, "
                            f"then ${OUTPUT_DIR_ENV}, then .)")
        p.add_argument("--infinite-shots", action="store_true",
                       help="replace sampling with exact noisy expectations")
        if name in ("quepp", "sample"):
            p.add_argument("--allow-partial", action="store_true",
                           help="keep a saturated (partial) sampler ensemble")

    p = sub.add_parser("report", help="merge result files into one table")
    p.add_argument("inputs", nargs="+", help="result JSON files")
    p.add_argument("--force", action="store_true",
                   help="merge inputs even if their seeds differ")
    p.add_argument("--gnuplot", action="store_true",
                   help="also write a gnuplot script next to report.csv")
    p.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return {"generate": cmd_generate, "cpt": cmd_cpt, "quepp": cmd_quepp,
                "sample": cmd_sample, "report": cmd_report}[args.command](args)
    except (ConfigError, ParseError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CapabilityError, EnumerationLimitError,
            DegenerateEtaError) as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return 3
    except QueppError as exc:
        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
