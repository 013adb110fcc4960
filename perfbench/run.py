"""End-to-end and per-module benchmark of the ``quepp quepp`` and
``quepp sample`` commands.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1]

Each run sets one workload up, then drives ``quepp.cli.main`` in process as
one closed-loop client: one command at a time, ``--workers 1``, all at the
run's seed.  Two warm-up commands come first; then commands are timed for
about ``--seconds``.  Every command's output files are checked, and every
command must write the same bytes as the first.
With ``--trace 1`` the run instead makes one untraced and one traced command
and reports the per-module figures of the traced one (see ``tracing.py``).

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Outputs go to ``.perfbench_out/`` at the checkout root.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# one client on a small shared machine: keep numerical libraries to one
# thread each, unless the caller says otherwise
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy

from prepare import ROOT, import_program, prepare
from tracing import Tracer, installed, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_DIR = os.path.join(HERE, "workloads")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

# workload name -> quepp subcommand and its extra arguments; the config is
# workloads/<name>.json.  The sampler workload spends a fixed attempt budget
# (its target equals the budget), so its work does not depend on the seed.
WORKLOADS = {
    "trotter-quepp": ("quepp", ()),
    "mirror1d-sample": ("sample", ("--allow-partial",)),
}

END_TO_END = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")
# per-module figures carried in the result line; every workload reports
# each of them, so module times appear as rates there (a module a workload
# never calls reads 0)
PER_LAYER = (
    "experiments.generate_s", "circuits.parse_s", "circuits.normalize_s",
    "engine.paths", "engine.paths_per_s", "engine.executed",
    "engine.useful_ratio", "engine.compile_per_s",
    "sampler.attempts", "sampler.walks_per_s", "sampler.zero_expectation",
    "sampler.useful_ratio",
    "backend.items", "backend.clifford_items", "backend.dense_items",
    "backend.shots", "backend.items_per_s", "backend.shots_per_s",
    "backend.target_shots_per_s", "backend.clifford_items_per_s",
    "pipeline.records", "pipeline.records_per_s",
    "pipeline.series_rows_per_s",
    "cli.self_s", "trace.overhead_s",
)
UNITS = {"peak_rss_mb": "MB", "failed_frac": "ratio"}

# commands of a run take turns over this many seeds drawn from the run's seed
SUBSEEDS = 8
# Wall time of one calibration unit (``calibrate``) on the reference machine
# when it is not slowed down: the scale of the reported command times.
CALIBRATION_S = 0.0225
_CALIBRATION_MATRIX = numpy.random.default_rng(0).random((64, 64)) + 0j
# timed commands per seed, at the least
MIN_COMMANDS = 2
SETUP_REPEATS = 5
# sections of the result files that the traced command must reproduce
SECTIONS = {"quepp": ("quepp_result.json", ("result", "series")),
            "sample": ("sampling_report.json", ("report",))}


def unit(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _git_rev():
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"),
                  encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp():
    import numpy
    import scipy
    return {"git_rev": _git_rev(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "cpu_model": _cpu_model()}


def command_argv(workload, run_config, seed, out_dir):
    command, extra = WORKLOADS[workload]
    argv = [command, "--config", run_config, "--workers", "1",
            "--out", out_dir, *extra]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return argv


def run_command(cli, argv):
    """Run one CLI command in this process: (wall s, cpu s, problems)."""
    gc.collect()
    captured = io.StringIO()
    wall = time.perf_counter()
    cpu = time.process_time()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(captured):
            code = cli.main(argv)
    except Exception:
        code = None
        captured.write(traceback.format_exc())
    wall = time.perf_counter() - wall
    cpu = time.process_time() - cpu
    if code == 0:
        return wall, cpu, []
    return wall, cpu, [f"exit code {code}: {captured.getvalue()[-2000:]}"]


def _load(out_dir, name):
    with open(os.path.join(out_dir, name), encoding="utf-8") as handle:
        return json.load(handle)


def check_outputs(command, out_dir):
    """Problems found in one command's output files (empty when correct)."""
    problems = []
    try:
        if command == "quepp":
            doc = _load(out_dir, "quepp_result.json")
            result, ideal = doc["result"], doc["ideal"]
            if ideal is None:
                problems.append("the result has no statevector ideal")
            elif abs(result["boosted"] - ideal) \
                    > 4 * result["boosted_std_error"]:
                problems.append(
                    f"boosted {result['boosted']} is more than 4 std errors "
                    f"({result['boosted_std_error']}) from ideal {ideal}")
            if result["p_kt"] > 1:
                problems.append(f"p_kt {result['p_kt']} exceeds 1")
        else:
            doc = _load(out_dir, "sampling_report.json")
            report = doc["report"]
            sampler = doc["config"]["sampler"]
            if report["attempts"] != sampler["max_attempts"]:
                problems.append(f"{report['attempts']} attempts, budget "
                                f"{sampler['max_attempts']}")
            if not 1 <= report["unique"] <= sampler["target_unique_paths"]:
                problems.append(f"{report['unique']} unique paths, target "
                                f"{sampler['target_unique_paths']}")
            if report["saturated"] != (
                    report["unique"] < sampler["target_unique_paths"]):
                problems.append(f"saturated is {report['saturated']} with "
                                f"{report['unique']} unique paths")
            if report["accepted"] + report["zero_expectation"] \
                    + report["aborted"] != report["attempts"] \
                    or report["unique"] > report["accepted"]:
                problems.append(f"the report does not add up: {report}")
            with open(os.path.join(out_dir, "ensemble.jsonl"),
                      encoding="utf-8") as handle:
                kept = [json.loads(line) for line in handle]
            if len(kept) != report["unique"]:
                problems.append(f"ensemble holds {len(kept)} paths, report "
                                f"says {report['unique']}")
            if any(path["ideal_expectation"] == 0 for path in kept):
                problems.append("a kept path has zero ideal expectation")
    except (OSError, KeyError, TypeError, ValueError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


def _file_bytes(out_dir):
    result = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as handle:
            result[name] = handle.read()
    return result


def _fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def calibrate():
    """A fixed unit of interpreter and numpy work: (wall s, cpu s).

    Other tenants of a shared machine slow its processors down by up to
    half, for seconds to minutes at a time.  Each command's time is divided
    by that of a calibration unit run right after it, and scaled by
    ``CALIBRATION_S``, so that it reads in seconds of the reference machine
    at full speed."""
    wall, cpu = time.perf_counter(), time.process_time()
    total, table = 0, {}
    for i in range(150_000):
        total += i * i
        table[i & 255] = total
    for _ in range(300):
        _CALIBRATION_MATRIX @ _CALIBRATION_MATRIX
    return time.perf_counter() - wall, time.process_time() - cpu


def time_setup(config_path, out_dir, repeats):
    """Wall time of ``repeats`` fresh set-up processes, each from process
    start to exit.  These are not calibrated: set-up is mostly starting
    the interpreter and importing, which a calibration unit of the parent
    process did not track."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run([sys.executable, os.path.join(HERE, "prepare.py"),
                        config_path, out_dir],
                       cwd=ROOT, check=True, capture_output=True, timeout=170)
        times.append(time.perf_counter() - started)
    return times


def run_checked(cli, workload, run_config, seed, cmd_dir, reference):
    """One command and its checks: (wall s, cpu s, problems, files)."""
    command = WORKLOADS[workload][0]
    wall, cpu, found = run_command(
        cli, command_argv(workload, run_config, seed, cmd_dir))
    files = None
    if not found:
        found = check_outputs(command, cmd_dir)
    if not found:
        files = _file_bytes(cmd_dir)
        if reference is not None and files != reference:
            found = ["a rerun at the same seed wrote different bytes: "
                     + ", ".join(sorted(
                         name for name in set(files) | set(reference)
                         if files.get(name) != reference.get(name)))]
    shutil.rmtree(cmd_dir, ignore_errors=True)
    return wall, cpu, found, files


def command_seeds(seed):
    """The seeds a run's commands take in turn: ``SUBSEEDS`` of them drawn
    from the run's seed, or the configs' own seeds when none is given."""
    if seed is None:
        return [None]
    return [seed * SUBSEEDS + k for k in range(SUBSEEDS)]


def measure(workload, seed, seconds, out_dir):
    """Closed-loop run with tracing off: the end-to-end metrics."""
    config = os.path.join(WORKLOAD_DIR, workload + ".json")
    setup_dir = _fresh_dir(os.path.join(out_dir, "setup"))
    setup = time_setup(config, setup_dir, SETUP_REPEATS)
    cli = import_program()
    run_config = os.path.join(setup_dir, "run.json")
    cmd_dir = os.path.join(out_dir, "cmd")
    seeds = command_seeds(seed)

    # one warm-up command per seed, whose files every later command at that
    # seed must repeat byte for byte
    problems, references, failed = [], {}, 0
    for sub in seeds:
        _, _, found, references[sub] = run_checked(
            cli, workload, run_config, sub, _fresh_dir(cmd_dir), None)
        calibrate()
        if found:
            failed += 1
            problems += [f"warm-up at seed {sub}: {p}" for p in found]

    # per seed, one (wall, cpu, calibration wall, calibration cpu) per
    # passing command
    samples = {sub: [] for sub in seeds}
    durations = []
    started = time.perf_counter()
    while len(durations) < MIN_COMMANDS * len(seeds) or (
            time.perf_counter() - started + statistics.fmean(durations)
            <= seconds):
        sub = seeds[len(durations) % len(seeds)]
        wall, cpu, found, files = run_checked(
            cli, workload, run_config, sub, _fresh_dir(cmd_dir),
            references[sub])
        cal_wall, cal_cpu = calibrate()
        references[sub] = references[sub] or files
        durations.append(wall + cal_wall)
        if found:
            failed += 1
            problems += [f"command {len(durations) - 1} at seed {sub}: {p}"
                         for p in found]
        else:
            samples[sub].append((wall, cpu, cal_wall, cal_cpu))
    attempted = len(seeds) + len(durations)
    # A command's time over the calibration unit's next to it is steady
    # while the machine slows down and speeds up; its median over a seed's
    # commands is that seed's figure.  Work depends on the seed (the noise
    # draws), so the metric is the mean over the run's seeds.
    kept = [rows for rows in samples.values() if rows] \
        or [[(d, d, CALIBRATION_S, CALIBRATION_S) for d in durations]]
    scaled_walls = [CALIBRATION_S * statistics.median(
        wall / cal_wall for wall, _, cal_wall, _ in rows) for rows in kept]
    scaled_cpus = [CALIBRATION_S * statistics.median(
        cpu / cal_cpu for _, cpu, _, cal_cpu in rows) for rows in kept]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(os.path.join(out_dir, "samples.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"stamp": stamp(), "workload": workload, "seed": seed,
                   "calibration_s": CALIBRATION_S, "setup_s": setup,
                   "commands": {str(k): v for k, v in samples.items()}},
                  handle)
    walls = [row[0] for rows in kept for row in rows]
    metrics = {
        "setup_s": (statistics.median(setup), setup),
        "wall_s": (statistics.fmean(scaled_walls), walls),
        "cpu_s": (statistics.fmean(scaled_cpus),
                  [row[1] for rows in kept for row in rows]),
        "peak_rss_mb": (rss_mb, [rss_mb]),
        "failed_frac": (failed / attempted, [1] * failed
                        + [0] * (attempted - failed)),
    }
    return attempted, failed, problems, metrics


def _sections(command, out_dir):
    name, keys = SECTIONS[command]
    doc = _load(out_dir, name)
    return {key: doc[key] for key in keys}


def load_counters():
    with open(os.path.join(HERE, "counters.json"), encoding="utf-8") as f:
        return json.load(f)


def check_counters(workload, seed, figures):
    """Compare the traced counters with those recorded for this workload:
    ``*`` entries hold at every seed, ``default`` ones when no seed is
    given, numbered ones at that seed."""
    recorded = load_counters().get(workload, {})
    expected = dict(recorded.get("*", {}))
    expected.update(recorded.get("default" if seed is None else str(seed),
                                 {}))
    return [f"{name} = {figures[name]}, recorded {value}"
            for name, value in sorted(expected.items())
            if figures[name] != value]


def trace(workload, seed, out_dir):
    """One untraced and one traced command: the per-module metrics."""
    command = WORKLOADS[workload][0]
    config = os.path.join(WORKLOAD_DIR, workload + ".json")
    cli = import_program()
    tracer = Tracer()
    with installed(tracer), tracer.command("setup"):
        run_config = prepare(config, _fresh_dir(os.path.join(out_dir,
                                                              "setup")))

    # warm-up, so that neither timed command pays for first-call costs
    run_command(cli, command_argv(workload, run_config, seed,
                                  _fresh_dir(os.path.join(out_dir, "warm"))))
    untraced_dir = _fresh_dir(os.path.join(out_dir, "untraced"))
    wall_u, _, problems_u = run_command(
        cli, command_argv(workload, run_config, seed, untraced_dir))
    problems_u = problems_u or check_outputs(command, untraced_dir)

    traced_dir = _fresh_dir(os.path.join(out_dir, "traced"))
    with installed(tracer), tracer.command("traced"):
        wall_t, _, problems_t = run_command(
            cli, command_argv(workload, run_config, seed, traced_dir))
    problems_t = problems_t or check_outputs(command, traced_dir)
    problems_t += tracer.problems

    figures = layer_metrics(tracer.spans, "traced", "setup")
    figures["trace.overhead_s"] = (wall_t - figures["backend.target_s"]
                                   - figures["backend.references_s"] - wall_u)
    if not problems_u and not problems_t:
        if _sections(command, traced_dir) != _sections(command, untraced_dir):
            problems_t.append("the traced command's result sections differ "
                              "from the untraced command's")
        problems_t += check_counters(workload, seed, figures)

    with open(os.path.join(out_dir, "trace.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"stamp": stamp(), "workload": workload, "seed": seed,
                   "untraced_wall_s": wall_u, "traced_wall_s": wall_t,
                   "metrics": figures, "spans": tracer.spans},
                  handle, indent=1)
    problems = [f"untraced: {p}" for p in problems_u] \
        + [f"traced: {p}" for p in problems_t]
    failed = int(bool(problems_u)) + int(bool(problems_t))
    return 2, failed, problems, {name: (value, [value])
                                 for name, value in figures.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed passed to the commands as --seed "
                             "(default: the workload config's own seeds)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measuring time of a run without tracing")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
    except (RuntimeError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    out_dir = _fresh_dir(os.path.join(OUT_ROOT, args.workload))
    if args.trace:
        attempted, failed, problems, metrics = trace(args.workload, args.seed,
                                                     out_dir)
        reported = PER_LAYER
    else:
        attempted, failed, problems, metrics = measure(
            args.workload, args.seed, args.seconds, out_dir)
        reported = END_TO_END

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  stamp {json.dumps(stamp(), sort_keys=True)}")
    for name, (value, samples) in metrics.items():
        spread = ""
        if len(samples) > 1 and unit(name) == "s":
            spread = (f"  measured min {min(samples):.6g}  "
                      f"median {statistics.median(samples):.6g}  "
                      f"max {max(samples):.6g}")
        print(f"  {name:<30} {value:>16.6g} {unit(name):<6} "
              f"n={len(samples)}{spread}")
    for problem in problems:
        print(f"  FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit(name)}
                    for name in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
