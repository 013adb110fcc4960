"""Fast self-test of the benchmark harness on tiny configs.

    python3 perfbench/selftest.py

Runs every workload of ``run.py`` once without and once with tracing, on
tiny circuits that stand in for the real configs, and checks that:

- the result line has exactly the contract's keys, and its metric names and
  units are those of ``BENCHMARK.json``;
- every metric, end-to-end and per module, is printed by name with its unit;
- a deliberately failing output check raises ``failed_frac`` and clears
  ``correct``, and so does a counter that differs from its record;
- in a directory that holds only ``BENCHMARK.json`` and the benchmark, the
  harness exits nonzero without printing a result.

Exits 0 when every check holds.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import run

TINY = {
    "trotter-quepp": {
        "experiment": {"family": "trotter", "num_qubits": 4, "layers": 1,
                       "rotation_angle": 0.7},
        "truncation": {"mode": "order", "max_order": 2},
    },
    "mirror1d-sample": {
        "experiment": {"family": "mirror1d", "num_qubits": 5, "layers": 3,
                       "rotation_angle": 0.6, "rng_seed": 4, "p_cz": 1.0,
                       "p_rx": 0.6},
        "sampler": {"target_unique_paths": 200, "max_attempts": 200,
                    "rng_seed": 7},
    },
}
COMMON = {
    "noise": {"depolarizing": {"lambda2": 5e-3, "lambda1": 2e-4,
                               "readout": 1e-2}},
    "plan": {"num_twirls": 4, "shots_per_twirl": 50, "rng_seed": 5},
}
# every figure the harness prints, on top of the result line's metrics
PRINTED_ONLY = {
    0: ("failed_frac",),
    1: ("engine.enumerate_s", "engine.compile_s", "sampler.build_s",
        "sampler.unique", "backend.submit_s", "backend.target_s",
        "backend.references_s",
        "pipeline.estimate_s", "pipeline.series_s", "statevector.ideal_s"),
}


def invoke(workload, trace):
    """Run the harness in process; return (printed lines, result line,
    standard error)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run.main(["--workload", workload, "--seed", "1",
                         "--seconds", "0", "--trace", str(trace)])
    lines = out.getvalue().splitlines()
    expect(code == 0, f"{workload} trace {trace}: exit {code}\n"
                      f"{err.getvalue()}")
    return lines[:-1], json.loads(lines[-1]), err.getvalue()


def expect(condition, message):
    if not condition:
        raise AssertionError(message)


def check_metrics(benchmark, workload, trace):
    printed, result, errors = invoke(workload, trace)
    where = f"{workload} trace {trace}"
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{where}: result keys {sorted(result)}")
    expect(result["correct"] and result["failed"] == 0
           and result["attempted"] >= 2, f"{where}: {result}\n{errors}")
    declared = benchmark["per_layer" if trace else "end_to_end"]
    expect({m["name"]: m["unit"] for m in declared}
           == {name: m["unit"] for name, m in result["metrics"].items()},
           f"{where}: metrics differ from BENCHMARK.json")
    for name in [m["name"] for m in declared] + list(PRINTED_ONLY[trace]):
        fields = next((line.split() for line in printed
                       if line.split()[:1] == [name]), None)
        expect(fields is not None and fields[2] == run.unit(name),
               f"{where}: {name} is not printed with unit {run.unit(name)}")


def check_failures():
    real_check = run.check_outputs
    run.check_outputs = lambda command, out_dir: ["deliberate failure"]
    try:
        printed, result, _ = invoke("mirror1d-sample", 0)
    finally:
        run.check_outputs = real_check
    failed_frac = next(float(line.split()[1]) for line in printed
                       if line.split()[:1] == ["failed_frac"])
    expect(failed_frac == 1.0 and not result["correct"]
           and result["failed"] == result["attempted"],
           f"a failing output check gave failed_frac {failed_frac}, "
           f"{result}")

    real_counters = run.load_counters
    run.load_counters = lambda: {"trotter-quepp": {"*": {"engine.paths": -1}}}
    try:
        _, result, _ = invoke("trotter-quepp", 1)
    finally:
        run.load_counters = real_counters
    expect(not result["correct"] and result["failed"] == 1,
           f"a counter unlike its record gave {result}")


def check_bare_directory():
    bare = run._fresh_dir(os.path.join(run.OUT_ROOT, "selftest-bare"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py",
                           "--workload", "mirror1d-sample", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True,
                          timeout=170)
    shutil.rmtree(bare)
    expect(done.returncode != 0 and not done.stdout.strip(),
           f"without the program: exit {done.returncode}, "
           f"output {done.stdout!r}")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        benchmark = json.load(handle)
    tiny_dir = run._fresh_dir(os.path.join(run.OUT_ROOT, "selftest"))
    for name, config in TINY.items():
        with open(os.path.join(tiny_dir, name + ".json"), "w",
                  encoding="utf-8") as handle:
            json.dump({**config, **COMMON}, handle)
    run.WORKLOAD_DIR = tiny_dir
    run.SETUP_REPEATS = 1
    run.load_counters = lambda: {}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_metrics(benchmark, workload, trace)
    check_failures()
    check_bare_directory()
    print("perfbench self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
