"""Set-up step of one workload: generate its circuit, write its run config.

The workload configs under ``workloads/`` use the CLI's own JSON format with
an ``experiment`` section.  Set-up runs ``quepp generate`` on it, which pins
the circuit to the experiment's own ``rng_seed``, and writes a run config
that names the generated ``circuit.txt`` instead.  A workload seed passed to
the measured commands as ``--seed`` then reseeds only the sampler and the
shot plan (``RunConfig.with_seed``), so the amount of work stays that of the
pinned circuit.

Run as a script, ``python3 perfbench/prepare.py <workload config> <out dir>``
does exactly the set-up and nothing else; ``run.py`` times it in a fresh
process for the ``setup_s`` metric.
"""

import contextlib
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_program():
    """Import ``quepp.cli`` from this checkout's ``src``, never elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "quepp", "cli.py")):
        raise RuntimeError(f"no quepp sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import quepp.cli
    if not os.path.abspath(quepp.cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported quepp from {quepp.cli.__file__}, "
                           f"not from {SRC}")
    return quepp.cli


def prepare(config_path: str, out_dir: str) -> str:
    """Generate the workload's circuit into ``out_dir``; return the path of
    the run config that the measured commands read."""
    cli = import_program()
    os.makedirs(out_dir, exist_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["generate", "--config", config_path, "--out", out_dir])
    if code != 0:
        raise RuntimeError(f"quepp generate exited with {code}")
    with open(config_path, "r", encoding="utf-8") as handle:
        config = json.load(handle)
    with open(os.path.join(out_dir, "manifest.json"), "r",
              encoding="utf-8") as handle:
        manifest = json.load(handle)
    del config["experiment"]
    config["circuit_file"] = os.path.abspath(os.path.join(out_dir,
                                                          "circuit.txt"))
    config["observable"] = manifest["observable"]
    run_config = os.path.join(out_dir, "run.json")
    with open(run_config, "w", encoding="utf-8") as handle:
        json.dump(config, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return run_config


if __name__ == "__main__":
    prepare(sys.argv[1], sys.argv[2])
