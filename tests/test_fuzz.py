"""A seeded fuzz of the command boundary.

Each case mutates one of the four pinned ``test_same_bytes`` configs, or
one circuit file written by ``quepp generate``, in one place, and runs it
through a subcommand under a deadline.  ``cli.main`` must answer every
case with exit 0, 2 (config error) or 3 (capability error): no exception
escapes it, stderr holds no traceback, and a case that exits 0 wrote the
files its command names.  Seeds and case counts are fixed, so every run
makes the same cases.
"""

import copy
import json
import math
import random

import pytest

from quepp import cli

from helpers import deadline
from test_same_bytes import CONFIGS

# the files each command writes on exit 0
WRITES = {
    "generate": {"circuit.txt", "manifest.json"},
    "cpt": {"cpt_result.json", "cpt_order_series.csv",
            "cpt_budget_series.csv"},
    "quepp": {"quepp_result.json", "quepp_convergence.csv"},
    "sample": {"ensemble.jsonl", "sampling_report.json"},
}
# a wrong type, sign or size for any field
VALUES = (0, -1, math.nan, math.inf, 1e20, 10 ** 20, "", None, [])
TOKENS = ("0", "-1", "nan", "inf", "1e20", "100000000000000000000", "q",
          "h", "cx", "rx", "qubits", "0.5", "#")
# a case runs in well under a tenth of this
SECONDS = 5.0
# (seed, cases) of each fuzz
CONFIG_CASES = (1, 500)
CIRCUIT_CASES = (4, 200)


def _paths(doc, prefix=()):
    """Every key path of a nested config, sections included."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


def _mutated(config: dict, rng: random.Random) -> tuple[dict, str]:
    """``config`` with one field dropped, an unknown field added, or one
    field set to a value of ``VALUES``."""
    doc = copy.deepcopy(config)
    *parents, key = rng.choice(list(_paths(doc)))
    parent = doc
    for name in parents:
        parent = parent[name]
    kind = rng.randrange(3)
    if kind == 0:
        del parent[key]
        return doc, f"drop {'.'.join(parents + [key])}"
    value = rng.choice(VALUES)
    if kind == 1:
        parent["fuzz_field"] = value
        return doc, f"add {'.'.join(parents + ['fuzz_field'])} = {value!r}"
    parent[key] = value
    return doc, f"set {'.'.join(parents + [key])} = {value!r}"


def _run_case(tmp_path, capsys, index: int, command: str, doc: dict,
              what: str) -> int:
    """Run one case; returns its exit after checking it."""
    config = tmp_path / f"case{index}.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / f"case{index}"
    what = f"case {index} ({command}, {what})"
    argv = [command, "--config", str(config), "--out", str(out)]
    if command in ("quepp", "sample"):
        argv.append("--allow-partial")
    with deadline(SECONDS, what):
        try:
            code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - the fuzz's finding
            pytest.fail(f"{what}: {type(exc).__name__} escaped main: {exc}")
    stderr = capsys.readouterr().err
    assert code in (0, 2, 3), f"{what}: exit {code}\n{stderr}"
    assert "Traceback" not in stderr, f"{what}:\n{stderr}"
    if code == 0:
        written = {path.name for path in out.iterdir()}
        assert WRITES[command] <= written, f"{what}: wrote {written}"
    return code


def test_config_mutations_exit_cleanly(tmp_path, capsys):
    seed, cases = CONFIG_CASES
    rng = random.Random(seed)
    names, exits = sorted(CONFIGS), []
    for index in range(cases):
        doc, what = _mutated(CONFIGS[rng.choice(names)], rng)
        exits.append(_run_case(tmp_path, capsys, index,
                               rng.choice(sorted(WRITES)), doc, what))
    # the cases reach every outcome, not only the config checks
    assert set(exits) == {0, 2, 3}, exits


def test_circuit_file_mutations_exit_cleanly(tmp_path, capsys):
    source = tmp_path / "source.json"
    source.write_text(json.dumps(CONFIGS["mirror_order"]), encoding="utf-8")
    assert cli.main(["generate", "--config", str(source),
                     "--out", str(tmp_path / "source")]) == 0
    lines = (tmp_path / "source" / "circuit.txt").read_text(
        encoding="utf-8").splitlines()
    observable = json.loads((tmp_path / "source" / "manifest.json").read_text(
        encoding="utf-8"))["observable"]
    capsys.readouterr()
    seed, cases = CIRCUIT_CASES
    rng = random.Random(seed)
    names, exits = sorted(CONFIGS), []
    for index in range(cases):
        at, mutated = rng.randrange(len(lines)), list(lines)
        if rng.randrange(2):
            mutated.insert(at, lines[at])
            what = f"repeat line {at + 1}"
        else:
            tokens = mutated[at].split()
            spot = rng.randrange(len(tokens))
            tokens[spot] = rng.choice(TOKENS)
            mutated[at] = " ".join(tokens)
            what = f"line {at + 1} -> {mutated[at]!r}"
        circuit = tmp_path / f"circuit{index}.txt"
        circuit.write_text("\n".join(mutated) + "\n", encoding="utf-8")
        doc = {key: value for key, value in
               CONFIGS[rng.choice(names)].items() if key != "experiment"}
        doc.update(circuit_file=str(circuit), observable=observable)
        exits.append(_run_case(tmp_path, capsys, index,
                               rng.choice(("cpt", "quepp", "sample")), doc,
                               what))
    assert set(exits) == {0, 2, 3}, exits
