"""Checks on the package source itself."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import pathlib
import re
import subprocess
import sys

import quepp

PACKAGE = pathlib.Path(quepp.__file__).parent


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_in_the_package():
    # python -O strips assert, and a bare AssertionError escapes the typed
    # error hierarchy; invariants must raise a QueppError instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Assert)
                     or _raises_assertion_error(node))
    assert not found, f"assert statements in {found}"


def _last_line_of_python(code: str) -> str:
    """The last line a fresh interpreter running ``code`` prints."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60,
                            check=True)
    return result.stdout.strip().splitlines()[-1]


def test_package_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: with it blocked, the package imports
    # and the commands that compute run
    experiment = {"family": "mirror1d", "num_qubits": 3, "layers": 2,
                  "rotation_angle": 0.5, "rng_seed": 3, "p_rx": 0.6}
    plan = {"num_twirls": 1, "shots_per_twirl": 10}
    configs = {
        "order": {"experiment": experiment, "plan": plan,
                  "truncation": {"mode": "order", "max_order": 1}},
        "sampler": {"experiment": experiment, "plan": plan,
                    "sampler": {"target_unique_paths": 2,
                                "max_attempts": 200, "rng_seed": 1}},
    }
    for name, config in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(config),
                                               encoding="utf-8")
    runs = [[command, "--config", str(tmp_path / f"{name}.json"),
             "--out", str(tmp_path / command)]
            for command, name in (("quepp", "order"), ("cpt", "order"),
                                  ("sample", "sampler"))]
    code = ("import sys; sys.modules['scipy'] = None; "
            "import quepp, quepp.cli; "
            f"print([quepp.cli.main(argv) for argv in {runs!r}])")
    assert _last_line_of_python(code) == "[0, 0, 0]"


def test_third_party_imports_are_the_declared_dependencies():
    # every third-party module the package imports, at module level or
    # inside a function, is a runtime dependency, and every runtime
    # dependency is imported
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    third_party = {name for name in found
                   if name not in sys.stdlib_module_names and name != "quepp"}
    pyproject = pathlib.Path(__file__).resolve().parent.parent \
        / "pyproject.toml"
    # [project].dependencies, read without tomllib, which Python 3.10 lacks
    block = re.search(r"^dependencies = \[(.*?)\]",
                      pyproject.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL).group(1)
    declared = set(re.findall(r'"([A-Za-z0-9_.-]+)', block))
    assert third_party == declared


def test_quepp_command_leaves_numpy_ma_out(tmp_path):
    # the first np.median in a process imports numpy.ma, which costs more
    # than a small command's own work; the bootstrap series sorts instead
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "experiment": {"family": "mirror1d", "num_qubits": 3, "layers": 2,
                       "rotation_angle": 0.5, "rng_seed": 3, "p_rx": 0.6},
        "truncation": {"mode": "order", "max_order": 1},
        "plan": {"num_twirls": 1, "shots_per_twirl": 10}}), encoding="utf-8")
    argv = ["quepp", "--config", str(config), "--out", str(tmp_path / "out")]
    code = ("import sys, quepp.cli; "
            f"code = quepp.cli.main({argv!r}); "
            "print(code, 'numpy.ma' in sys.modules)")
    assert _last_line_of_python(code) == "0 False"


def test_importing_the_cli_leaves_numpy_random_out():
    # cpt, report and a trotter generate draw no random number, so they
    # need not pay numpy.random's import; annotations must not load it
    code = ("import sys, quepp.cli; "
            "print('numpy.random' in sys.modules)")
    assert _last_line_of_python(code) == "False"


def test_every_exported_name_resolves():
    # a trimmed function must leave no stale name in any __all__
    missing = [f"quepp.{name}" for name in quepp.__all__
               if not hasattr(quepp, name)]
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"quepp.{path.stem}")
        missing.extend(f"{module.__name__}.{name}"
                       for name in getattr(module, "__all__", ())
                       if not hasattr(module, name))
    assert not missing, f"unresolved exports {missing}"


BENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _tracing():
    """The benchmark's tracer module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_tracer_hooks_resolve():
    # the benchmark's tracer wraps these names where they are looked up and
    # skips a missing one, whose counter then reads 0; a rename or a move
    # must take the tracer along
    tracing = _tracing()
    missing = [f"{module}.{attribute}"
               for module, attribute, _ in tracing.WRAPPED
               if not hasattr(importlib.import_module(module), attribute)]
    assert not missing, f"unresolved tracer hooks {missing}"
    # no module of the package calls it; the tracer does
    from quepp.circuits import is_clifford_equivalent
    assert callable(is_clifford_equivalent)
    from quepp.backend import TrajectorySimulator
    assert callable(TrajectorySimulator.__dict__["submit_batch"])


def test_traced_trotter_command_meets_the_benchmark_anchors(tmp_path):
    # one traced trotter-quepp command counts the paths, backend items and
    # shots that the benchmark's counters pin for every seed; work moved off
    # the traced names (TrajectorySimulator.submit_batch first) reads 0
    from quepp import cli
    tracing = _tracing()
    with open(BENCH / "counters.json", "r", encoding="utf-8") as handle:
        anchors = json.load(handle)["trotter-quepp"]["*"]
    assert (anchors["engine.paths"], anchors["backend.items"],
            anchors["backend.shots"]) == (907, 79, 15800)
    tracer = tracing.Tracer()
    with tracing.installed(tracer), tracer.command(0):
        assert cli.main(["quepp", "--config",
                         str(BENCH / "workloads" / "trotter-quepp.json"),
                         "--seed", "1", "--out", str(tmp_path)]) == 0
    metrics = tracing.layer_metrics(tracer.spans, 0, None)
    assert {name: metrics[name] for name in anchors} == anchors
    assert tracer.problems == []


def test_benchmark_walks_do_pinned_work(tmp_path, monkeypatch):
    # the trotter-quepp group walk steps 14 rotations and peaks at 222 rows,
    # one per (item, frame), each carrying its noisy and noiseless values;
    # the cpt command's one-value walks step 28 rotations and peak at 323
    # rows; a circuit's noise images are built on its first noisy walk and
    # kept, and the sampler and the noiseless walk build none
    from quepp import _walk, backend, cli, engine
    stepped, built, ruled = [], [], []
    rotate, noise_images = _walk._rotate, _walk._noise_images

    def rotate_spy(*args):
        rows = rotate(*args)
        stepped.append(len(rows[0]))
        return rows

    def images_spy(*args):
        built.append(args[0])
        return noise_images(*args)

    def walk_spy(circuits, observables, rule, *noise):
        def rule_spy(item, *rows):
            # no row belongs to an item past the group's
            ruled.append(bool((item < len(observables)).all()))
            return rule(item, *rows)
        return _walk.walk_rows(circuits, observables, rule_spy, *noise)

    monkeypatch.setattr(_walk, "_rotate", rotate_spy)
    monkeypatch.setattr(_walk, "_noise_images", images_spy)
    for module in (backend, engine):
        monkeypatch.setattr(module, "walk_rows", walk_spy)
    _walk.compile_circuit.cache_clear()
    workloads = BENCH / "workloads"
    for command, workload, *flags in (
            ("sample", "mirror1d-sample", "--allow-partial"),
            ("cpt", "trotter-quepp")):
        stepped.clear()
        assert cli.main([command, "--config", str(workloads / workload)
                         + ".json", *flags, "--out",
                         str(tmp_path / command)]) == 0
    assert built == []
    assert (len(stepped), max(stepped)) == (28, 323)
    for seed in ("1", "2"):
        stepped.clear()
        assert cli.main(["quepp", "--config",
                         str(workloads / "trotter-quepp.json"), "--seed",
                         seed, "--out", str(tmp_path / seed)]) == 0
        assert (len(stepped), max(stepped)) == (14, 222)
    assert len(built) == 1
    assert ruled and all(ruled)


def _statevector_imports(tree) -> list:
    """Line numbers of imports of a module named ``statevector``, in any
    form."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [f"{node.module}.{alias.name}"
                                           for alias in node.names]
        else:
            continue
        if any("statevector" in name.split(".") for name in names):
            found.append(node.lineno)
    return found


def test_only_the_tests_and_demos_import_the_statevector():
    # the commands take their ideal from the Pauli-sum walk; the dense
    # statevector is a reference for the tests and demos, not a second
    # simulator of the package
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "statevector.py"
             for line in _statevector_imports(
                 ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, f"statevector imported in {found}"
    # the guard sees the forms such an import takes
    for code in ("from . import statevector as sv",
                 "from .statevector import expectation",
                 "from . import pauli, statevector",
                 "import quepp.statevector",
                 "from quepp import statevector",
                 "from quepp.statevector import run_statevector"):
        assert _statevector_imports(ast.parse(code)) == [1], code
    assert not _statevector_imports(ast.parse("from . import pauli"))


def _reversed_ops_loops(tree) -> list:
    """Line numbers of loops and comprehensions whose iterable contains
    ``reversed(<something>.ops)``."""
    found = []
    for node in ast.walk(tree):
        iterables = ([node.iter] if isinstance(node, (ast.For, ast.AsyncFor))
                     else [g.iter for g in node.generators]
                     if isinstance(node, (ast.ListComp, ast.SetComp,
                                          ast.DictComp, ast.GeneratorExp))
                     else [])
        for iterable in iterables:
            found.extend(
                call.lineno for call in ast.walk(iterable)
                if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id == "reversed"
                and any(isinstance(arg, ast.Attribute) and arg.attr == "ops"
                        for arg in call.args))
    return found


def test_one_walk_core_steps_the_rotations():
    # every walk steps compiled rotations (``_walk``); a second core that
    # walks the ops one at a time, or the per-gate tables it would read,
    # must not come back unnoticed.  ``inverse_circuit`` reverses the ops to
    # build a circuit, not to walk one.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        exempt = [node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "inverse_circuit"]
        found.extend(f"{path.name}:{line}"
                     for line in _reversed_ops_loops(tree)
                     if not any(f.lineno <= line <= f.end_lineno
                                for f in exempt))
    assert not found, f"loops over reversed ops in {found}"
    import quepp.pauli
    assert not hasattr(quepp.pauli, "_TABLES")
    # the guard sees the loop the test oracles keep
    oracles = pathlib.Path(__file__).resolve().parent / "oracles.py"
    assert _reversed_ops_loops(ast.parse(oracles.read_text(encoding="utf-8")))


def _bit_generator_state_writes(tree) -> list:
    """Line numbers of assignments to ``<something>.bit_generator.state``."""
    found = []
    for node in ast.walk(tree):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target]
                   if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                   else [])
        found.extend(
            node.lineno for target in targets
            for attribute in ast.walk(target)
            if isinstance(attribute, ast.Attribute)
            and attribute.attr == "state"
            and isinstance(attribute.value, ast.Attribute)
            and attribute.value.attr == "bit_generator")
    return found


def test_no_bit_generator_state_is_written():
    # every stream is seeded through numpy's SeedSequence; a hand-set
    # bit-generator state would be a second seeding path to keep equal
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{line}"
                     for line in _bit_generator_state_writes(tree))
    assert not found, f"bit_generator.state written in {found}"
    # the guard sees the forms such a write takes
    for code in ("rng.bit_generator.state = fresh",
                 "a = rng.bit_generator.state = fresh",
                 "gen.rng.bit_generator.state: dict = stream"):
        assert _bit_generator_state_writes(ast.parse(code)) == [1], code


_POOL = re.compile(r"\b(concurrent|multiprocessing|ProcessPoolExecutor)\b")


def test_no_process_pool_in_the_package():
    # path enumeration runs in process: a pool measured slower on every tree
    # tried, so one comes back only with numbers that justify it
    found = [f"{path.name}:{line}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, text in enumerate(
                 path.read_text(encoding="utf-8").splitlines(), 1)
             if _POOL.search(text)]
    assert not found, f"process pool code in {found}"
    # the guard sees the forms a pool import takes
    for code in ("import concurrent.futures",
                 "from concurrent import futures",
                 "import multiprocessing as mp",
                 "from somewhere import ProcessPoolExecutor"):
        assert _POOL.search(code), code


def _sign_calls(tree, replay=None) -> list:
    """Line numbers of ``sin_branch_bits`` calls outside the top-level
    function named ``replay``."""
    exempt = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == replay]
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and "sin_branch_bits" in (getattr(node.func, "id", None),
                                      getattr(node.func, "attr", None))
            and not any(f.lineno <= node.lineno <= f.end_lineno
                        for f in exempt)]


def test_branching_walks_stay_sign_free():
    # the enumerator and the sampler carry unsigned frame bits; a sine
    # branch's sign is rebuilt only by ``_walk.path_of``, for kept paths
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        replay = "path_of" if path.name == "_walk.py" else None
        found.extend(f"{path.name}:{line}"
                     for line in _sign_calls(tree, replay))
    assert not found, f"sin_branch_bits called outside path_of in {found}"
    # the guard sees the replay's call and the forms a call takes
    walk = ast.parse((PACKAGE / "_walk.py").read_text(encoding="utf-8"))
    assert _sign_calls(walk)
    for code in ("x, z, s = sin_branch_bits(gx, gz, x, z, s)",
                 "stack.append((*_walk.sin_branch_bits(gx, gz, x, z, s),))",
                 "def path_of():\n    sin_branch_bits(gx, gz, x, z, s)"):
        assert _sign_calls(ast.parse(code)), code


def _caches(tree) -> list:
    """Line numbers of ``lru_cache`` uses, and of ``functools.cache``
    decorators, in any form."""
    found = [node.lineno for node in ast.walk(tree)
             if "lru_cache" in (getattr(node, "id", None),
                                getattr(node, "attr", None))]
    return found + [decorator.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef)
                    for decorator in node.decorator_list
                    if "cache" in (getattr(decorator, "id", None),
                                   getattr(decorator, "attr", None))]


def _decorated(tree, name: str) -> list:
    """Decorator line numbers of the top-level function ``name``."""
    return [decorator.lineno for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == name
            for decorator in node.decorator_list]


def test_the_walk_layer_compiles_in_one_cache():
    # ``compile_circuit`` holds every compiled fact of a circuit; a second
    # cache in any module would key a part of it, or of a noise model,
    # apart.  ``build_parser`` takes no argument, so its cache keys nothing
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    found = {name: _caches(tree) for name, tree in trees.items()
             if _caches(tree)}
    assert found == {
        "_walk.py": _decorated(trees["_walk.py"], "compile_circuit"),
        "cli.py": _decorated(trees["cli.py"], "build_parser")}, found
    build_parser = importlib.import_module("quepp.cli").build_parser
    assert not inspect.signature(build_parser.__wrapped__).parameters
    # the guard sees the forms such a cache takes
    for code in ("@functools.lru_cache(maxsize=8)\ndef f(): pass",
                 "@lru_cache\ndef f(): pass",
                 "@functools.cache\ndef f(): pass",
                 "masks = functools.lru_cache(None)(g)"):
        assert _caches(ast.parse(code)) == [1], code
    assert not _caches(ast.parse("f = functools.cache(g)"))


_NOISE_FIELDS = ("single_qubit_rates", "two_qubit_rates", "readout_flip")


def _noise_reads(tree) -> list:
    """Line numbers of attribute loads of a ``NoiseModel`` field outside the
    methods of ``NoiseModel``."""
    inside = {node.lineno for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and cls.name == "NoiseModel"
              for node in ast.walk(cls) if hasattr(node, "lineno")}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr in _NOISE_FIELDS and node.lineno not in inside]


def test_only_the_walk_reads_the_noise_model():
    # ``_walk.walk_rows`` takes the NoiseModel and derives every damping
    # factor and readout factor from its fields itself, so no caller can
    # damp or read out the same walk apart
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "_walk.py"
             for line in _noise_reads(
                 ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, f"noise model read outside _walk in {found}"
    walk = ast.parse((PACKAGE / "_walk.py").read_text(encoding="utf-8"))
    assert set(_NOISE_FIELDS) <= {node.attr for node in ast.walk(walk)
                                  if isinstance(node, ast.Attribute)}
    # the guard sees the forms such a read takes, and lets the model's own
    # methods, a keyword and a store pass
    for code in ("flip = 1.0 - 2.0 * noise.readout_flip",
                 "for label, p in self.noise.two_qubit_rates: pass",
                 "rates = model.single_qubit_rates",
                 "class Other:\n    def f(self): return self.readout_flip"):
        assert _noise_reads(ast.parse(code)), code
    for code in ("class NoiseModel:\n"
                 "    def f(self): return self.two_qubit_rates",
                 "model = NoiseModel(readout_flip=0.1)",
                 "noise.readout_flip = 0.1"):
        assert not _noise_reads(ast.parse(code)), code


def _public_methods(cls) -> list:
    """The methods, classmethods and properties of class node ``cls`` whose
    names do not start with an underscore."""
    return [node for node in cls.body if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")]


def _used_names(tree) -> set:
    """Names that ``tree`` loads, as a name or an attribute, or imports,
    outside the top-level definition, or the public method, of the same
    name."""
    spans = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            spans.setdefault(node.name, []).append(
                (node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            for method in _public_methods(node):
                spans.setdefault(method.name, []).append(
                    (method.lineno, method.end_lineno))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if not any(first <= node.lineno <= last
                   for first, last in spans.get(name, ())):
            used.add(name)
    return used


def _test_only_exports(modules, others) -> list:
    """The ``__all__`` names of ``modules`` (module name -> tree), and the
    public methods of the classes among them, that no code in ``modules``
    or ``others`` (trees) uses; the ``__all__`` lists are strings, so they
    do not count."""
    used = set().union(*map(_used_names, [*modules.values(), *others]))
    found = []
    for name, tree in modules.items():
        exports = [export for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(getattr(target, "id", None) == "__all__"
                           for target in node.targets)
                   for export in ast.literal_eval(node.value)]
        found.extend(f"{name}.{export}" for export in exports
                     if export not in used)
        found.extend(f"{name}.{node.name}.{method.name}"
                     for node in tree.body
                     if isinstance(node, ast.ClassDef)
                     and node.name in exports
                     for method in _public_methods(node)
                     if method.name not in used)
    return found


def test_every_export_has_a_caller_outside_the_tests():
    # a public name that only the tests call is a second API to keep; its
    # test moves to a helper in tests/ instead.  ``quepp/__init__.py``
    # re-exports every name, so it does not count as a use.
    root = pathlib.Path(__file__).resolve().parent.parent
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE.glob("*.py"))
               if path.stem != "__init__"}
    others = [ast.parse(path.read_text(encoding="utf-8"))
              for folder in ("demos", "perfbench")
              for path in sorted((root / folder).glob("*.py"))]
    assert others
    found = _test_only_exports(modules, others)
    assert not found, f"exports no command, demo or benchmark uses: {found}"
    # the guard flags a planted name, and a planted method of an exported
    # class, that only its own definition uses
    planted = ast.parse(
        "__all__ = ['used', 'planted', 'LIMIT', 'Box']\n"
        "LIMIT = 3\n"
        "def used():\n    return LIMIT\n"
        "def planted(n):\n    return planted(n - 1) if n else used()\n"
        "class Box:\n"
        "    def size(self):\n        return LIMIT\n"
        "    @property\n"
        "    def kept(self):\n        return self.size()\n"
        "    @classmethod\n"
        "    def make(cls):\n        return cls.make()\n"
        "    def _private(self):\n        pass\n")
    caller = ast.parse("from mod import used, Box\nused()\nBox().kept\n")
    assert _test_only_exports({"mod": planted}, [caller]) \
        == ["mod.planted", "mod.Box.make"]


def _named(node, word: str) -> bool:
    """True for a name, attribute or call of one whose name holds
    ``word``."""
    if isinstance(node, ast.Call):
        node = node.func
    return word in (getattr(node, "id", None) or getattr(node, "attr", None)
                    or "")


def _walk_input_picks(tree) -> list:
    """Line numbers of what a walk's caller would derive itself: calls of
    ``exact_turn``, ``cos`` or ``sin`` of ``math`` or numpy on an
    ``.angle``, and reads of a noise channel table by a key (a subscript,
    an ``in`` test or ``.get``)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            trig = (isinstance(func, ast.Attribute)
                    and func.attr in ("cos", "sin")
                    and getattr(func.value, "id", None) in ("math", "np",
                                                            "numpy")
                    and any(getattr(part, "attr", None) == "angle"
                            for arg in node.args for part in ast.walk(arg)))
            get = (isinstance(func, ast.Attribute) and func.attr == "get"
                   and _named(func.value, "channel"))
            if trig or get or _named(func, "exact_turn"):
                found.append(node.lineno)
        elif isinstance(node, ast.Subscript) \
                and isinstance(node.ctx, ast.Load) \
                and _named(node.value, "channel"):
            found.append(node.lineno)
        elif isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.In, ast.NotIn))
                and _named(right, "channel")
                for op, right in zip(node.ops, node.comparators)):
            found.append(node.lineno)
    return found


def test_only_the_walk_derives_turns_and_channels():
    # ``_walk.walk_rows`` takes the items' circuits and the noise model
    # and derives each rotation's exact (cos, sin) and each op's channel
    # itself, so its callers cannot weigh or damp the same op apart.
    # ``pipeline``'s sin(theta_star) is a bound, not a rotation's weight.
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "_walk.py"
             for line in _walk_input_picks(
                 ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, f"walk inputs derived outside _walk in {found}"
    # the guard sees the forms such a pick takes, and lets a bound, the
    # channel table's build and its hand-over pass
    for code in ("turns = [exact_turn(op.angle) for op in ops]",
                 "c = _walk.exact_turn(a)",
                 "c, s = math.cos(op.angle), 0.0",
                 "s = np.sin(circuit.ops[j].angle / 2)",
                 "f = channels[len(op.qubits)]",
                 "if width in channels: pass",
                 "f = _channels(noise).get(2)",
                 "f = self.channels[w]"):
        assert _walk_input_picks(ast.parse(code)) == [1], code
    for code in ("s = abs(math.sin(theta_star))",
                 "channels[width] = factors",
                 "sums = walk_rows(circuits, observables, rule, noise)"):
        assert not _walk_input_picks(ast.parse(code)), code


def test_estimate_values_have_one_owner():
    # the classical part, the eta candidates, a record's ideal and eta, and
    # gamma and p_kt are each derived in one place from the records and the
    # target measurement; no caller passes them in or reads a second copy
    pipeline = quepp.pipeline
    estimate = inspect.signature(pipeline.quepp_estimate).parameters
    assert not {"classical_part", "eta_candidates"} & set(estimate)
    assert list(estimate)[:3] == ["records", "target_noisy", "eta"]
    assert inspect.signature(pipeline.choose_eta).return_annotation \
        is pipeline.EtaChoice
    assert [f.name for f in dataclasses.fields(pipeline.EnsembleRecord)
            if f.init] == ["path", "noisy"]
    assert not {"gamma", "p_kt"} & {
        f.name for f in dataclasses.fields(pipeline.QueppResult)}


def test_the_bootstrap_runs_the_one_eta_rule():
    # each eta estimator is written once, on rows of record picks: no
    # module takes a second median from ``statistics``, and the
    # convergence series runs ``_eta_rows`` on each prefix and all its
    # resamples at once, reaching no per-resample ``choose_eta``
    imported = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module)
    assert "statistics" not in imported
    tree = ast.parse((PACKAGE / "pipeline.py").read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}
    reached, todo = set(), ["convergence_series"]
    while todo:
        name = todo.pop()
        if name in defs and name not in reached:
            reached.add(name)
            todo.extend(node.func.id for node in ast.walk(defs[name])
                        if isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name))
    assert "_eta_rows" in reached and "choose_eta" not in reached
