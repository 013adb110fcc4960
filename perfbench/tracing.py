"""Spans around calls into quepp's public functions, and the layer metrics
derived from them.

The traced run installs thin wrappers over the names the CLI and the
pipeline look up at call time (``quepp.cli.run_quepp``,
``quepp.pipeline.path_to_circuit``, ``TrajectorySimulator.submit_batch``,
...), runs the ordinary ``quepp.cli.main`` command, and restores the
originals.  No file of the program changes.  Spans stay in memory and are
written once, at the end of the run.

Before the real batch, the batch wrapper submits the target alone as a
one-item batch (span ``backend.target``) and the reference circuits alone
(span ``backend.references``), and discards both results.  Item 0 draws the
same random stream either way, so the first is exactly the target's work;
the wrapper checks that both target estimates are equal.  The references
draw other streams when shifted down by one, but the same number of twirls
and shots on the same circuits, so the second times the Clifford-frame work.
"""

import contextlib
import time
from collections import defaultdict

# (module, attribute, span name).  Attributes a later version of the program
# no longer has are skipped, and their metrics read 0.
WRAPPED = (
    ("quepp.cli", "main", "cli.main"),
    ("quepp.cli", "generate_experiment", "experiments.generate_experiment"),
    ("quepp.cli", "parse_circuit", "circuits.parse_circuit"),
    ("quepp.cli", "normalize_rotations", "circuits.normalize_rotations"),
    ("quepp.cli", "run_quepp", "pipeline.run_quepp"),
    ("quepp.cli", "convergence_series", "pipeline.convergence_series"),
    ("quepp.cli", "build_ensemble", "sampler.build_ensemble"),
    ("quepp.statevector", "expectation", "statevector.expectation"),
    ("quepp.pipeline", "normalize_rotations", "circuits.normalize_rotations"),
    ("quepp.pipeline", "enumerate_paths_parallel",
     "engine.enumerate_paths_parallel"),
    ("quepp.pipeline", "build_ensemble", "sampler.build_ensemble"),
    ("quepp.pipeline", "path_to_circuit", "engine.path_to_circuit"),
    ("quepp.pipeline", "make_record", "pipeline.make_record"),
    ("quepp.pipeline", "choose_eta", "pipeline.choose_eta"),
    ("quepp.pipeline", "quepp_estimate", "pipeline.quepp_estimate"),
)

_ESTIMATE_SPANS = ("pipeline.make_record", "pipeline.choose_eta",
                   "pipeline.quepp_estimate")


class Tracer:
    """Nested spans of one process.  Every span opened inside
    ``command(command_id)`` carries that id; the command's root span is its
    ``cli.main`` call."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._command = None
        self.problems = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        record = {"id": len(self.spans), "command": self._command,
                  "name": name,
                  "parent": self._stack[-1]["id"] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        record.update(attrs)
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def command(self, command_id):
        self._command = command_id
        try:
            yield
        finally:
            self._command = None


def _on_result(name, span, result):
    if name == "engine.enumerate_paths_parallel":
        span["paths"] = len(result)
    elif name == "sampler.build_ensemble":
        span.update(result[1].to_json_dict())


def _wrap(tracer, name, function):
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            result = function(*args, **kwargs)
            _on_result(name, span, result)
            return result
    return wrapper


def _wrap_submit(tracer, submit_batch, is_clifford_equivalent):
    def wrapper(self, items, plan):
        items = list(items)
        clifford = [is_clifford_equivalent(circuit) for circuit, _ in items]
        with tracer.span("backend.target") as probe:
            target = submit_batch(self, items[:1], plan)
        if len(items) > 1:
            with tracer.span("backend.references",
                             clifford_items=sum(clifford[1:])):
                submit_batch(self, items[1:], plan)
        with tracer.span("backend.submit_batch", items=len(items),
                         clifford_items=sum(clifford)) as span:
            estimates = submit_batch(self, items, plan)
        span["shots"] = sum(e.total_shots for e in estimates)
        probe["shots"] = estimates[0].total_shots
        if target[0] != estimates[0]:
            tracer.problems.append("the target submitted alone differs "
                                   "from item 0 of the full batch")
        return estimates
    return wrapper


@contextlib.contextmanager
def installed(tracer):
    """Wrap the traced names for the duration of the block."""
    import importlib
    from quepp.backend import TrajectorySimulator
    from quepp.circuits import is_clifford_equivalent

    saved = []
    try:
        for module_name, attribute, span_name in WRAPPED:
            module = importlib.import_module(module_name)
            function = getattr(module, attribute, None)
            if function is None:
                continue
            saved.append((module, attribute, function))
            setattr(module, attribute, _wrap(tracer, span_name, function))
        submit = TrajectorySimulator.__dict__["submit_batch"]
        saved.append((TrajectorySimulator, "submit_batch", submit))
        TrajectorySimulator.submit_batch = _wrap_submit(
            tracer, submit, is_clifford_equivalent)
        yield tracer
    finally:
        for owner, attribute, function in reversed(saved):
            setattr(owner, attribute, function)


def _duration(span):
    return span["end"] - span["start"]


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans, command_id, setup_id):
    """Per-module figures of one traced command (``command_id``), plus the
    generation time of the traced set-up (``setup_id``)."""
    by_id = {s["id"]: s for s in spans}
    named = defaultdict(list)
    child_time = defaultdict(float)
    for span in spans:
        if span["command"] == command_id:
            named[span["name"]].append(span)
            if span["parent"] is not None:
                child_time[span["parent"]] += _duration(span)

    def total(name):
        return sum(_duration(s) for s in named[name])

    def summed(name, key):
        return sum(s.get(key, 0) for s in named[name])

    def under_run_quepp(span):
        return by_id[span["parent"]]["name"] == "pipeline.run_quepp"

    root = named["cli.main"][0]
    generate_s = sum(_duration(s) for s in spans
                     if s["command"] == setup_id
                     and s["name"] == "experiments.generate_experiment")
    enumerate_s = total("engine.enumerate_paths_parallel")
    paths = summed("engine.enumerate_paths_parallel", "paths")
    compile_s = total("engine.path_to_circuit")
    executed = len(named["engine.path_to_circuit"])
    build_s = total("sampler.build_ensemble")
    attempts = summed("sampler.build_ensemble", "attempts")
    unique = summed("sampler.build_ensemble", "unique")
    submit_s = total("backend.submit_batch")
    target_s = total("backend.target")
    references_s = total("backend.references")
    items = summed("backend.submit_batch", "items")
    clifford_items = summed("backend.submit_batch", "clifford_items")
    shots = summed("backend.submit_batch", "shots")
    target_shots = summed("backend.target", "shots")
    estimate_spans = [s for name in _ESTIMATE_SPANS for s in named[name]
                      if under_run_quepp(s)]
    records = sum(1 for s in estimate_spans
                  if s["name"] == "pipeline.make_record")
    estimate_s = sum(_duration(s) for s in estimate_spans)
    series_s = total("pipeline.convergence_series")
    series_rows = sum(1 for s in named["pipeline.quepp_estimate"]
                      if by_id[s["parent"]]["name"]
                      == "pipeline.convergence_series")
    return {
        "experiments.generate_s": generate_s,
        "circuits.parse_s": total("circuits.parse_circuit"),
        "circuits.normalize_s": total("circuits.normalize_rotations"),
        "engine.enumerate_s": enumerate_s,
        "engine.paths": paths,
        "engine.paths_per_s": _rate(paths, enumerate_s),
        "engine.executed": executed,
        "engine.useful_ratio": executed / paths if paths else 0.0,
        "engine.compile_s": compile_s,
        "engine.compile_per_s": _rate(executed, compile_s),
        "sampler.build_s": build_s,
        "sampler.attempts": attempts,
        "sampler.walks_per_s": _rate(attempts, build_s),
        "sampler.zero_expectation": summed("sampler.build_ensemble",
                                           "zero_expectation"),
        "sampler.useful_ratio": unique / attempts if attempts else 0.0,
        "sampler.unique": unique,
        "backend.submit_s": submit_s,
        "backend.items": items,
        "backend.clifford_items": clifford_items,
        "backend.dense_items": items - clifford_items,
        "backend.shots": shots,
        "backend.items_per_s": _rate(items, submit_s),
        "backend.shots_per_s": _rate(shots, submit_s),
        "backend.target_s": target_s,
        "backend.target_shots_per_s": _rate(target_shots, target_s),
        "backend.references_s": references_s,
        "backend.clifford_items_per_s": _rate(
            summed("backend.references", "clifford_items"), references_s),
        "pipeline.estimate_s": estimate_s,
        "pipeline.records": records,
        "pipeline.records_per_s": _rate(records, estimate_s),
        "pipeline.series_s": series_s,
        "pipeline.series_rows_per_s": _rate(series_rows, series_s),
        "statevector.ideal_s": total("statevector.expectation"),
        "cli.self_s": _duration(root) - child_time[root["id"]],
    }
