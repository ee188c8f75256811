"""Span tracing of one `socsqueeze run`, and the per-layer summary of its spans.

Run as a script, this file replaces the calls into each package module's
public functions by wrappers that record a span, then runs the CLI:

    PYTHONPATH=src python3 perfbench/spans.py SPANS_DIR WORKLOAD LABEL -- run --config ...

Each span is one JSON line (id, parent, name, layer, start, end, pid,
workload, cell, plus a few attributes) in SPANS_DIR/LABEL.PID.jsonl.  Spans
stay in memory; the main process writes its own when the CLI returns, and a
pool worker writes after every cell it computes, since workers are not
guaranteed to run exit handlers.  Times come from time.perf_counter, which
is CLOCK_MONOTONIC on Linux and so comparable between processes.
"""

import functools
import itertools
import json
import os
import statistics
import sys
import time

import numpy as np

# public functions timed per layer; callers across module boundaries reach these
TRACED = {
    "config": ("load_config",),
    "bands": ("classify", "dispersion"),
    "fockspace": ("ed_ground_state", "ed_moment_set"),
    "gaussian": ("solve_gaussian", "hp_mean_field", "hp_quadratic", "gaussian_moment_set"),
    "metrics": ("build_report",),
    "gp": ("build_problem", "imaginary_time_ground_state", "gp_moment_set", "save_field"),
    "io": ("write_csv", "write_json", "ensure_dir"),
}
# cli's per-cell workers; task[1] is the cell index
CELL_WORKERS = ("_sweep_cell", "_classify_cell")

# attributes taken from a call's arguments
_ATTRS = {
    "fockspace.ed_ground_state": lambda a, kw: {"N": int(a[1] if len(a) > 1 else kw["n_atoms"])},
    "fockspace.ed_moment_set": lambda a, kw: {"N": int(a[0].N)},
}


class Recorder:
    """In-memory spans of one process, written out as JSON lines."""

    def __init__(self, spans_dir, workload, label):
        self.spans_dir, self.workload, self.label = spans_dir, workload, label
        self.main_pid = os.getpid()
        self.cell = label
        self.spans, self.stack = [], []
        self.ids = itertools.count()
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self):
        self.spans, self.stack = [], []

    def wrap(self, fn, name, attrs=None):
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": f"{os.getpid()}:{next(self.ids)}",
                    "parent": self.stack[-1] if self.stack else None,
                    "name": name, "layer": layer, "pid": os.getpid(),
                    "workload": self.workload, "cell": self.cell}
            if attrs:
                span.update(attrs(args, kwargs))
            self.stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
                self.spans.append(span)

        return traced

    def wrap_cell(self, fn):
        timed = self.wrap(fn, "cli.cell")

        @functools.wraps(fn)
        def cell(task):
            outer = self.cell
            self.cell = f"{self.label}:{task[1]}"
            try:
                return timed(task)
            finally:
                self.cell = outer
                if os.getpid() != self.main_pid:
                    self.flush()

        return cell

    def flush(self):
        if not self.spans:
            return
        path = os.path.join(self.spans_dir, f"{self.label}.{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in self.spans)
        self.spans = []


def _replace_everywhere(original, replacement):
    """Point every socsqueeze module attribute bound to ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if name == "socsqueeze" or name.startswith("socsqueeze."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(recorder):
    """Wrap the traced functions in the imported package; returns names not found."""
    import importlib

    import socsqueeze.cli  # noqa: F401  imports every layer module

    missing = []
    for layer, names in TRACED.items():
        module = importlib.import_module(f"socsqueeze.{layer}")
        for fn_name in names:
            fn = getattr(module, fn_name, None)
            if fn is None:
                missing.append(f"{layer}.{fn_name}")
                continue
            key = f"{layer}.{fn_name}"
            _replace_everywhere(fn, recorder.wrap(fn, key, _ATTRS.get(key)))
    problem = getattr(sys.modules["socsqueeze.gp"], "GpProblem", None)
    if problem is None:
        missing.append("gp.GpProblem.step")
    else:
        problem.step = recorder.wrap(problem.step, "gp.step")
    cli = sys.modules["socsqueeze.cli"]
    for fn_name in CELL_WORKERS:
        fn = getattr(cli, fn_name, None)
        if fn is None:
            missing.append(f"cli.{fn_name}")
        else:
            setattr(cli, fn_name, recorder.wrap_cell(fn))
    return missing


def main(argv):
    spans_dir, workload, label, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: spans.py SPANS_DIR WORKLOAD LABEL -- <socsqueeze args>")
    recorder = Recorder(spans_dir, workload, label)
    for name in install(recorder):
        print(f"trace: {name} not found; its spans are missing", file=sys.stderr)
    import socsqueeze.cli

    try:
        return socsqueeze.cli.main(cli_args)
    finally:
        recorder.flush()


# --- summary, in the benchmark process --------------------------------------

def load_spans(spans_dir):
    spans = []
    for name in sorted(os.listdir(spans_dir)):
        with open(os.path.join(spans_dir, name)) as fh:
            spans.extend(json.loads(line) for line in fh)
    return spans


def _union_length(intervals):
    total, reach = 0.0, -np.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _busy(spans, layer):
    """Summed duration of a layer's outermost spans (not inside another of its spans)."""
    by_id = {s["id"]: s for s in spans}
    total = 0.0
    for s in spans:
        if s["layer"] != layer:
            continue
        parent = by_id.get(s["parent"])
        while parent is not None and parent["layer"] != layer:
            parent = by_id.get(parent["parent"])
        if parent is None:
            total += s["end"] - s["start"]
    return total


def _durations(spans, name, **match):
    return [s["end"] - s["start"] for s in spans
            if s["name"] == name and all(s.get(k) == v for k, v in match.items())]


def _median(values, scale=1.0):
    return scale * statistics.median(values) if values else 0.0


def _label(span):
    """Invocation label of a span: its cell without the cell index."""
    return span["cell"].split(":", 1)[0]


def summarise(spans, walls):
    """Per-layer metrics of one traced round.

    ``walls`` maps invocation labels to their wall times in seconds.  A
    function the round never called reports 0 calls and 0 time.
    """
    m = {}
    classify = _durations(spans, "bands.classify")
    m["bands.classify.calls"] = len(classify)
    m["bands.classify.ms_p50"] = _median(classify, 1e3)
    m["bands.classify.ms_p95"] = 1e3 * float(np.percentile(classify, 95)) if classify else 0.0
    for n in (40, 61, 62, 200):
        m[f"fockspace.ed_ground_state.ms.N{n}"] = _median(
            _durations(spans, "fockspace.ed_ground_state", N=n), 1e3)
    m["fockspace.ed_moment_set.ms.N200"] = _median(
        _durations(spans, "fockspace.ed_moment_set", N=200), 1e3)
    for fn in ("hp_mean_field", "hp_quadratic", "gaussian_moment_set"):
        m[f"gaussian.{fn}.ms_p50"] = _median(_durations(spans, f"gaussian.{fn}"), 1e3)
    reports = _durations(spans, "metrics.build_report")
    m["metrics.build_report.calls"] = len(reports)
    m["metrics.build_report.ms_p50"] = _median(reports, 1e3)
    for case in ("shipped", "detuned", "oscillator"):
        steps = [s["end"] - s["start"] for s in spans
                 if s["name"] == "gp.step" and _label(s) == case]
        m[f"gp.steps.{case}"] = len(steps)
        m[f"gp.step_ms.{case}"] = _median(steps, 1e3)
        m[f"gp.ground_state_s.{case}"] = sum(
            s["end"] - s["start"] for s in spans
            if s["name"] == "gp.imaginary_time_ground_state" and _label(s) == case)
    m["gp.build_problem.ms"] = _median(_durations(spans, "gp.build_problem"), 1e3)
    m["config.load_config.ms"] = _median(_durations(spans, "config.load_config"), 1e3)
    for layer in ("bands", "fockspace", "gaussian", "metrics", "gp", "io"):
        m[f"{layer}.busy_s"] = _busy(spans, layer)
    m["cli.self_s"] = sum(
        wall - _union_length([(s["start"], s["end"]) for s in spans
                              if s["layer"] != "cli" and _label(s) == label])
        for label, wall in walls.items())
    return m


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
