"""Spans and counts recorded around logifold's public functions, from outside.

A `Tracer` replaces every binding of each traced function -- the defining
module's attribute, re-exports such as ``logifold.evaluate`` and direct
imports such as ``semilinear.find_witness`` or ``approx.evaluate`` -- with a
wrapper that records one span per call in memory.  `uninstall` puts every
original binding back, so code run outside the traced window calls the
unwrapped functions.

A span's self time is its duration minus the durations of its direct child
spans.  Per-call hooks add counts (feasible systems, chambers, points, ...)
from which the per-layer ratios are derived.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

WRAPPED_MARK = "__perfbench_original__"


def _hint_arg(args, kwargs):
    return kwargs.get("hint", args[3] if len(args) > 3 else None)


def _count_find_witness(tr, args, kwargs, result):
    tr.counts["find_witness.feasible"] += result is not None
    hint = _hint_arg(args, kwargs)
    if hint is not None and result is not None and tuple(result) == tuple(hint):
        tr.counts["find_witness.hint_hits"] += 1
    if tr.active("feasibility.enumerate_chambers"):
        tr.counts["find_witness.in_chambers"] += 1


def _count_chambers(tr, args, kwargs, result):
    tr.counts["enumerate_chambers.chambers"] += len(result)


def _count_check_system(tr, args, kwargs, result):
    tr.counts["check_system.refuted"] += not result.feasible


def _count_compiled_graph(tr, args, kwargs, g):
    tr.counts["networks.graphs"] += 1
    tr.counts["networks.vertices"] += len(g.vertices)
    tr.counts["networks.guards"] += len(g.guards)
    tr.counts["networks.guard_rows"] += sum(m.rows for m in g.guards.values())


def _count_fuzzy_import(tr, args, kwargs, fg):
    tr.counts["fuzzy.vertices"] += len(fg.skeleton.vertices)


def _count_pieces(tr, args, kwargs, f):
    tr.counts["semilinear.pieces"] += sum(len(s.pieces) for s in f.fibers.values())


def _count_is_empty(tr, args, kwargs, result):
    tr.counts["is_empty.empty"] += bool(result)


def _count_points(tr, args, kwargs, result):
    tr.counts["evaluate_batch.points"] += len(result)


def _count_boxes(tr, args, kwargs, result):
    tr.counts["approximate.boxes"] += len(result.rectangles)


def _count_outputs(tr, args, kwargs, result):
    if tr.active("voting.vote_with_validation_history"):
        tr.counts["outputs.in_votes"] += 1


# (module, attribute path, span name, count hook).  An attribute path with a
# dot is a method on a class defined in that module.
TRACED = (
    ("feasibility", "find_witness", "feasibility.find_witness", _count_find_witness),
    ("feasibility", "enumerate_chambers", "feasibility.enumerate_chambers", _count_chambers),
    ("feasibility", "check_system", "feasibility.check_system", _count_check_system),
    ("networks", "compile_relu_net", "networks.compile_relu_net", _count_compiled_graph),
    ("networks", "compile_step_net", "networks.compile_step_net", _count_compiled_graph),
    ("fuzzy", "from_relu_softmax_net", "fuzzy.from_relu_softmax_net", _count_fuzzy_import),
    ("semilinear", "from_llgraph", "semilinear.from_llgraph", _count_pieces),
    ("semilinear", "to_llgraph", "semilinear.to_llgraph", None),
    ("semilinear", "BasicSemilinearSet.is_empty", "semilinear.is_empty", _count_is_empty),
    ("graph", "evaluate_batch", "graph.evaluate_batch", _count_points),
    ("graph", "evaluate", "graph.evaluate", None),
    ("approx", "approximate", "approx.approximate", _count_boxes),
    ("approx", "largest_rectangle", "approx.largest_rectangle", None),
    ("approx", "mismatch_measure", "approx.mismatch_measure", None),
    ("voting", "calibrate", "voting.calibrate", None),
    ("voting", "expected_accuracy", "voting.expected_accuracy", None),
    ("voting", "vote_with_validation_history", "voting.vote_with_validation_history", None),
    ("voting", "vote_along_path", "voting.vote_along_path", None),
    ("ensemble", "ModelChart.outputs", "ensemble.ModelChart.outputs", _count_outputs),
    ("ensemble", "fuzzy_accuracy", "ensemble.fuzzy_accuracy", None),
    ("training", "train_sgd", "training.train_sgd", None),
)


def traced_originals():
    """{span name: original function} for every traced function."""
    out = {}
    for mod, path, name, _ in TRACED:
        owner = importlib.import_module(f"logifold.{mod}")
        *cls, attr = path.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        fn = vars(owner)[attr]
        out[name] = getattr(fn, WRAPPED_MARK, fn)
    return out


def bindings(fn, extra_modules=()):
    """Every (owner, attribute) that binds `fn` in logifold or `extra_modules`."""
    found = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "logifold" or n.startswith("logifold."))]
    for mod in modules + list(extra_modules):
        for attr, val in list(vars(mod).items()):
            if val is fn:
                found.append((mod, attr))
            elif isinstance(val, type) and val.__module__.startswith("logifold"):
                if vars(val).get(fn.__name__) is fn:
                    found.append((val, fn.__name__))
    return list(dict.fromkeys(found))


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self, extra_modules=()):
        self.extra_modules = tuple(extra_modules)
        self.spans = []  # (name, start, end, parent span index or -1)
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._stack = []  # [span index, time covered by direct children]
        self._active = Counter()
        self._patched = []  # (owner, attribute, original)
        self._suspended = False

    def active(self, name) -> bool:
        return self._active[name] > 0

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._suspended:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            frame = [len(tracer.spans), 0.0]
            tracer.spans.append(None)
            stack.append(frame)
            tracer._active[name] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer._active[name] -= 1
                dur = t1 - t0
                tracer.spans[frame[0]] = (name, t0, t1, parent)
                tracer.calls[name] += 1
                tracer.total_s[name] += dur
                tracer.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        setattr(wrapper, WRAPPED_MARK, fn)
        return wrapper

    def install(self):
        if self._patched:
            raise RuntimeError("tracer is already installed")
        originals = traced_originals()
        for _, _, name, hook in TRACED:
            fn = originals[name]
            wrapper = self._wrap(name, fn, hook)
            for owner, attr in bindings(fn, self.extra_modules):
                self._patched.append((owner, attr, fn))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def suspended(self):
        """Pass calls straight through, e.g. while outputs are checked."""
        prev, self._suspended = self._suspended, True
        try:
            yield
        finally:
            self._suspended = prev

    def metrics(self) -> dict:
        """Per-layer metrics: {name: (value, unit)}."""
        c, k, s = self.calls, self.counts, self.self_s

        def ratio(num, den):
            return num / den if den else 0.0

        fw, ec, cs = ("feasibility.find_witness", "feasibility.enumerate_chambers",
                      "feasibility.check_system")
        graphs = k["networks.graphs"]
        out = {
            f"{fw}.calls": (c[fw], "count"),
            f"{fw}.self_s": (s[fw], "s"),
            f"{fw}.feasible_frac": (ratio(k["find_witness.feasible"], c[fw]), "frac"),
            f"{fw}.hint_hit_frac": (ratio(k["find_witness.hint_hits"], c[fw]), "frac"),
            f"{ec}.calls": (c[ec], "count"),
            f"{ec}.self_s": (s[ec], "s"),
            f"{ec}.chambers": (k["enumerate_chambers.chambers"], "count"),
            f"{ec}.witness_calls_per_chamber": (
                ratio(k["find_witness.in_chambers"], k["enumerate_chambers.chambers"]), "ratio"),
            f"{cs}.calls": (c[cs], "count"),
            f"{cs}.self_s": (s[cs], "s"),
            f"{cs}.refuted_frac": (ratio(k["check_system.refuted"], c[cs]), "frac"),
            "networks.graph_vertices": (ratio(k["networks.vertices"], graphs), "count"),
            "networks.graph_guards": (ratio(k["networks.guards"], graphs), "count"),
            "networks.guard_rows": (ratio(k["networks.guard_rows"], graphs), "count"),
            "fuzzy.from_relu_softmax_net.vertices": (
                ratio(k["fuzzy.vertices"], c["fuzzy.from_relu_softmax_net"]), "count"),
            "semilinear.is_empty.empty_frac": (
                ratio(k["is_empty.empty"], c["semilinear.is_empty"]), "frac"),
            "semilinear.pieces": (
                ratio(k["semilinear.pieces"], c["semilinear.from_llgraph"]), "count"),
            "graph.evaluate_batch.points_per_s": (
                ratio(k["evaluate_batch.points"], self.total_s["graph.evaluate_batch"]), "1/s"),
            "approx.largest_rectangle.calls_per_box": (
                ratio(c["approx.largest_rectangle"], k["approximate.boxes"]), "ratio"),
            "ensemble.ModelChart.outputs.calls_per_instance": (
                ratio(k["outputs.in_votes"], c["voting.vote_with_validation_history"]), "ratio"),
        }
        for name in ("networks.compile_relu_net", "networks.compile_step_net",
                     "fuzzy.from_relu_softmax_net", "graph.evaluate_batch", "graph.evaluate",
                     "approx.largest_rectangle", "voting.expected_accuracy",
                     "voting.vote_with_validation_history", "ensemble.ModelChart.outputs"):
            out[f"{name}.calls"] = (c[name], "count")
            out[f"{name}.self_s"] = (s[name], "s")
        for name in ("semilinear.from_llgraph", "semilinear.to_llgraph",
                     "approx.approximate", "approx.mismatch_measure", "voting.calibrate",
                     "training.train_sgd"):
            out[f"{name}.self_s"] = (s[name], "s")
        for name in ("semilinear.is_empty", "voting.vote_along_path",
                     "ensemble.fuzzy_accuracy"):
            out[f"{name}.calls"] = (c[name], "count")
        return out

    def dump(self, path: Path, meta: dict):
        """Write every span (times relative to the first) plus the totals."""
        names = sorted(self.calls)
        index = {n: i for i, n in enumerate(names)}
        t0 = min((sp[1] for sp in self.spans if sp), default=0.0)
        spans = [[index[n], round(a - t0, 7), round(b - t0, 7), p]
                 for n, a, b, p in (sp for sp in self.spans if sp)]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**meta, "span_fields": ["name", "start_s", "end_s", "parent"],
                       "names": names, "spans": spans, "calls": dict(self.calls),
                       "self_s": dict(self.self_s), "counts": dict(self.counts)}, fh)
