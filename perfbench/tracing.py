"""Spans and counters around calls into cqec's layers (traced runs only).

The tracer replaces public names of cqec's modules, at the names their
callers look them up by, with wrappers that record what happened:

* a *span* (name, start, end, parent span, op id, pid, count) for calls
  that are few per op, such as ``integrate`` or a process pool's lifetime;
* a *leaf* aggregate (calls, seconds) per (name, op, parent span) for
  calls that are many per op, such as one right-hand side or one Kraus
  application, so that memory stays small.

Spans stay in memory and are written out when the run ends.  Process
pool workers are forked with the wrappers in place; each worker writes
its own records to ``<trace dir>/child-<pid>.jsonl`` when a task's
outermost span closes, and its spans name the pool span as parent.
"""

import functools
import importlib
import inspect
import json
import os
import time
from pathlib import Path


def _samples(fn, args, kwargs, result):
    return len(result[0]) if isinstance(result, tuple) else len(result)


def _argument(param):
    def count(fn, args, kwargs, result):
        return int(inspect.signature(fn).bind(*args, **kwargs).arguments[param])

    return count


# (layer, kind, lookup names, counter(fn, args, kwargs, result) or None)
TARGETS = [
    ("analysis.scan", "span", ["cqec.analysis:equilibrium_scan"], None),
    ("analysis.scan", "span",
     ["cqec.analysis:equilibrium_point", "cqec.cli:equilibrium_point"], None),
    ("analysis.scan", "span",
     ["cqec.analysis:coupling_reduction_scan", "cqec.cli:coupling_reduction_scan"], None),
    ("analysis.fit", "span", ["cqec.analysis:fit_power_law", "cqec.cli:fit_power_law"], None),
    ("analysis.fit", "span", ["cqec.analysis:fit_damped_cosine"], None),
    ("analysis.fit", "span", ["cqec.analysis:fit_quadratic"], None),
    ("analysis.match_spectrum", "span",
     ["cqec.analysis:match_spectrum", "cqec.cli:match_spectrum"], None),
    ("analysis.observables", "span",
     ["cqec.analysis:observables", "cqec.cli:observables"], _samples),
    ("analysis.observables", "span",
     ["cqec.analysis:fidelity_weight_series", "cqec.cli:fidelity_weight_series"],
     _samples),
    ("dynamics.integrate", "span", ["cqec.dynamics:integrate", "cqec.cli:integrate"], None),
    ("dynamics.propagate_linear", "span",
     ["cqec.dynamics:propagate_linear", "cqec.analysis:propagate_linear",
      "cqec.cli:propagate_linear"], None),
    ("dynamics.step_weak_map", "span",
     ["cqec.dynamics:step_weak_map", "cqec.cli:step_weak_map"], _argument("n_steps")),
    ("dynamics.jump_monte_carlo", "span",
     ["cqec.dynamics:jump_monte_carlo", "cqec.cli:jump_monte_carlo"],
     _argument("n_traj")),
    ("codes_and_maps.total_generator", "span",
     ["cqec.codes_and_maps:total_generator", "cqec.analysis:total_generator",
      "cqec.cli:total_generator"], None),
    ("reduced_model.build_reduced_matrix", "span",
     ["cqec.reduced_model:build_reduced_matrix"], None),
    ("codes_and_maps.rhs", "leaf", ["cqec.codes_and_maps:PairCoupledGenerator.apply"], None),
    ("codes_and_maps.apply_correction", "leaf",
     ["cqec.codes_and_maps:PairCoupledGenerator.apply_correction"], None),
    ("codes_and_maps.apply_kraus", "leaf",
     ["cqec.dynamics:apply_kraus", "cqec.codes_and_maps:apply_kraus"], None),
    ("tensor_core.partial_trace_bath", "leaf",
     ["cqec.tensor_core:partial_trace_bath", "cqec.analysis:partial_trace_bath",
      "cqec.dynamics:partial_trace_bath"], None),
    ("analysis.pool", "pool",
     ["cqec.analysis:ProcessPoolExecutor", "cqec.cli:ProcessPoolExecutor"], None),
]


class Tracer:
    def __init__(self, trace_dir):
        self.trace_dir = Path(trace_dir)
        self.pid = os.getpid()
        self.child = False
        self.spans = []  # (sid, name, start, end, parent, op, pid, count)
        self.leaves = {}  # (name, op, parent, nested) -> [calls, seconds]
        self.stack = []  # open spans: [sid, name, start]
        self.leaf_depth = 0
        self.base_depth = 0
        self.op = None
        self._serial = 0
        self._patched = []
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording -------------------------------------------------------

    def _after_fork(self):
        self.pid = os.getpid()
        self.child = True
        self.spans = []
        self.leaves = {}
        self.base_depth = len(self.stack)

    def open(self, name):
        self._serial += 1
        self.stack.append([f"{self.pid}:{self._serial}", name, time.perf_counter()])

    def close(self, count=None):
        end = time.perf_counter()
        sid, name, start = self.stack.pop()
        parent = self.stack[-1][0] if self.stack else None
        self.spans.append((sid, name, start, end, parent, self.op, self.pid, count))
        if self.child and len(self.stack) == self.base_depth:
            self.dump(self.trace_dir / f"child-{self.pid}.jsonl")

    def _leaf(self, name, fn, args, kwargs):
        parent = self.stack[-1][0] if self.stack else None
        nested = self.leaf_depth > 0
        self.leaf_depth += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self.leaf_depth -= 1
            rec = self.leaves.setdefault((name, self.op, parent, nested), [0, 0.0])
            rec[0] += 1
            rec[1] += elapsed

    def dump(self, path):
        """Append the records of this process to `path` and forget them."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a") as fh:
            for sid, name, start, end, parent, op, pid, count in self.spans:
                fh.write(json.dumps({"sid": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "pid": pid,
                                     "count": count}) + "\n")
            for (name, op, parent, nested), (calls, secs) in self.leaves.items():
                fh.write(json.dumps({"leaf": name, "op": op, "parent": parent,
                                     "nested": nested, "calls": calls, "s": secs,
                                     "pid": self.pid}) + "\n")
        self.spans = []
        self.leaves = {}

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close()
                raise
            self.close(counter(fn, args, kwargs, result) if counter else None)
            return result

        return wrapper

    def _leaf_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._leaf(name, fn, args, kwargs)

        return wrapper

    def _pool_class(self, name, base):
        tracer = self

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                tracer.open(name)
                self._span_open = True
                try:
                    super().__init__(*args, **kwargs)
                except BaseException:
                    self._close_span()
                    raise

            def _close_span(self):
                if getattr(self, "_span_open", False):
                    self._span_open = False
                    tracer.close()

            def shutdown(self, *args, **kwargs):
                try:
                    return super().shutdown(*args, **kwargs)
                finally:
                    self._close_span()

        return TracedPool

    def install(self):
        """Replace every listed name that exists; names a refactor removed
        are skipped, and their layer then reads 0."""
        made = {}
        for layer, kind, names, counter in TARGETS:
            for ref in names:
                module_name, attr = ref.split(":")
                owner = importlib.import_module(module_name)
                *path, attr = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                orig = getattr(owner, attr, None) if owner is not None else None
                if orig is None:
                    continue
                # one wrapper per original object, so that pickling a
                # wrapped function by name finds the same object
                if id(orig) not in made:
                    if kind == "span":
                        made[id(orig)] = self._span_wrapper(layer, orig, counter)
                    elif kind == "leaf":
                        made[id(orig)] = self._leaf_wrapper(layer, orig)
                    else:
                        made[id(orig)] = self._pool_class(layer, orig)
                self._patched.append((owner, attr, orig))
                setattr(owner, attr, made[id(orig)])

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched = []


# ---------------------------------------------------------------------------
# deriving layer totals from the records
# ---------------------------------------------------------------------------


def load_records(trace_dir):
    spans, leaves = [], []
    for path in sorted(Path(trace_dir).glob("*.jsonl")):
        with open(path) as fh:
            for line in fh:
                rec = json.loads(line)
                (leaves if "leaf" in rec else spans).append(rec)
    return spans, leaves


def layer_totals(spans, leaves):
    """Per layer: 'calls', 'count' and 's' over its outermost spans (a span
    inside another span of the same layer is not counted twice), 'self_s'
    (span time outside its direct child spans and leaves in the same
    process), and for leaves 'calls' and 's'.  Times add up over processes,
    so a layer that runs in parallel pool workers can exceed wall time."""
    by_sid = {s["sid"]: s for s in spans}
    child_time = {}
    for s in spans:
        parent = by_sid.get(s["parent"])
        if parent is not None and parent["pid"] == s["pid"]:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    for leaf in leaves:
        if not leaf["nested"] and leaf["parent"] is not None:
            child_time[leaf["parent"]] = child_time.get(leaf["parent"], 0.0) + leaf["s"]

    totals = {}
    for s in spans:
        t = totals.setdefault(s["name"], {"calls": 0, "count": 0, "s": 0.0, "self_s": 0.0})
        dur = s["end"] - s["start"]
        t["self_s"] += dur - child_time.get(s["sid"], 0.0)
        ancestor = by_sid.get(s["parent"])
        while ancestor is not None and ancestor["name"] != s["name"]:
            ancestor = by_sid.get(ancestor["parent"])
        if ancestor is None:
            t["calls"] += 1
            t["s"] += dur
            t["count"] += s["count"] or 0
    for leaf in leaves:
        t = totals.setdefault(leaf["leaf"], {"calls": 0, "count": 0, "s": 0.0, "self_s": 0.0})
        t["calls"] += leaf["calls"]
        t["s"] += leaf["s"]
        t["self_s"] += leaf["s"]
    return totals
