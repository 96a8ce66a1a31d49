"""Outside-in tracer for the fibre-scan benchmark.

The engine has no timing hooks, so the tracer wraps public functions of its
modules from the outside and restores them afterwards.  A module-level
function is replaced under every name that binds it in any engine module
(`h0` lives in `bundle`, `scroll`, `theorems` and `cli`, for example); a
method is replaced once on its class, which every importer shares.  Class
construction (`Curve`, `ScanContext`) is traced through `__init__`, so
each binding of the class name is covered without replacing the class.

Two kinds of boundary are recorded:

* spans - coarse layers (one task, one scan, one h^0).  Each call keeps
  (name, start, end, parent span, task id) in memory; `dump` writes them.
* leaves - hot inner calls (series arithmetic, curve parametrisations,
  echelon inserts), called millions of times.  Only per-(name, parent)
  call counts and self time are kept.

Self time is a call's duration minus the time covered by wrapped calls
made inside it.  The engine is one thread with no queues, so no waiting
time exists to measure.
"""

from __future__ import annotations

import json
import sys
import time

PACKAGE = "scrollinflect"

# (module, attribute path, metric name, leaf?)
TARGETS = [
    ("fields", "extension_of", "fields.extension_of", False),
    ("series", "LaurentSeries.mul", "series.LaurentSeries.mul", True),
    ("series", "LaurentSeries.invert", "series.LaurentSeries.invert", True),
    ("curve", "Curve.__init__", "curve.Curve", False),
    ("curve", "Curve.param_series", "curve.param_series", True),
    ("funcfield", "FunctionRep.local_expansion", "funcfield.local_expansion", False),
    ("funcfield", "rr_basis", "funcfield.rr_basis", False),
    ("funcfield", "principal_function", "funcfield.principal_function", False),
    ("linalg", "mat_rank_kernel", "linalg.mat_rank_kernel", False),
    ("linalg", "EchelonAccumulator.insert", "linalg.EchelonAccumulator.insert", True),
    ("bundle", "h0", "bundle.h0", False),
    ("bundle", "elementary_transform", "bundle.elementary_transform", False),
    ("bundle", "normalized_series", "bundle.normalized_series", False),
    ("scroll", "ScanContext.__init__", "scroll.ScanContext", False),
    ("scroll", "ScanContext.scan_level", "scroll.scan_level", False),
    ("scroll", "ScanContext.orders_at", "scroll.orders_at", False),
    ("scroll", "order_matrices", "scroll.order_matrices", False),
    ("scroll", "subsheaf_witnesses", "scroll.subsheaf_witnesses", False),
    ("theorems", "segre1", "theorems.segre1", False),
    ("theorems", "verify_segre_threshold", "theorems.verify_segre_threshold", False),
    ("theorems", "verify_projection", "theorems.verify_projection", False),
    ("cli", "load_instance", "cli.load_instance", False),
    ("cli", "emit", "cli.emit", False),
    ("cli", "run_command", "cli.run_command", False),
]


def _engine_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Install with `with Tracer() as tr:`; bindings are restored on exit."""

    def __init__(self):
        self.task_id = None
        self.spans = []            # (name, start, end, parent span, task id)
        self.span_self = {}        # name -> [calls, self seconds]
        self.leaves = {}           # (name, parent name) -> [calls, self seconds]
        self.inclusive = {}        # name -> seconds under the outermost call
        self.extension_built = 0   # extension_of calls with e > 1
        self.expansion_keys = set()
        self.expansion_distinct = 0
        self._stack = []           # frames: [name, child seconds, span id]
        self._depth = {}
        self._patched = []         # (owner, attribute, original)

    # -- installation ------------------------------------------------------
    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def install(self):
        modules = {m.__name__.rsplit(".", 1)[-1]: m for m in _engine_modules()}
        for mod_name, path, name, leaf in TARGETS:
            owner = modules[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if outer:
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, name, leaf)
                continue
            original = getattr(owner, attr)
            for mod in modules.values():
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, binding, original, name, leaf)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, original, name, leaf):
        self._patched.append((owner, attr, original))
        make = self._leaf_wrapper if leaf else self._span_wrapper
        wrapper = make(original, name)
        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)

    # -- task boundaries ---------------------------------------------------
    def start_task(self, task_id):
        self.task_id = task_id
        self.expansion_keys = set()

    def end_task(self):
        self.expansion_distinct += len(self.expansion_keys)
        self.expansion_keys = set()

    # -- wrappers ------------------------------------------------------------
    def _note(self, name, args):
        if name == "fields.extension_of":
            if args[1] > 1:
                self.extension_built += 1
        elif name == "funcfield.local_expansion":
            f, place, precision = args
            self.expansion_keys.add((f.curve.field, tuple(f.n0), tuple(f.n1),
                                     tuple(f.d0), place.x, place.y, precision))

    def _exit(self, name, dur):
        depth = self._depth[name] - 1
        self._depth[name] = depth
        if depth == 0:
            self.inclusive[name] = self.inclusive.get(name, 0.0) + dur
        if self._stack:
            self._stack[-1][1] += dur

    def _span_wrapper(self, fn, name):
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        noted = name in ("fields.extension_of", "funcfield.local_expansion")
        self.span_self.setdefault(name, [0, 0.0])
        self._depth.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            if noted:
                self._note(name, args)
            parent = stack[-1][2] if stack else None
            span_id = len(spans)
            spans.append(None)
            frame = [name, 0.0, span_id]
            stack.append(frame)
            self._depth[name] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                spans[span_id] = (name, t0, t1, parent, self.task_id)
                stat = self.span_self[name]
                stat[0] += 1
                stat[1] += dur - frame[1]
                self._exit(name, dur)
        return wrapper

    def _leaf_wrapper(self, fn, name):
        stack, leaves, clock = self._stack, self.leaves, time.perf_counter
        self._depth.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0, parent[2] if parent else None]
            stack.append(frame)
            self._depth[name] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                key = (name, parent[0] if parent else None)
                stat = leaves.get(key)
                if stat is None:
                    stat = leaves[key] = [0, 0.0]
                stat[0] += 1
                stat[1] += dur - frame[1]
                self._exit(name, dur)
        return wrapper

    # -- results -------------------------------------------------------------
    def calls(self, name):
        if name in self.span_self:
            return self.span_self[name][0]
        return sum(s[0] for (n, _), s in self.leaves.items() if n == name)

    def self_s(self, name):
        if name in self.span_self:
            return self.span_self[name][1]
        return sum(s[1] for (n, _), s in self.leaves.items() if n == name)

    def leaf_calls_under(self, name, parent):
        stat = self.leaves.get((name, parent))
        return stat[0] if stat else 0

    def total_self_s(self):
        return sum(s[1] for s in self.span_self.values()) + \
            sum(s[1] for s in self.leaves.values())

    def dump(self, path):
        """Write the spans and the per-parent leaf table as one JSON document."""
        doc = {"fields": ["name", "start", "end", "parent", "task"],
               "spans": self.spans,
               "leaves": [[n, p, c, s] for (n, p), (c, s) in sorted(
                   self.leaves.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))]}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
