"""Timing wrappers installed from outside the package, and the span store.

Every public function of the seven measured modules is wrapped, at every
module attribute through which it is reached (a function imported by name
into another module is patched there too).  A few methods that carry a
layer's work are wrapped on their classes.  Spans are recorded only while
the tracer is active, which the benchmark limits to its timed operations.

Span times are the thread's CPU time, as for the operations themselves.
Span records (name, start, end, parent span, request id) are kept in
memory, up to SPAN_CAP of them, and written out when the run ends.  Call
counts and self times are aggregated for every span, kept or not.  Self
time is a span's duration minus the time its child spans cover.

`satisfies` and the relations' `holds` are hot enough that a span per call
would swamp the run: their wrappers only count calls, and their time stays
in the caller's self time.  For `satisfies` only top-level calls count,
not its recursion into sub-descriptors.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from time import thread_time

MODULES = ("logic", "descriptors", "models", "operators", "graphs",
           "believability", "synthesis")

# per-valuation or per-node helpers: wrapping them measures the wrapper
SKIP = {"logic.evaluate", "logic.entails", "logic.valuation_to_bits",
        "logic.bits_to_valuation"}

COUNT_ONLY = {"descriptors.satisfies"}

# (module, class, method, span name)
METHODS = (
    ("logic", "SentenceClass", "encode", "logic.encode"),
    ("logic", "BeliefSet", "encode", "logic.encode"),
    ("logic", "InputSet", "encode", "logic.encode"),
    ("operators", "ChoiceOperator", "outcome", "operators.outcome"),
    ("operators", "ChoiceOperator", "from_model", "operators.from_model"),
    ("operators", "ChoiceOperator", "from_function", "operators.from_function"),
    ("believability", "MultiBelievabilityRelation", "table_over",
     "believability.table_over"),
)
COUNT_METHODS = (
    ("believability", "BelievabilityRelation", "holds", "believability.holds"),
    ("believability", "MultiBelievabilityRelation", "holds", "believability.holds"),
)

# spans named after their postulate argument
BY_POSTULATE = {"operators.check_postulate", "believability.check_relation_postulate"}

SPAN_CAP = 400_000


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counts: dict[str, int] = {}
        # open spans: [span index or -1, name id, start, child time]
        self.stack: list[list] = []
        self.request = -1
        self.kept = 0
        self.dropped = 0
        self.col_name = array("i")
        self.col_start = array("d")
        self.col_end = array("d")
        self.col_parent = array("i")
        self.col_request = array("i")
        self.snap: dict = {}
        self.scan_revisions = 0
        self.scan_satisfies = 0
        self._satisfies_depth = 0

    def name_id(self, name: str) -> int:
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return got

    def count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    def call(self, nid: int, fn, args, kwargs):
        parent = self.stack[-1][0] if self.stack else -1
        if self.kept < SPAN_CAP:
            idx = self.kept
            self.kept += 1
            self.col_name.append(nid)
            self.col_parent.append(parent)
            self.col_request.append(self.request)
            self.col_start.append(0.0)
            self.col_end.append(0.0)
        else:
            idx = -1
            self.dropped += 1
        frame = [idx, nid, 0.0, 0.0]
        self.stack.append(frame)
        start = frame[2] = thread_time()
        try:
            return fn(*args, **kwargs)
        finally:
            end = thread_time()
            self.stack.pop()
            dur = end - start
            self.calls[nid] += 1
            self.self_s[nid] += dur - frame[3]
            if self.stack:
                self.stack[-1][3] += dur
            if idx >= 0:
                self.col_start[idx] = start
                self.col_end[idx] = end

    def snapshot(self) -> None:
        """Freeze the exact counters at the end of the counter window."""
        self.snap = {
            "scan_revisions": self.scan_revisions,
            "scan_satisfies": self.scan_satisfies,
            "checked": self.counts.get("operators.instances_checked", 0),
            "skipped": self.counts.get("operators.instances_skipped", 0),
        }

    def write(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("span,name,start_s,end_s,parent,request\n")
            t0 = self.col_start[0] if self.kept else 0.0
            for i in range(self.kept):
                fh.write(f"{i},{self.names[self.col_name[i]]},"
                         f"{self.col_start[i] - t0:.9f},{self.col_end[i] - t0:.9f},"
                         f"{self.col_parent[i]},{self.col_request[i]}\n")


# ---------------------------------------------------------------------------
# Installing the wrappers
# ---------------------------------------------------------------------------

def _span_wrapper(tracer: Tracer, name: str, fn):
    if name in BY_POSTULATE:
        ids: dict = {}

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            p = args[1] if len(args) > 1 else kwargs["p"]
            nid = ids.get(p)
            if nid is None:
                nid = ids[p] = tracer.name_id(f"{name}.{p.value}")
            result = tracer.call(nid, fn, args, kwargs)
            if name == "operators.check_postulate":
                tracer.counts["operators.instances_checked"] = (
                    tracer.counts.get("operators.instances_checked", 0) + result.checked)
                tracer.counts["operators.instances_skipped"] = (
                    tracer.counts.get("operators.instances_skipped", 0) + result.skipped)
            return result
    elif name == "models.choice_revise_via_model":
        nid = tracer.name_id(name)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            before = tracer.counts.get("descriptors.satisfies", 0)
            result = tracer.call(nid, fn, args, kwargs)
            tracer.scan_revisions += 1
            tracer.scan_satisfies += tracer.counts.get("descriptors.satisfies", 0) - before
            return result
    else:
        nid = tracer.name_id(name)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            return tracer.call(nid, fn, args, kwargs)
    return functools.update_wrapper(wrapper, fn)


def _count_wrapper(tracer: Tracer, name: str, fn):
    if name == "descriptors.satisfies":
        def wrapper(*args, **kwargs):
            if not tracer.active or tracer._satisfies_depth:
                return fn(*args, **kwargs)
            tracer.count(name)
            tracer._satisfies_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._satisfies_depth -= 1
    else:
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.count(name)
            return fn(*args, **kwargs)
    return functools.update_wrapper(wrapper, fn)


def install(tracer: Tracer) -> None:
    """Wrap every public function of the measured modules, and METHODS."""
    package = sys.modules["choicerev"]
    modules = [sys.modules[f"choicerev.{m}"] for m in MODULES]
    namespaces = [package] + [
        mod for key, mod in sys.modules.items()
        if key.startswith("choicerev.") and mod is not None
    ]
    wrapped = {}
    for mod in modules:
        short = mod.__name__.split(".")[-1]
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            if name in SKIP:
                continue
            if name in COUNT_ONLY:
                wrapped[fn] = _count_wrapper(tracer, name, fn)
            else:
                wrapped[fn] = _span_wrapper(tracer, name, fn)
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(ns, attr, wrapped[value])
    for table, make in ((METHODS, _span_wrapper), (COUNT_METHODS, _count_wrapper)):
        for mod, cls_name, meth, name in table:
            cls = getattr(sys.modules[f"choicerev.{mod}"], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(make(tracer, name, raw.__func__)))
            else:
                setattr(cls, meth, make(tracer, name, raw))


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def per_layer_metrics(tracer: Tracer, spec: list[dict], extra: dict) -> dict:
    """Values for every per-layer metric named in the benchmark spec.

    `extra` carries the values that come from the workload rather than
    the spans (warm-up time, artifact bytes, traced throughput).
    """
    by_name = {n: (tracer.calls[i], tracer.self_s[i]) for i, n in enumerate(tracer.names)}
    modules = {m: [0, 0.0] for m in MODULES}
    for n, (c, s) in by_name.items():
        mod = n.split(".")[0]
        if mod in modules:
            modules[mod][0] += c
            modules[mod][1] += s
    snap = tracer.snap
    checked, skipped = snap.get("checked", 0), snap.get("skipped", 0)
    derived = {
        "descriptors.satisfies.calls": tracer.counts.get("descriptors.satisfies", 0),
        "believability.holds.calls": tracer.counts.get("believability.holds", 0),
        "models.scan_depth_mean": (snap["scan_satisfies"] / snap["scan_revisions"]
                                   if snap.get("scan_revisions") else 0.0),
        "operators.instances_checked": checked,
        "operators.instances_skipped": skipped,
        "operators.skip_ratio": skipped / (checked + skipped) if checked + skipped else 0.0,
        "trace.spans": tracer.kept + tracer.dropped,
    }
    derived.update(extra)
    out = {}
    for m in spec:
        name = m["name"]
        if name in derived:
            value = derived[name]
        elif name.endswith(".calls") or name.endswith(".self_s"):
            base, field = name.rsplit(".", 1)
            pair = modules.get(base) or by_name.get(base, (0, 0.0))
            value = pair[0] if field == "calls" else pair[1]
        else:
            raise KeyError(f"no source for per-layer metric {name}")
        out[name] = {"value": value, "unit": m["unit"]}
    return out
