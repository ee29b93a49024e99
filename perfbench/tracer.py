"""In-process trace of tatecalc's layers, installed from outside `src/`.

Two kinds of wrapper share one call stack:

* span wrappers record (id, name, start, end, parent, op) for calls into the
  module-level public functions of the span modules, the verify suites and
  the series kernels;
* aggregate wrappers only count calls and sum self time, for the coefficient
  classes whose methods run 10^4-10^6 times per op.  `Fraction.__new__` is
  counted without timing.

A span's self time is its duration minus what its child spans cover, minus
the self time of aggregate calls made directly under it.  Spans stay in
memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import importlib
import re
import sys
import types
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

SPAN_MODULES = ("cli", "parser", "evaluator", "verify", "tate_h", "tate_k",
                "renorm", "expansions", "series", "basis")
AGG_MODULES = ("multipoly", "laurent")
# classes whose methods get aggregate wrappers
AGG_CLASSES = {
    "multipoly": ("MultiPoly", "RationalFunction"),
    "laurent": ("LaurentPoly",),
    "basis": ("DividedPowerElem", "NumericalPoly"),
    "series": ("TruncSeries",),
    "tate_k": ("TateKElem", "PartialFractionForm"),
    "tate_h": ("GradedTSeries",),
}
# series kernels traced as spans, labelled with the coefficient ring
SERIES_OPS = {"_mul_series": "mul", "inverse": "inverse", "exp": "exp", "log": "log",
              "div_exact": "div_exact"}
# trivial accessors left bare: wrapping them would only measure the wrapper
SKIP_METHODS = {("TruncSeries", "coeff")}
_DUNDERS = {"__init__", "__add__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
            "__pow__", "__eq__", "__truediv__"}


def ring_label(name: str) -> str:
    """Coefficient-ring name as a metric-name fragment: QQ[x,y] -> QQ_x_y."""
    name = name.replace("±", "pm").replace("*", "star").replace("(", "_frac_")
    name = re.sub(r"[\[,^]", "_", name)
    return re.sub(r"[^A-Za-z0-9_.-]", "", name).strip("_")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []      # (id, name, start, end, parent, op, opaque_s)
        self.calls: dict[str, int] = defaultdict(int)
        self.agg_self: dict[str, float] = defaultdict(float)
        self.op = 0
        # frames: [span_id or None, start, child_s, opaque_s]
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []   # (owner, attr, original), in install order

    # -- wrappers ---------------------------------------------------------------

    def _enclosing_span(self):
        for frame in reversed(self._stack):
            if frame[0] is not None:
                return frame
        return None

    def span_wrapper(self, name, fn, label=None):
        tracer = self

        def wrapper(*args, **kwargs):
            full = name if label is None else f"{name}.{label(args)}"
            parent = tracer._enclosing_span()
            tracer._next_id += 1
            frame = [tracer._next_id, perf_counter(), 0.0, 0.0]
            tracer._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.calls[full] += 1
                tracer.spans.append((frame[0], full, frame[1], end,
                                     parent[0] if parent else None, tracer.op, frame[3]))
                if tracer._stack:
                    tracer._stack[-1][2] += end - frame[1]

        wrapper.__wrapped__ = fn
        return wrapper

    def agg_wrapper(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [None, perf_counter(), 0.0, 0.0]
            tracer._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - frame[1]
                tracer._stack.pop()
                own = dur - frame[2]
                tracer.calls[name] += 1
                tracer.agg_self[name] += own
                if tracer._stack:
                    tracer._stack[-1][2] += dur
                    span = tracer._enclosing_span()
                    if span is not None:
                        span[3] += own

        wrapper.__wrapped__ = fn
        return wrapper

    def count_wrapper(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall ------------------------------------------------------

    def _patch(self, owner, attr, new):
        original = owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        _set(owner, attr, new)

    def install(self):
        mods = {m: importlib.import_module(f"tatecalc.{m}")
                for m in SPAN_MODULES + AGG_MODULES}
        replaced: dict[int, tuple] = {}   # id(original) -> (original, wrapper)

        for m, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != mod.__name__):
                    continue
                key = f"{m}.{attr}"
                wrapped = (self.span_wrapper(key, fn) if m in SPAN_MODULES
                           else self.agg_wrapper(key, fn))
                replaced[id(fn)] = (fn, wrapped)
                self._patch(mod, attr, wrapped)

        suites = mods["verify"]._SUITES
        for suite, fn in list(suites.items()):
            self._patch(suites, suite, self.span_wrapper(f"verify.{suite}", fn))

        for m, classes in AGG_CLASSES.items():
            for cname in classes:
                cls = getattr(mods[m], cname)
                for attr, raw in list(vars(cls).items()):
                    if (cname, attr) in SKIP_METHODS:
                        continue
                    if m == "series" and attr in SERIES_OPS:
                        wrapped = self.span_wrapper(
                            f"series.{SERIES_OPS[attr]}", raw,
                            label=lambda args: ring_label(args[0].ring.name))
                        self._patch(cls, attr, wrapped)
                        continue
                    if attr.startswith("_") and attr not in _DUNDERS:
                        continue
                    key = f"{m}.{cname}.{attr.strip('_')}"
                    if isinstance(raw, (classmethod, staticmethod)):
                        wrapped = type(raw)(self.agg_wrapper(key, raw.__func__))
                    elif isinstance(raw, types.FunctionType):
                        wrapped = self.agg_wrapper(key, raw)
                    else:
                        continue
                    self._patch(cls, attr, wrapped)

        # names imported with `from .x import f` hold their own references
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if not (name == "tatecalc" or name.startswith("tatecalc.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = replaced.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(mod, attr, hit[1])

        self._patch(Fraction, "__new__",
                    staticmethod(self.count_wrapper("fractions.Fraction.new",
                                                    Fraction.__dict__["__new__"].__func__)))
        return self

    def uninstall(self):
        while self._patches:
            _set(*self._patches.pop())


# -- analysis -------------------------------------------------------------------


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def span_self_times(spans) -> dict[int, float]:
    """span id -> duration minus child-span coverage minus opaque time."""
    children = defaultdict(list)
    for sid, _name, start, end, parent, _op, _opaque in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _name, start, end, _parent, _op, opaque in spans:
        kids = [(max(s, start), min(e, end)) for s, e in children.get(sid, ()) if e > start and s < end]
        out[sid] = (end - start) - _covered(kids) - opaque
    return out
