"""Outside-in layer tracer for vertexcalc.

The tracer wraps the public entry points of each vertexcalc module from
outside; nothing under src/ knows about it.  Module functions are
rebound in the defining module and in every vertexcalc module that
imported them by name, and the series operators are replaced on their
classes.  Each wrapped call is a span on a per-thread stack, so a span's
self time is its duration minus the time of the spans it caused.  A call
made while a span of the same group is already open on the thread is
counted but not timed again (recursion stays inside the outer span).

The one private hook is series._exact_div, which additionally counts the
attempts that succeed.  kadd/trim-level helpers are left alone: they run
millions of times and would drown the measurement in wrapper cost.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
from time import perf_counter

# Modules whose public functions are wrapped, each one layer.
MODULE_LAYERS = ("partitions", "schur", "prodred", "vertex", "fcoeff", "ksum",
                 "nekrasov", "cli")

# Series operators, by class, mapped to the group they are counted under.
SERIES_METHODS = {
    "LaurentPoly": {
        "__mul__": "poly_mul", "__rmul__": "poly_mul", "__pow__": "poly_pow",
        "__add__": "poly_add", "__radd__": "poly_add", "__sub__": "poly_add",
        "__rsub__": "poly_add", "__neg__": "poly_add",
    },
    "LaurentFraction": {
        "__mul__": "fraction_mul", "__rmul__": "fraction_mul",
        "__truediv__": "fraction_div", "__rtruediv__": "fraction_div",
        "__pow__": "fraction_pow",
        "__add__": "fraction_add", "__radd__": "fraction_add",
        "__sub__": "fraction_add", "__rsub__": "fraction_add",
        "__neg__": "fraction_add", "__eq__": "fraction_eq",
    },
    "QSeries": {"__mul__": "qseries_mul", "exp": "qseries_mul",
                "__add__": "qseries_add", "__sub__": "qseries_add",
                "__eq__": "qseries_eq"},
    "MultiQSeries": {"__mul__": "qseries_mul", "__add__": "qseries_add",
                     "__sub__": "qseries_add", "__eq__": "qseries_eq"},
    "MultiPoly": {"__mul__": "multipoly_mul", "__add__": "multipoly_add",
                  "__sub__": "multipoly_add"},
}
SERIES_FUNCS = {"expand_in_q": "expand_in_q", "expand_in_q_multi": "expand_in_q"}

# The renderers call each other, so they share one group: its total time
# then counts each outermost render once.
GROUP_ALIASES = {f"cli.{name}": "cli.render" for name in
                 ("poly_str", "fraction_str", "qseries_str", "expansion_str")}


class Tracer:
    """Per-thread span stacks and per-group counters: calls, hits, self, total."""

    def __init__(self):
        self._lock = threading.Lock()
        self._tables = []
        tracer = self

        class _Local(threading.local):
            def __init__(self):
                self.stack = []
                self.stats = {}
                with tracer._lock:
                    tracer._tables.append(self.stats)

        self._local = _Local()

    def _stat(self, group):
        stats = self._local.stats
        st = stats.get(group)
        if st is None:
            # calls, hits, self seconds, total seconds, open depth
            st = stats[group] = [0, 0, 0.0, 0.0, 0]
        return st

    def span(self, group, fn, count_hits=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._stat(group)
            st[0] += 1
            if st[4]:
                out = fn(*args, **kwargs)
                if count_hits and out is not None:
                    st[1] += 1
                return out
            stack = self._local.stack
            stack.append(0.0)
            st[4] = 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                st[4] = 0
                st[2] += dt - stack.pop()
                st[3] += dt
                if stack:
                    stack[-1] += dt
            if count_hits and out is not None:
                st[1] += 1
            return out

        return wrapper

    def gen_span(self, group, fn):
        """Span for a generator function: each resumption is timed."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._stat(group)
            st[0] += 1
            it = fn(*args, **kwargs)
            if st[4]:
                return it
            return self._timed_iter(st, it)

        return wrapper

    def _timed_iter(self, st, it):
        stack = self._local.stack
        while True:
            stack.append(0.0)
            st[4] = 1
            t0 = perf_counter()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                dt = perf_counter() - t0
                st[4] = 0
                st[2] += dt - stack.pop()
                st[3] += dt
                if stack:
                    stack[-1] += dt
            yield item

    def install(self):
        """Wrap every entry point; vertexcalc.cli must already be imported."""
        mods = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                if name.startswith("vertexcalc.") and mod is not None}
        replaced = {}
        for layer in MODULE_LAYERS:
            mod = mods[layer]
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                group = f"{layer}.{name}"
                group = GROUP_ALIASES.get(group, group)
                wrap = self.gen_span if inspect.isgeneratorfunction(obj) else self.span
                replaced[obj] = wrap(group, obj)
        series = mods["series"]
        for name, short in SERIES_FUNCS.items():
            obj = getattr(series, name)
            replaced[obj] = self.span(f"series.{short}", obj)
        div = series._exact_div
        replaced[div] = self.span("series.exact_div", div, count_hits=True)
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, name, replaced[obj])
        for cls_name, methods in SERIES_METHODS.items():
            cls = getattr(series, cls_name)
            for meth, short in methods.items():
                if meth in vars(cls):
                    setattr(cls, meth, self.span(f"series.{short}", vars(cls)[meth]))

    def groups(self) -> dict:
        """Merged counters of every thread: group -> (calls, hits, self_s, total_s)."""
        out: dict = {}
        with self._lock:
            for stats in self._tables:
                for group, st in stats.items():
                    acc = out.setdefault(group, [0, 0, 0.0, 0.0])
                    for i in range(4):
                        acc[i] += st[i]
        return out


def memo_tables() -> dict:
    """Entries in every *_CACHE dict of the loaded vertexcalc modules."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if not name.startswith("vertexcalc.") or mod is None:
            continue
        short = name.split(".", 1)[1]
        for attr, val in vars(mod).items():
            if attr.endswith("_CACHE") and isinstance(val, dict):
                out[f"{short}.{attr}"] = len(val)
    return out
