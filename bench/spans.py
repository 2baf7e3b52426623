"""Spans around calls into each layer, recorded from outside the library.

``Tracer.install`` replaces each traced function by a wrapper under every
name where callers look it up: the defining module and every module that
imported it with ``from``, such as ``factor.quat_gcd`` for ``euclid.gcd``.
``OrderElement.__mul__`` and ``OrderElement.norm`` are only counted, since
a timer around a microsecond operation would dominate it.

A span is (name, start_ns, end_ns, parent, op, mul0, mul1, arg): parent is
the index of the enclosing span or -1, op the index of the operation that
caused it, mul0/mul1 the multiplication counter at entry and exit, and arg
the argument of ``intarith.factorize`` (None elsewhere).  Spans stay in
memory until ``write``.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

from quat1122.core import OrderElement

#: Traced functions, by module, named as "<module>.<function>".
TRACED = {
    "euclid": ("div_rem", "gcd"),
    "dyadic": ("primary_associate", "valuation_1pi"),
    "intarith": ("factorize", "is_prime", "sigma"),
    "modm": ("solve_rs", "tau"),
    "factor": ("full_factor", "factor_primitive", "primary_primes_of_norm"),
    "repcount": ("rep_counts_upto", "rep_count_formula", "rep_count_oracle",
                 "enumerate_norm_solutions"),
    "cli": ("main",),
}
_KEEP_ARG = {"intarith.factorize"}
FIELDS = ("name", "start_ns", "end_ns", "parent", "op", "mul0", "mul1", "arg")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1
        self.counts = {"core.mul": 0, "core.norm": 0}
        self._stack: list[int] = []
        self._patches: list = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "quat1122" or name.startswith("quat1122.")]
        for mod_name, funcs in TRACED.items():
            module = sys.modules[f"quat1122.{mod_name}"]
            for func in funcs:
                original = getattr(module, func)
                wrapper = self._span(f"{mod_name}.{func}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        for attr, key in (("__mul__", "core.mul"), ("norm", "core.norm")):
            original = getattr(OrderElement, attr)
            self._patches.append((OrderElement, attr, original))
            setattr(OrderElement, attr, self._counter(key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    def _span(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        keep_arg = name in _KEEP_ARG
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            mul0 = counts["core.mul"]
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, mul0,
                                counts["core.mul"], args[0] if keep_arg else None)

        return traced

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": FIELDS, "counts": self.counts, "spans": self.spans}, fh)


def layer_metrics(spans: list, counts: dict) -> dict:
    """Per-layer counts, self times and work ratios from a finished trace.

    Self time is a span's duration minus the durations of its direct
    children; calls nest strictly, so children never overlap.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    total_ns = defaultdict(int)
    muls = defaultdict(int)
    gcd_div_rems = 0
    factored: dict[int, set] = defaultdict(set)
    repeats = 0
    for index, (name, start, end, parent, op, mul0, mul1, arg) in enumerate(spans):
        calls[name] += 1
        total_ns[name] += end - start
        self_ns[name] += end - start - child_ns[index]
        muls[name] += mul1 - mul0
        if name == "euclid.div_rem":
            while parent >= 0 and spans[parent][0] != "euclid.gcd":
                parent = spans[parent][3]
            gcd_div_rems += parent >= 0
        elif name == "intarith.factorize":
            repeats += arg in factored[op]
            factored[op].add(arg)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {"core.mul.calls": counts["core.mul"], "core.norm.calls": counts["core.norm"]}
    for mod_name, funcs in TRACED.items():
        for func in funcs:
            name = f"{mod_name}.{func}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_ns[name] / 1e9
            out[f"{name}.total_s"] = total_ns[name] / 1e9
    for name in ("euclid.div_rem", "dyadic.primary_associate"):
        out[f"{name}.mul_per_call"] = ratio(muls[name], calls[name])
    out["euclid.gcd.div_rem_per_call"] = ratio(gcd_div_rems, calls["euclid.gcd"])
    out["intarith.factorize.repeat_ratio"] = ratio(repeats, calls["intarith.factorize"])
    return out
