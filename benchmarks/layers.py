"""Per-layer instrumentation installed from outside the program.

``Tracer`` wraps the public functions of each layer module (and
``Dolbeault.basis``) and records one span per call: name, start, end,
parent span and task id.  A wrapper is installed in every hodgejump module
namespace that holds the function, because modules import each other's
functions by name (``deform`` does ``from .exterior import differential``).
Spans stay in memory and are written as JSON lines when the pass ends.

``Counter`` wraps the arithmetic dunders of ``GaussianRational``, ``Poly``
and ``Jet`` at class level and counts calls; counts repeat exactly, so they
are reported as counts, never as times.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import time

TRACED_MODULES = ("exterior", "linalg", "deform", "freemod", "manifest", "cli")

# metric prefix -> the span names it sums (outermost call of the group only)
TIME_GROUPS = {
    "manifest.load": ("manifest.load_manifest", "manifest.parse_manifest"),
    "exterior.differential": ("exterior.differential",),
    "exterior.contract": ("exterior.contract",),
    "exterior.deformed_coframe": ("exterior.deformed_coframe",),
    "exterior.validate_spec": ("exterior.validate_spec",),
    "linalg.cohomology": ("linalg.cohomology",),
    "linalg.solve": ("linalg.solve_const",),
    "linalg.rank": ("linalg.rank_const", "linalg.generic_rank", "linalg.specialized_rank"),
    "linalg.kernel": ("linalg.kernel_basis_const", "linalg.kernel_basis"),
    "deform.basis": ("deform.Dolbeault.basis",),
    "deform.mc_extend": ("deform.mc_extend",),
    "deform.extend_class": ("deform.extend_class",),
    "deform.oracle": ("deform.oracle_hodge_at_point",),
    "deform.o1": ("deform.obstruction_o1",),
    "deform.validate_first_order": ("deform.validate_first_order",),
    "freemod.jump_accounting": ("freemod.jump_accounting",),
    "freemod.first_class": ("freemod.classify_first_class",),
    "freemod.second_class": ("freemod.classify_second_class",),
}
TIME_METRICS = tuple(g for g in TIME_GROUPS if g != "deform.validate_first_order")
CALL_METRICS = (
    "manifest.load", "exterior.differential", "linalg.cohomology", "linalg.solve",
    "deform.extend_class", "deform.o1", "deform.validate_first_order",
)
SELF_METRICS = ("deform", "cli")   # summed self time of every span of the layer
MATRIX_FUNCS = {
    "linalg.cohomology", "linalg.solve_const", "linalg.rank_const", "linalg.generic_rank",
    "linalg.specialized_rank", "linalg.kernel_basis_const", "linalg.kernel_basis",
}
JET_SYSTEM_FUNCS = ("linalg.solve_const", "linalg.kernel_basis_const", "linalg.kernel_basis")

COUNTED = {
    "coeff.gr_mul_calls": ("GaussianRational", ("__mul__", "__rmul__")),
    "coeff.gr_add_calls": ("GaussianRational", ("__add__", "__radd__", "__sub__", "__rsub__")),
    "coeff.gr_bool_calls": ("GaussianRational", ("__bool__",)),
    "coeff.gr_inv_calls": ("GaussianRational", ("inv",)),
    "coeff.poly_mul_calls": ("Poly", ("__mul__", "__rmul__")),
    "coeff.jet_mul_calls": ("Jet", ("__mul__", "__rmul__")),
}


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, with its unit."""
    names = [(f"{g}_s", "s") for g in TIME_METRICS]
    names += [(f"{g}_calls", "count") for g in CALL_METRICS]
    names += [(f"{layer}.self_s", "s") for layer in SELF_METRICS]
    names += [
        ("linalg.cohomology_cells", "cells"), ("linalg.cohomology_nnz", "count"),
        ("linalg.cohomology_repeat_frac", "ratio"), ("linalg.kernel_cells", "cells"),
        ("freemod.jet_system_cells", "cells"),
    ]
    names += [(name, "count") for name in COUNTED]
    return names


def _matrices(args):
    return [a for a in args if hasattr(a, "entries") and hasattr(a, "rows")]


def _content_key(mats):
    return tuple((m.rows, m.cols, tuple(map(tuple, m.entries))) for m in mats)


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start_ns, end_ns, parent index, task, attrs]
        self.stack = []
        self.task = None
        self.seen = set()      # content keys of cohomology inputs already traced

    def _wrap(self, func, name):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        with_matrix = name in MATRIX_FUNCS

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            attrs = None
            if with_matrix:
                mats = _matrices(args)
                attrs = {"cells": sum(m.rows * m.cols for m in mats)}
                if name == "linalg.cohomology":
                    key = _content_key(mats)
                    attrs["nnz"] = sum(1 for m in mats for row in m.entries for x in row if x)
                    attrs["repeat"] = key in self.seen
                    self.seen.add(key)
            rec = [name, 0, 0, stack[-1] if stack else -1, self.task, attrs]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return func(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def install(self):
        wrappers = {}
        for short in TRACED_MODULES:
            mod = sys.modules.get(f"hodgejump.{short}")
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[id(obj)] = self._wrap(obj, f"{short}.{name}")
        for modname, mod in list(sys.modules.items()):
            if modname != "hodgejump" and not modname.startswith("hodgejump."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    setattr(mod, name, wrappers[id(obj)])
        dol = sys.modules["hodgejump.deform"].Dolbeault
        dol.basis = self._wrap(dol.basis, "deform.Dolbeault.basis")

    def finish(self, spans_path: str) -> dict:
        """Per-layer metrics of the spans so far; writes them as JSON lines."""
        spans = list(self.spans)
        with open(spans_path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, task, attrs) in enumerate(spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "task": task, "attrs": attrs}) + "\n")
        return layer_metrics(spans)


def layer_metrics(spans) -> dict:
    dur = [s[2] - s[1] for s in spans]
    child = [0] * len(spans)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d

    def has_ancestor_in(i, names):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] in names:
                return True
            p = spans[p][3]
        return False

    out = {}
    for group, names in TIME_GROUPS.items():
        top = [i for i, s in enumerate(spans) if s[0] in names and not has_ancestor_in(i, names)]
        if group in TIME_METRICS:
            out[f"{group}_s"] = sum(dur[i] for i in top) / 1e9
        if group in CALL_METRICS:
            out[f"{group}_calls"] = len(top)
    for layer in SELF_METRICS:
        out[f"{layer}.self_s"] = sum(
            d - c for s, d, c in zip(spans, dur, child) if s[0].startswith(layer + ".")
        ) / 1e9
    coh = [s[5] for s in spans if s[0] == "linalg.cohomology"]
    out["linalg.cohomology_cells"] = sum(a["cells"] for a in coh)
    out["linalg.cohomology_nnz"] = sum(a["nnz"] for a in coh)
    out["linalg.cohomology_repeat_frac"] = (
        sum(a["repeat"] for a in coh) / len(coh) if coh else 0.0
    )
    kernel = TIME_GROUPS["linalg.kernel"]
    out["linalg.kernel_cells"] = sum(
        s[5]["cells"] for i, s in enumerate(spans)
        if s[0] in kernel and not has_ancestor_in(i, kernel)
    )
    out["freemod.jet_system_cells"] = sum(
        s[5]["cells"] for s in spans
        if s[0] in JET_SYSTEM_FUNCS and s[3] >= 0 and spans[s[3]][0].startswith("freemod.")
    )
    return out


class Counter:
    def __init__(self):
        self.task = None
        self.counters = {name: itertools.count() for name in COUNTED}

    def install(self):
        coeff = sys.modules["hodgejump.coeff"]
        for metric, (cls_name, methods) in COUNTED.items():
            cls = getattr(coeff, cls_name)
            tick = self.counters[metric].__next__
            for meth in methods:
                setattr(cls, meth, _counting(getattr(cls, meth), tick))

    def finish(self, _spans_path: str) -> dict:
        """Call counts so far (a counting pass records no spans)."""
        # next() on an itertools.count returns how many times it was ticked
        return {name: next(c) for name, c in self.counters.items()}


def _counting(func, tick):
    @functools.wraps(func)
    def wrapper(*args):
        tick()
        return func(*args)

    return wrapper
