"""Spans and counts around the calls into each layer of `ucz`.

The program carries no instrumentation of its own, so the traced run
replaces the public functions of each layer with wrappers from this file.
A wrapped function F of layer X records one span (name, start, end,
parent) per call and reports `X.F.calls` and `X.F.self_s`, the span time
not covered by child spans.  Constructors are counted, not timed: their
time stays in the span that called them.  `fractions.new.calls` counts
the `Fraction` objects built.  Constructors and `Fraction` objects count
only while some span is open, so the benchmark's own input generation
and checks do not inflate them.

Names re-imported into other modules (`suites.conjugate`,
`kostant.kernel`, ...) are replaced wherever the original object sits.
A call that re-enters the function that is already innermost (for
example `contains` calling `reduce`, both counted as `exactlin.contains`)
folds into the open span instead of opening a second one.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time
from fractions import Fraction

LAYERS = ("exactlin", "liealg", "kostant", "wonderful", "logsympl", "suites", "cli")

# metric name -> (module, attribute paths that count as this function)
TIMED = {
    "exactlin.matmul": ("exactlin", ("Mat.__mul__",)),
    "exactlin.apply": ("exactlin", ("Mat.apply",)),
    "exactlin.inverse": ("exactlin", ("Mat.inverse",)),
    "exactlin.det": ("exactlin", ("Mat.det",)),
    "exactlin.rank": ("exactlin", ("rank",)),
    "exactlin.rref": ("exactlin", ("rref",)),
    "exactlin.kernel": ("exactlin", ("kernel",)),
    "exactlin.intersect": ("exactlin", ("Subspace.intersect",)),
    "exactlin.contains": (
        "exactlin",
        ("Subspace.contains", "Subspace.reduce", "Subspace.coefficients"),
    ),
    "exactlin.projector_apply": ("exactlin", ("Projector.apply",)),
    "liealg.bracket": ("liealg", ("LieAlgebra.bracket",)),
    "liealg.ad": ("liealg", ("LieAlgebra.ad",)),
    "liealg.centralizer": ("liealg", ("LieAlgebra.centralizer", "LieAlgebra.is_regular")),
    "liealg.exp_ad_apply": ("liealg", ("LieAlgebra.exp_ad_apply",)),
    "liealg.realize": ("liealg", ("LieAlgebra.realize",)),
    "liealg.from_matrix": ("liealg", ("LieAlgebra.from_matrix",)),
    "liealg.conjugate": ("liealg", ("conjugate",)),
    "liealg.group_exp": ("liealg", ("LieAlgebra.group_exp",)),
    "kostant.slice_normalize": ("kostant", ("slice_normalize",)),
    "kostant.invariants_eval": (
        "kostant",
        ("invariants_eval", "InvariantSystem.eval", "InvariantSystem.eval_dual"),
    ),
    "kostant.slice_from_invariants": ("kostant", ("slice_from_invariants",)),
    "kostant.jacobian_rank_at": ("kostant", ("jacobian_rank_at",)),
    "wonderful.build_parabolic": ("wonderful", ("build_parabolic",)),
    "wonderful.fiber_algebra": ("wonderful", ("fiber_algebra",)),
    "wonderful.make_boundary_point": ("wonderful", ("make_boundary_point",)),
    "wonderful.translate_contains": ("wonderful", ("translate_contains",)),
    "wonderful.torus_fixed_fiber_points": ("wonderful", ("torus_fixed_fiber_points",)),
    "logsympl.bivector_matrix": ("logsympl", ("bivector_matrix",)),
    "logsympl.omega_matrix": ("logsympl", ("omega_matrix",)),
    "logsympl.stratum_rank": ("logsympl", ("stratum_rank",)),
    "logsympl.casimir_check": ("logsympl", ("casimir_check",)),
    "logsympl.leaf_label": ("logsympl", ("leaf_label",)),
    "logsympl.same_leaf": ("logsympl", ("same_leaf",)),
    "logsympl.leaf_sigma_values": ("logsympl", ("leaf_sigma_values",)),
    "logsympl.level_set_normalize": ("logsympl", ("level_set_normalize",)),
    "logsympl.nxn_freeness": ("logsympl", ("nxn_freeness",)),
    "suites.borel_sample": ("suites", ("borel_sample",)),
    "suites.group_sample": ("suites", ("group_sample",)),
    "suites.fiber_sample": ("suites", ("fiber_sample",)),
    "suites.run_suite": ("suites", ("run_suite",)),
    "cli.main": ("cli", ("main",)),
}

COUNTED = {
    "exactlin.mat_new": ("exactlin", "Mat.__init__"),
    "exactlin.subspace_new": ("exactlin", "Subspace.__init__"),
    "liealg.element_new": ("liealg", "Element.__init__"),
    "liealg.group_new": ("liealg", "GroupElement.__init__"),
}

FRACTIONS = "fractions.new.calls"


class Tracer:
    """Installs the wrappers and keeps every span in memory until the end."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.calls = dict.fromkeys(list(TIMED) + list(COUNTED), 0)
        self._fractions = itertools.count()

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"ucz.{layer}") for layer in LAYERS}
        for name, (layer, paths) in TIMED.items():
            for path in paths:
                owner, attr, original = _resolve(modules[layer], path)
                wrapper = self._timed(name, original)
                if owner is modules[layer]:
                    # module function: replace it in every module that imported it
                    for mod in modules.values():
                        if getattr(mod, attr, None) is original:
                            setattr(mod, attr, wrapper)
                else:
                    setattr(owner, attr, wrapper)
        for name, (layer, path) in COUNTED.items():
            owner, attr, original = _resolve(modules[layer], path)
            setattr(owner, attr, self._counted(name, original))
        self._count_fractions()

    def _timed(self, name: str, fn):
        spans, stack, calls = self.spans, self.stack, self.calls
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            calls[name] += 1
            index = len(spans)
            spans.append(None)
            stack.append((name, index))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, stack[-1][1] if stack else -1)

        return wrapper

    def _counted(self, name: str, fn):
        stack, calls = self.stack, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_fractions(self) -> None:
        stack, counter = self.stack, self._fractions
        original = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            if stack:
                next(counter)
            return original(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counting_new)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-function calls and self time, per-layer self time, Fraction count."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns = dict.fromkeys(TIMED, 0)
        for i, (name, start, end, _) in enumerate(self.spans):
            self_ns[name] += end - start - child_ns[i]
        # itertools.count hands out 0, 1, 2, ...: the next value is the total so far
        out = {FRACTIONS: (next(self._fractions), "count")}
        for name in COUNTED:
            out[f"{name}.calls"] = (self.calls[name], "count")
        for name in TIMED:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self_ns[name] / 1e9, "s")
        for layer in LAYERS:
            total = sum(ns for name, ns in self_ns.items() if name.startswith(layer + "."))
            out[f"{layer}.self_s"] = (total / 1e9, "s")
        return out

    def write_spans(self, path) -> None:
        """One line per span: name, start ns, end ns, index of the parent span (-1: none)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start}\t{end}\t{parent}\n")


def _resolve(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    return owner, attr, getattr(owner, attr)
