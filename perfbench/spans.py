"""Outside-in tracing: time calls into each opspace module from the benchmark's side.

``Tracer.install`` replaces every public function of each module at its module
attribute, plus the references that modules keep elsewhere (``spaces.ORACLES``,
``criteria.CRITERION_RUNNERS``); ``_Engine`` reads ``matcore.op_norm_fibers``
when it is constructed, so it picks the wrapper up by itself.  The objective
callable handed to ``witness.maximize_violation`` and ``witness.refine_witness``
is wrapped as well and its batches are classified by shape.

A corpus pass opens about a million spans, so spans are folded into per-name
totals as they close: a span's parent is the frame below it on the stack, and
its self time is its duration minus the time its direct children cover.  The
stack is shared, so trace single-threaded code only (the benchmark times the
two-thread corpus run untraced).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import defaultdict

import numpy as np

LAYERS = ("matcore", "spaces", "gadgets", "witness", "criteria", "corpus", "formulas", "cli")

#: Objective batches: 4-D is a batch of restart starts, 5-D with 4*n^2*k points
#: per restart is a finite-difference gradient probe, 3 or 7 a line search.
START, GRAD, LINE, OTHER = "start", "grad", "line", "other"


def svd_work(shape, fiber=None) -> tuple[int, float]:
    """(matrices, computed flops) for the singular values of an (..., r, c) complex stack.

    Flops are derived from array sizes, not measured: Golub-Kahan
    bidiagonalization of an m x n real matrix (m >= n) costs 4mn^2 - 4n^3/3,
    and complex arithmetic counts four times that.  A single row or column is
    one Euclidean norm, 8 flops per entry.
    """
    *lead, r, c = shape
    count = math.prod(lead)
    if fiber and fiber > 1 and r % fiber == 0 and c % fiber == 0:
        count, r, c = count * fiber, r // fiber, c // fiber
    m, n = max(r, c), min(r, c)
    per = 8.0 * m if n == 1 else 4.0 * (4.0 * m * n * n - 4.0 * n ** 3 / 3.0)
    return count, count * per


def classify_batch(coeffs) -> str:
    shape = np.shape(coeffs)
    if len(shape) == 4:
        return START
    if len(shape) == 5:
        n, k = shape[-3], shape[-1]
        if shape[1] == 4 * n * n * k:
            return GRAD
        if shape[1] in (3, 7):
            return LINE
    return OTHER


class Tracer:
    """Per-name span totals (calls, inclusive and self seconds), self time per layer, and counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []  # frames [name, layer, child_time]
        self._undo = []

    # -- span bookkeeping --------------------------------------------------

    def span(self, name: str, layer: str, fn):
        """Wrap ``fn`` so that every call records a span named ``name``."""
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, layer, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][2] += dur
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += dur - frame[2]
                self.layer_self[layer] += dur - frame[2]

        return traced

    def _patch(self, owner, key, value):
        if isinstance(owner, dict):
            old = owner[key]
            owner[key] = value
            self._undo.append(lambda: owner.__setitem__(key, old))
        else:
            old = getattr(owner, key)
            setattr(owner, key, value)
            self._undo.append(lambda: setattr(owner, key, old))

    # -- installation ------------------------------------------------------

    def install(self, opspace):
        """Wrap the public functions of every layer module of ``opspace``."""
        modules = {layer: importlib.import_module(f"{opspace.__name__}.{layer}") for layer in LAYERS}
        originals = {}
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                originals[fn] = f"{layer}.{attr}"
                self._patch(mod, attr, self.span(f"{layer}.{attr}", layer, self._extend(layer, attr, fn)))
        for owner, table in (("spaces", modules["spaces"].ORACLES),
                             ("criteria", modules["criteria"].CRITERION_RUNNERS)):
            for key, fn in list(table.items()):
                layer, attr = originals.get(fn, f"{owner}.{key}").split(".", 1)
                self._patch(table, key, self.span(f"{layer}.{attr}", layer, self._extend(layer, attr, fn)))
        return self

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def _extend(self, layer, attr, fn):
        """Add per-call counters to the functions whose work the metrics size."""
        if layer == "matcore" and attr in ("op_norm_stack", "op_norm_fibers", "trace_norm_stack"):
            key = f"matcore.{attr}"

            @functools.wraps(fn)
            def counted(ms, fiber=None):
                shape = np.shape(ms)
                matrices, flops = svd_work(shape, None if attr == "op_norm_fibers" else fiber)
                self.counts[key + ".matrices"] += matrices
                self.counts[key + ".flop"] += flops
                self.counts[key + ".bytes"] += 16.0 * math.prod(shape)
                return fn(ms) if attr == "op_norm_fibers" else fn(ms, fiber=fiber)

            return counted
        if layer == "witness" and attr in ("maximize_violation", "refine_witness"):

            @functools.wraps(fn)
            def with_objective(objective, *args, **kwargs):
                return fn(self.objective(objective), *args, **kwargs)

            return with_objective
        return fn

    def objective(self, objective):
        """Wrap one objective callable; its self time is criteria code (the objectives live there)."""
        spans = {kind: self.span(f"witness.objective.{kind}", "criteria", objective)
                 for kind in (START, GRAD, LINE, OTHER)}

        def traced(coeffs):
            kind = classify_batch(coeffs)
            self.counts[f"witness.objective.{kind}_evals"] += math.prod(np.shape(coeffs)[:-3])
            return spans[kind](coeffs)

        return traced

    # -- results -----------------------------------------------------------

    def kind_time(self, kind: str) -> float:
        return self.total.get(f"witness.objective.{kind}", 0.0)
