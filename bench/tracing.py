"""Outside-in tracing of the bipers layers, by wrapping public functions.

The library is not edited.  `Tracer.install` replaces every public function
of the bipers modules at every module attribute bound to it: for example
``bipers.classify.minimize`` is the same object as
``bipers.bigraded.minimize``, and both names get the same wrapper.
`Tracer.uninstall` puts the originals back.  A layer is named after the
module that defines the function, so that call is ``bigraded.minimize``.

A span wrapper records (span id, parent span id, module id, phase, name,
start, end) in memory.  Hot helpers that are called per vector or per
degree get count-only wrappers, because timing them would cost more than
the work they do.  A layer's self time is its span's duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("linalg", "bigraded", "resolution", "decomposition", "classify", "cli", "generators")

# Called per vector, per degree or per matrix: counted, never timed.
COUNT_ONLY = frozenset({
    "linalg.check_modulus",
    "linalg.inverse_mod",
    "linalg.is_prime",
    "linalg.reduce_mod_rows",
    "bigraded.is_finite_degree",
    "bigraded.join",
    "bigraded.leq",
})


def _hom_unknowns(M, N):
    return int((M.dims * N.dims).sum())


def _grid_points(pres, box):
    return (int(box[0]) + 1) * (int(box[1]) + 1)


# Work counts read from a call's arguments: (layer, count name, function).
MEASURES = {
    "decomposition.hom_basis": ("unknowns", _hom_unknowns),
    "bigraded.to_grid": ("grid_points", _grid_points),
}


def public_functions():
    """{original function: layer name} for every public bipers function."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"bipers.{layer}")
        for attr, value in vars(mod).items():
            if (
                inspect.isfunction(value)
                and value.__module__ == mod.__name__
                and not attr.startswith("_")
            ):
                found[value] = f"{layer}.{attr}"
    return found


class Tracer:
    """Spans and counts for one traced run; install, run, uninstall."""

    def __init__(self):
        self.names = ["bench.pipeline", "bench.verify"]  # the per-module roots
        self.spans = []  # [id, parent, module, phase, name index, start, end]
        self.counts = defaultdict(Counter)  # phase -> name -> count
        self.stack = []
        self.module = -1
        self.phase = "setup"
        self._patched = []

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[self.phase][name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, name, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if measure is not None:
                self.counts[self.phase][f"{name}.{measure[0]}"] += measure[1](*args, **kwargs)
            record = [len(spans), stack[-1][0] if stack else -1, self.module, self.phase, index, 0.0, 0.0]
            spans.append(record)
            stack.append(record)
            record[5] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[6] = clock()
                stack.pop()

        return spanned

    def install(self):
        wrappers = {}
        for fn, name in public_functions().items():
            if name in COUNT_ONLY:
                wrappers[fn] = self._count_wrapper(name, fn)
            else:
                wrappers[fn] = self._span_wrapper(name, fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "bipers" or mod_name.startswith("bipers.")):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        matrix = importlib.import_module("bipers.linalg").Matrix
        init = matrix.__init__
        self._patched.append((matrix, "__init__", init))
        matrix.__init__ = self._count_wrapper("linalg.matrix_new", init)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def root(self, phase, module):
        """One top-level span per module and phase ("pipeline" or "verify")."""
        self.phase, self.module = phase, module
        record = [len(self.spans), -1, module, phase, self.names.index(f"bench.{phase}"), 0.0, 0.0]
        self.spans.append(record)
        self.stack.append(record)
        record[5] = time.perf_counter()
        try:
            yield
        finally:
            record[6] = time.perf_counter()
            self.stack.pop()
            self.phase, self.module = "setup", -1

    def summary(self, phase):
        """{name: {"calls", "self_s", plus any work counts}} for one phase."""
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for _, parent, _, ph, index, start, end in self.spans:
            if ph != phase:
                continue
            entry = out[self.names[index]]
            entry["calls"] += 1
            entry["self_s"] += end - start
            if parent >= 0:
                out[self.names[self.spans[parent][4]]]["self_s"] -= end - start
        for key, n in self.counts[phase].items():
            layer, _, count = key.rpartition(".")
            if layer in MEASURES:
                out[layer][count] = n
            else:
                out[key]["calls"] = n
        return dict(out)

    def write(self, path):
        """All spans as JSON: a name table and rows of span fields."""
        t0 = self.spans[0][5] if self.spans else 0.0
        rows = [[i, parent, mod, ph, ix, round(s - t0, 7), round(e - t0, 7)]
                for i, parent, mod, ph, ix, s, e in self.spans]
        doc = {
            "fields": ["id", "parent", "module", "phase", "name", "start_s", "end_s"],
            "names": self.names,
            "spans": rows,
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, separators=(",", ":"))
