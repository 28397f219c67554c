"""Outside-in span tracer for the nlrpb benchmark.

The tracer wraps public functions of the package from outside: every
module namespace under ``nlrpb`` that holds the original function object
gets the wrapper instead, which also catches ``from .x import y``
bindings.  Each call records a span ``[name, layer, start, end, parent,
command, note]`` in memory; spans are written out once, at the end of a
run.  A function that no longer exists is reported as absent rather
than failing the run.
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys
import time

import numpy as np

NAME, LAYER, START, END, PARENT, COMMAND, NOTE = range(7)

# Public functions of each src/nlrpb module, in the order the report lists them.
LAYERS = {
    "linalg": ("jacobi_eigh", "spd_sqrt", "spd_inv_sqrt"),
    "pseudoboson": ("build_system", "build_ladders", "build_metrics", "verify_axioms", "commutator_defect"),
    "cryptoherm": ("verify_chwrt", "hermitize", "from_crypto", "from_nlrpb"),
    "models": ("chebyshev_model", "two_param_model"),
    "serialize": ("load_document", "write_document", "dumps"),
    "cli": ("main",),
}

# numpy.linalg factorizations; calls are counted whether or not jacobi_eigh is used.
NUMPY_FACTORIZATIONS = ("eigh", "eigvalsh", "cholesky", "svd", "inv", "solve", "cond")
NUMPY_EIGENSOLVERS = ("eigh", "eigvalsh")


def _matrix_note(args, kwargs, result):
    a = np.asarray(args[0], dtype=float)
    return (a.shape[0] if a.ndim else 0, hashlib.blake2b(a.tobytes(), digest_size=16).hexdigest())


def _size_note(args, kwargs, result):
    try:
        return os.path.getsize(args[0])
    except OSError:  # a missing input file is one of the rejections
        return 0


def _text_note(args, kwargs, result):
    return len(result) if isinstance(result, str) else 0


def _result_note(args, kwargs, result):
    return result


_NOTES = {
    "jacobi_eigh": _matrix_note,
    "eigh": _matrix_note,
    "eigvalsh": _matrix_note,
    "load_document": _size_note,
    "dumps": _text_note,
    "main": _result_note,
}


class Tracer:
    """Records spans for calls into wrapped functions while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.command = None
        self.absent = []
        self._stack = []
        self._patched = []

    def wrap(self, name, layer, fn):
        note = _NOTES.get(name)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else None, self.command, None]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[END] = clock()
                stack.pop()
                if note is not None:
                    span[NOTE] = note(args, kwargs, result)

        return traced

    def install(self):
        """Wrap every function in LAYERS and the numpy factorizations."""
        self.absent = []
        package = [m for n, m in sorted(sys.modules.items()) if m is not None and (n == "nlrpb" or n.startswith("nlrpb."))]
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"nlrpb.{layer}")
            for name in names:
                original = getattr(home, name, None) if home is not None else None
                if not callable(original):
                    self.absent.append(f"{layer}.{name}")
                    continue
                wrapper = self.wrap(name, layer, original)
                for module in package:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, value, wrapper)
        for name in NUMPY_FACTORIZATIONS:
            original = getattr(np.linalg, name, None)
            if callable(original):
                self._patch(np.linalg, name, original, self.wrap(name, "numpy", original))

    def _patch(self, module, attr, original, wrapper):
        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def self_times(spans):
    """Per-span duration minus the part of it covered by child spans."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append(i)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span[START]
        for j in sorted(children[i], key=lambda k: spans[k][START]):
            lo = max(spans[j][START], cursor)
            hi = min(spans[j][END], span[END])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span[END] - span[START] - covered)
    return out


def _is_eigensolve(span):
    return span[NAME] == "jacobi_eigh" or (span[LAYER] == "numpy" and span[NAME] in NUMPY_EIGENSOLVERS)


def outer_eigensolves(spans):
    """Indices of eigensolve spans not nested inside another eigensolve."""
    out = []
    for i, span in enumerate(spans):
        if not _is_eigensolve(span):
            continue
        parent = span[PARENT]
        while parent is not None and not _is_eigensolve(spans[parent]):
            parent = spans[parent][PARENT]
        if parent is None:
            out.append(i)
    return out


def layer_metrics(spans, groups):
    """Per-layer metrics, each a total over the traced groups divided by ``groups``."""
    own = self_times(spans)
    total = {"linalg.numpy_factorizations": 0}  # always wrapped, so a measured count even at 0

    def add(key, value):
        total[key] = total.get(key, 0.0) + value

    for span, self_s in zip(spans, own):
        name, layer = span[NAME], span[LAYER]
        if layer == "numpy":
            add("linalg.numpy_factorizations", 1)
        else:
            add(f"{layer}.self_s", self_s)
        if layer in ("cryptoherm", "pseudoboson"):
            add(f"{layer}.{name}.calls", 1)
            add(f"{layer}.{name}.self_s", self_s)
        if name in ("spd_sqrt", "spd_inv_sqrt"):
            add("linalg.spd_roots", 1)
        elif name == "load_document":
            add("serialize.load_s", self_s)
            add("serialize.bytes_in", span[NOTE])
        elif name == "dumps":
            add("serialize.dump_s", self_s)
            add("serialize.bytes_out", span[NOTE])
        elif name == "write_document":
            add("serialize.write_s", self_s)
        elif name == "main" and layer == "cli":
            add(f"cli.exit.{span[NOTE]}", 1)

    distinct = set()
    for i in outer_eigensolves(spans):
        span = spans[i]
        n, digest = span[NOTE]
        add("linalg.eigensolves", 1)
        add("linalg.eigensolve_s", span[END] - span[START])
        add("linalg.eigensolve_n3", float(n) ** 3)
        distinct.add((span[COMMAND], digest))
    out = {key: value / groups for key, value in total.items()}
    solves = total.get("linalg.eigensolves", 0)
    out["linalg.eigensolve_distinct_ratio"] = len(distinct) / solves if solves else 0.0
    return out


def eigensolves_per_command(spans):
    """Map command id -> number of outer eigensolves made while it ran."""
    counts = {}
    for i in outer_eigensolves(spans):
        cmd = spans[i][COMMAND]
        counts[cmd] = counts.get(cmd, 0) + 1
    return counts
