"""In-memory span tracer for the multilattice benchmark.

``install(trace_dir)`` wraps the public entry points of the traced modules
(``cli`` via the launcher's root span, ``dermod``, ``linalg``, ``poly``,
``explorer``, ``cache`` and ``theorems``).  Every module-level alias of a
wrapped function is rebound too: ``dermod`` imports ``rank`` by name and
``cli`` imports ``exponents`` by name, so patching only the defining module
would miss those calls.

A span is ``[id, parent, name, start, end, extra]`` with ``perf_counter``
times (CLOCK_MONOTONIC on Linux, so comparable across processes).  ``extra``
carries a per-call figure: matrix cells for ``rank``/``nullspace``, 1 for a
cache hit or an ``lru_cache`` miss.  Spans stay in memory and are written
once, at process exit, to ``spans-<pid>.marshal`` in the trace directory.
Process-pool workers inherit the wrappers by fork; the fork hook gives them
an empty span list and writes it from a ``multiprocessing`` finalizer, which
runs when a pool worker exits normally.

``field``, ``lattice`` and ``coxeter`` are not wrapped: their calls are
scalar-sized or set-up only, and a wrapper would distort what it times.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import marshal
import multiprocessing.util
import os
import sys
import time
from pathlib import Path

_clock = time.perf_counter

# (module, attribute, span name, kind).  "Class.method" attributes are
# patched on the class; kind selects what the wrapper records in ``extra``.
TARGETS = [
    ("multilattice.dermod", "exponents", "dermod.exponents", "plain"),
    ("multilattice.dermod", "graded_dimension", "dermod.graded_dimension", "plain"),
    ("multilattice.dermod", "_minimal_degree", "dermod.minimal_degree", "plain"),
    ("multilattice.dermod", "_constraint_rows_basis", "dermod.rows", "plain"),
    ("multilattice.dermod", "_alpha_basis_rows", "dermod.alpha_rows", "lru"),
    ("multilattice.dermod", "_nullspace_derivations", "dermod.nullspace_derivations", "plain"),
    ("multilattice.dermod", "full_basis", "dermod.full_basis", "plain"),
    ("multilattice.dermod", "verify_saito", "dermod.verify_saito", "plain"),
    ("multilattice.dermod", "in_module", "dermod.in_module", "plain"),
    ("multilattice.linalg", "rank", "linalg.rank", "cells"),
    ("multilattice.linalg", "nullspace", "linalg.nullspace", "cells"),
    ("multilattice.linalg", "invert_matrix", "linalg.invert_matrix", "plain"),
    ("multilattice.poly", "saito_determinant", "poly.saito_determinant", "plain"),
    ("multilattice.poly", "defining_polynomial", "poly.defining_polynomial", "plain"),
    ("multilattice.poly", "linear_form_multiplicity", "poly.linear_form_multiplicity", "plain"),
    ("multilattice.poly", "apply_derivation", "poly.apply_derivation", "plain"),
    ("multilattice.explorer", "scan", "explorer.scan", "plain"),
    ("multilattice.explorer", "_solve_point", "explorer.solve_point", "plain"),
    ("multilattice.explorer", "components", "explorer.components", "plain"),
    ("multilattice.explorer", "centers", "explorer.centers", "plain"),
    ("multilattice.explorer", "to_dot", "explorer.to_dot", "plain"),
    ("multilattice.explorer", "to_csv", "explorer.to_csv", "plain"),
    ("multilattice.explorer", "ScanResult.to_json", "explorer.to_json", "plain"),
    ("multilattice.explorer", "ScanResult.from_json", "explorer.from_json", "classmethod"),
    ("multilattice.cache", "ResultCache.put", "cache.put", "plain"),
    ("multilattice.cache", "ResultCache.get", "cache.get", "hit"),
    ("multilattice.cache", "ResultCache._ensure_loaded", "cache.load", "load"),
    ("multilattice.theorems", "check_covering_steps", "theorems.check_covering_steps", "plain"),
    ("multilattice.theorems", "check_ball_structure", "theorems.check_ball_structure", "plain"),
    ("multilattice.theorems", "check_singleton_gaps", "theorems.check_singleton_gaps", "plain"),
    ("multilattice.theorems", "check_basis_step_and_path",
     "theorems.check_basis_step_and_path", "plain"),
    ("multilattice.theorems", "check_independency", "theorems.check_independency", "plain"),
    ("multilattice.theorems", "certify_support", "theorems.certify_support", "plain"),
    ("multilattice.theorems", "certify_centers", "theorems.certify_centers", "plain"),
    ("multilattice.theorems", "reconstruct_components",
     "theorems.reconstruct_components", "plain"),
]


class Recorder:
    """Span stack and span list of one process."""

    def __init__(self, trace_dir=None):
        self.trace_dir = Path(trace_dir) if trace_dir else None
        self.pid = os.getpid()
        self.fork_parent = None  # [pid, span id] current when this process forked
        self.spans = []
        self.stack = []
        self._flushed = False

    def span(self, name):
        return _Span(self, name)

    def wrap(self, fn, name, kind="plain"):
        """A wrapper of ``fn`` that records one span per call."""
        rec = self

        if kind == "load":
            # only a cold load is work; the per-call early return is not traced
            @functools.wraps(fn)
            def wrapper(cache_obj):
                if cache_obj._loaded:
                    return fn(cache_obj)
                with rec.span(name):
                    return fn(cache_obj)
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = rec.spans, rec.stack
            sid = len(spans)
            entry = [sid, stack[-1] if stack else -1, name, 0.0, 0.0, 0]
            spans.append(entry)
            stack.append(sid)
            if kind == "cells":
                rows, ncols = args[0], args[2]
                entry[5] = len(rows) * ncols
            elif kind == "lru":
                misses = fn.cache_info().misses
            entry[3] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                entry[4] = _clock()
                stack.pop()
            if kind == "hit":
                entry[5] = int(result is not None)
            elif kind == "lru":
                entry[5] = fn.cache_info().misses - misses
            return result
        return wrapper

    def after_fork(self):
        self.fork_parent = [self.pid, self.stack[-1] if self.stack else -1]
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self._flushed = False

    def _register_exit_flush(self):
        # multiprocessing clears its finalizer registry in a new child before
        # running its after-fork callbacks, so the finalizer is added here
        multiprocessing.util.Finalize(None, self.flush, exitpriority=100)

    def flush(self):
        if self._flushed or self.trace_dir is None:
            return
        self._flushed = True
        record = {"pid": self.pid, "fork_parent": self.fork_parent, "spans": self.spans}
        path = self.trace_dir / f"spans-{self.pid}.marshal"
        with open(path, "wb") as fh:
            marshal.dump(record, fh)


class _Span:
    __slots__ = ("rec", "name", "entry")

    def __init__(self, rec, name):
        self.rec = rec
        self.name = name

    def __enter__(self):
        rec = self.rec
        sid = len(rec.spans)
        self.entry = [sid, rec.stack[-1] if rec.stack else -1, self.name, 0.0, 0.0, 0]
        rec.spans.append(self.entry)
        rec.stack.append(sid)
        self.entry[3] = _clock()
        return self

    def __exit__(self, *exc):
        self.entry[4] = _clock()
        self.rec.stack.pop()
        return False


def _rebind(orig, wrapper):
    """Point every module-level alias of ``orig`` in the package at ``wrapper``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "multilattice" or modname.startswith("multilattice.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)


def install(trace_dir):
    """Wrap every target, rebind its aliases and arrange the exit-time write."""
    importlib.import_module("multilattice.cli")
    rec = Recorder(trace_dir)
    for modname, attr, name, kind in TARGETS:
        mod = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            if kind == "classmethod":
                orig = cls.__dict__[meth].__func__
                setattr(cls, meth, classmethod(rec.wrap(orig, name)))
            else:
                setattr(cls, meth, rec.wrap(cls.__dict__[meth], name, kind))
        else:
            orig = getattr(mod, attr)
            _rebind(orig, rec.wrap(orig, name, kind))
    atexit.register(rec.flush)
    os.register_at_fork(after_in_child=rec.after_fork)
    multiprocessing.util.register_after_fork(rec, Recorder._register_exit_flush)
    return rec


def load_trace_dir(trace_dir):
    """Every process record written to ``trace_dir``, main process first."""
    records = []
    for path in sorted(Path(trace_dir).glob("spans-*.marshal")):
        with open(path, "rb") as fh:
            records.append(marshal.load(fh))
    records.sort(key=lambda r: (r["fork_parent"] is not None, r["pid"]))
    return records


def self_times(spans):
    """Self time of each span: its duration minus its children's durations."""
    selfs = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[1] >= 0:
            selfs[s[1]] -= s[4] - s[3]
    return selfs


def outermost(spans):
    """Indices of spans with no ancestor of the same name (no double counting)."""
    out = []
    for s in spans:
        p = s[1]
        while p >= 0 and spans[p][2] != s[2]:
            p = spans[p][1]
        if p < 0:
            out.append(s[0])
    return out
