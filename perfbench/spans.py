"""Span tracing from outside the package: rebinding, spans in memory, self time.

The package binds some of its functions by name in other modules
(``variants`` imports ``averaged_estimate`` and ``fit_quadratic_set``; the
runners take ``solver=dogleg`` as a keyword default). Replacing the attribute
on the defining module alone would record nothing, so :func:`rebind` replaces
every binding of a function object that it finds in the package: module
globals, class attributes, module-level dict values and function defaults.
Every replacement is undone when the :class:`Rebinder` closes.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager
from types import FunctionType

import numpy as np

_now = time.perf_counter_ns


class Tracer:
    """Spans in memory: name, start, end, parent span and solver-run id."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run = array("q")
        self.run_id = -1
        self._stack: list = []
        self.counters: dict = {}

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def current(self):
        """Name of the innermost open span, or None."""
        if not self._stack:
            return None
        return self.names[self.name_of[self._stack[-1]]]

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name_of.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(_now())
        return i

    def close(self, i: int) -> None:
        self.end[i] = _now()
        if self._stack.pop() != i:
            raise RuntimeError("spans closed out of order")

    @contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    def count(self, key: str, amount) -> None:
        """Add to a counter; only counts made inside a solver run are kept."""
        if self.run_id >= 0:
            self.counters[key] = self.counters.get(key, 0) + amount

    def layer_totals(self) -> dict:
        """name -> {"calls", "self_ns", "total_ns"} over the spans inside solver
        runs (the benchmark's own checks run outside them)."""
        return layer_totals(self.names, self.name_of, self.start, self.end, self.parent,
                            keep=np.asarray(self.run, dtype=np.int64) >= 0)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_ns,end_ns,parent,run\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name_of[i]]},{self.start[i]},"
                         f"{self.end[i]},{self.parent[i]},{self.run[i]}\n")


def layer_totals(names, name_of, start, end, parent, keep=None) -> dict:
    """Per span name: call count, total duration and self time (duration minus
    the time covered by direct children; children of one span never overlap
    because the program is single-threaded). ``keep`` masks the spans counted."""
    name_of = np.asarray(name_of, dtype=np.int64)
    dur = np.asarray(end, dtype=np.int64) - np.asarray(start, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    self_ns = dur - covered
    if keep is not None:
        name_of = np.where(keep, name_of, -1)
    out = {}
    for nid, name in enumerate(names):
        mask = name_of == nid
        out[name] = {"calls": int(mask.sum()),
                     "self_ns": float(self_ns[mask].sum()),
                     "total_ns": float(dur[mask].sum())}
    return out


class Rebinder:
    """Replace every binding of a function inside one package; undo on close."""

    def __init__(self, package: str):
        self.modules = [m for name, m in sorted(sys.modules.items())
                        if m is not None and (name == package or name.startswith(package + "."))]
        self._undo: list = []

    def _classes(self, module):
        for obj in list(vars(module).values()):
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                yield obj

    def rebind(self, original, replacement) -> int:
        """Point every binding of ``original`` at ``replacement``; returns the count."""
        hits = 0
        for module in self.modules:
            namespaces = [module] + list(self._classes(module))
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is original:
                        setattr(ns, key, replacement)
                        self._undo.append((setattr, ns, key, original))
                        hits += 1
            for val in list(vars(module).values()):
                if isinstance(val, dict):
                    for key, item in list(val.items()):
                        if item is original:
                            val[key] = replacement
                            self._undo.append((dict.__setitem__, val, key, original))
                            hits += 1
                elif isinstance(val, FunctionType):
                    hits += self._rebind_defaults(val, original, replacement)
            for cls in self._classes(module):
                for val in list(vars(cls).values()):
                    if isinstance(val, FunctionType):
                        hits += self._rebind_defaults(val, original, replacement)
        return hits

    def _rebind_defaults(self, fn, original, replacement) -> int:
        hits = 0
        if fn.__defaults__ and any(d is original for d in fn.__defaults__):
            old = fn.__defaults__
            fn.__defaults__ = tuple(replacement if d is original else d for d in old)
            self._undo.append((setattr, fn, "__defaults__", old))
            hits += 1
        if fn.__kwdefaults__ and any(d is original for d in fn.__kwdefaults__.values()):
            old = dict(fn.__kwdefaults__)
            fn.__kwdefaults__ = {k: replacement if d is original else d for k, d in old.items()}
            self._undo.append((setattr, fn, "__kwdefaults__", old))
            hits += 1
        return hits

    def close(self) -> None:
        while self._undo:
            setter, target, key, value = self._undo.pop()
            setter(target, key, value)


def spanned(tracer: Tracer, name, fn, on_call=None):
    """Wrap ``fn`` in a span. ``name`` is a string, or a callable taking the
    tracer that picks the name from the enclosing span. ``on_call`` sees the
    arguments, for counters computed from array sizes."""
    pick = name if callable(name) else None

    def wrapper(*args, **kwargs):
        i = tracer.open(pick(tracer) if pick else name)
        try:
            if on_call is not None:
                on_call(tracer, args, kwargs)
            return fn(*args, **kwargs)
        finally:
            tracer.close(i)

    wrapper.__wrapped__ = fn
    return wrapper
