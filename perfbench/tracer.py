"""Spans and counts around the public functions of every troptree module.

``Tracer.install`` replaces each public function of the package's modules,
under every name it is bound to (``troptree.trees.topology_of``,
``troptree.treespace.topology_of``, ``troptree.topology_of``, ...), by a
wrapper that records one span per call: name, start, end and the span that
was open when it was called.  The small helpers of ``troptree.util`` and
generator functions are only counted, because a span around a call of a
microsecond would mostly measure the tracer.  Two methods on the hot path
are wrapped too: ``TreeSegment.to_csv`` and the ``TropicalSegment.bend_points``
cached property.  ``uninstall`` puts the originals back.

Spans are appended to flat arrays and reduced only in ``summary``; nothing
in ``src/`` changes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

MODULES = ("newick", "trees", "tropical", "treespace", "sim", "util", "cli")
COUNT_ONLY_MODULES = ("util",)
METHODS = (("treespace", "TreeSegment", "to_csv", "treespace.to_csv"),
           ("tropical", "TropicalSegment", "bend_points", "tropical.bend_points"))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.fine_reruns = 0
        self._restore: list = []

    # -- wrappers ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, fn, name: str, on_call=None):
        nid = self._id(name)
        names, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
        return wrapper

    def _count(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _note_segment_tol(self, fine_tol: float):
        def on_call(args, kwargs):
            tol = kwargs.get("tol", args[2] if len(args) > 2 else None)
            if tol == fine_tol:
                self.fine_reruns += 1
        return on_call

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public function of the package's modules, in every
        namespace that binds it."""
        mods = [sys.modules[f"{package.__name__}.{m}"] for m in MODULES]
        spaces = mods + [package]
        wrapped: dict[int, object] = {}
        fine_tol = package.DEFAULT_TOL / 100
        for mod in mods:
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{mod.__name__.rsplit('.', 1)[1]}.{obj.__name__}"
                if mod.__name__.rsplit(".", 1)[1] in COUNT_ONLY_MODULES \
                        or inspect.isgeneratorfunction(obj):
                    wrapped[id(obj)] = self._count(obj, name)
                elif name == "treespace.tree_segment":
                    wrapped[id(obj)] = self._span(obj, name, self._note_segment_tol(fine_tol))
                else:
                    wrapped[id(obj)] = self._span(obj, name)
        for space in spaces:
            for attr, obj in list(vars(space).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._restore.append((space, attr, obj))
                    setattr(space, attr, wrapped[id(obj)])
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[f"{package.__name__}.{mod_name}"], cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, functools.cached_property):
                new = functools.cached_property(self._span(original.func, name))
                new.__set_name__(cls, attr)
            else:
                new = self._span(original, name)
            self._restore.append((cls, attr, original))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for space, attr, obj in reversed(self._restore):
            setattr(space, attr, obj)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name_id": np.array(self.name_id, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int32),
                "start": np.array(self.start, dtype=float),
                "end": np.array(self.end, dtype=float)}

    def summary(self) -> dict[str, dict]:
        """Per name: calls and self time (span length minus the time its
        child spans cover), plus the counted-only names."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        own = dur - covered
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        self_s = np.bincount(a["name_id"], weights=own, minlength=k)
        out = {name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
               for i, name in enumerate(self.names)}
        for name, c in self.counts.items():
            out[name] = {"calls": c, "self_s": 0.0}
        # trees rebuilt by treespace: agglomerate spans opened under a treespace span
        agg = self._ids.get("trees.agglomerate")
        ts_ids = [i for i, nm in enumerate(self.names) if nm.startswith("treespace.")]
        if agg is not None and ts_ids:
            par = a["parent"][a["name_id"] == agg]
            par = par[par >= 0]
            rebuilt = int(np.isin(a["name_id"][par], ts_ids).sum())
        else:
            rebuilt = 0
        out["treespace.trees_rebuilt"] = {"calls": rebuilt, "self_s": 0.0}
        out["sim.nni.fine_reruns"] = {"calls": self.fine_reruns, "self_s": 0.0}
        return out

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
