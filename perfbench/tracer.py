"""In-memory span tracer that wraps public module functions from outside
the package.

``Tracer.patch`` replaces a module attribute with a wrapper that records an
entry event (name, time) and an exit event per call; ``Tracer.count``
replaces it with a wrapper that only counts calls, for functions called
thousands of times per operation.  A function imported by name into another
module lives under that module's name too, so each binding that the code
looks up at call time is patched separately.  ``restore`` puts every
original back.  ``table`` turns the events into spans (name, start, end,
parent) once tracing is over, which keeps the per-call cost to two appends
per event.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter_ns

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name index, ns) on entry and (-1, ns) on exit, flattened
        self.events = array("q")
        self.counts: dict[str, list[int]] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, fn, name: str):
        """Return ``fn`` wrapped so that each call records one span."""
        nid = self._intern(name)
        put = self.events.append

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            put(nid)
            put(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                put(-1)
                put(perf_counter_ns())

        return traced

    def _replace(self, module, attr: str, wrapper) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def patch(self, name: str, *bindings) -> None:
        """Record a span named ``name`` for every call made through any of
        ``bindings``, each a (module, attribute) pair naming one function."""
        for module, attr in bindings:
            self._replace(module, attr, self.span(getattr(module, attr), name))

    def count(self, name: str, *bindings) -> None:
        """Count calls made through ``bindings`` without recording spans."""
        cell = self.counts.setdefault(name, [0])
        for module, attr in bindings:
            fn = getattr(module, attr)

            def counted(*args, _fn=fn, **kwargs):
                cell[0] += 1
                return _fn(*args, **kwargs)

            self._replace(module, attr, functools.wraps(fn)(counted))

    def calls(self, name: str) -> int:
        return self.counts.get(name, [0])[0]

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def table(self):
        """Every closed span, in order of entry, as numpy columns: name
        index, parent span index (-1 at the root), start and end [ns]."""
        ev = np.array(self.events, dtype=np.int64).reshape(-1, 2)
        kind, t = ev[:, 0], ev[:, 1]
        enter = kind >= 0
        depth = np.cumsum(np.where(enter, 1, -1))
        level = np.where(enter, depth, depth + 1)
        # Within one nesting level, each entry is followed by its own exit.
        order = np.lexsort((np.arange(len(kind)), level))
        ent, ext = order[0::2], order[1::2]
        by_entry = np.argsort(ent)
        ent, ext = ent[by_entry], ext[by_entry]
        span_level = level[ent]
        parent = np.full(len(ent), -1, dtype=np.int64)
        for lv in np.unique(span_level[span_level > 1]):
            child = np.nonzero(span_level == lv)[0]
            above = np.nonzero(span_level == lv - 1)[0]
            parent[child] = above[np.searchsorted(ent[above], ent[child]) - 1]
        return kind[ent].astype(np.int32), parent, t[ent], t[ext]

    def durations(self):
        """Name index, parent index, duration [s] and self time [s] of every
        span; self time is the duration minus what direct children cover."""
        name, parent, start, end = self.table()
        dur = (end - start) * 1e-9
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return name, parent, dur, dur - child

    def write(self, path) -> None:
        """Write every span (name, start, end, parent) to a compressed
        ``.npz`` file."""
        name, parent, start, end = self.table()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            parent=parent, start_ns=start, end_ns=end)
