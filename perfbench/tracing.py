"""Span tracing at the monowit module boundaries, applied from outside.

The tracer wraps every public function and every public or dunder method
of the classes defined in each traced module, and rebinds the wrapper
wherever the original is reachable by name: in the defining module, in
every module that imported it by name, and in module-level dicts such as
the suite table. Nothing under ``src/`` is edited.

Every wrapped call records one span (name, start, end, parent) in flat
arrays that stay in memory until the run ends; self time is a span's
duration minus the time its child spans cover. ``exact`` counts (calls of
named functions) are deterministic for a given input, unlike times.
"""

from __future__ import annotations

import functools
import time
from array import array

# Dunders that are not operations on values, or that would recurse.
_SKIP = {"__setattr__", "__repr__", "__new__", "__init_subclass__",
         "__getattribute__", "__getattr__", "__class_getitem__"}


class Tracer:
    def __init__(self, modules):
        self.modules = modules          # {"scalars": module, ...}
        self.names = []                 # name id -> "module.Qual.name"
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._undo = []                 # (class or dict, key, original)
        self._stack = []

    # -- installing -------------------------------------------------------

    def _wrap(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(sid)
            span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[sid] = clock()
                stack.pop()
        return wrapper

    def _set(self, container, key, value):
        if isinstance(container, type):
            self._undo.append((container, key, vars(container)[key]))
            setattr(container, key, value)
        else:
            self._undo.append((container, key, container[key]))
            container[key] = value

    def install(self):
        """Wrap the boundaries; returns self so it can be removed later."""
        replaced = {}                   # id(original function) -> wrapper
        for short, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_")
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                if isinstance(obj, type):
                    self._install_class(short, obj)
                elif callable(obj):
                    replaced[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}"))
        # rebind by-name imports and table entries in every traced module
        for mod in self.modules.values():
            table = vars(mod)
            for attr, obj in list(table.items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(table, attr, hit[1])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        hit = replaced.get(id(val))
                        if hit is not None and hit[0] is val:
                            self._set(obj, key, hit[1])
        return self

    def _install_class(self, short, cls):
        done = {}
        for attr, obj in list(vars(cls).items()):
            dunder = attr.startswith("__") and attr.endswith("__")
            if attr in _SKIP or (attr.startswith("_") and not dunder):
                continue
            kind = None
            if isinstance(obj, (classmethod, staticmethod)):
                kind, fn = type(obj), obj.__func__
            elif callable(obj) and not isinstance(obj, type):
                fn = obj
            else:
                continue
            if id(fn) not in done:      # __radd__ = __add__ shares a wrapper
                done[id(fn)] = self._wrap(fn, f"{short}.{cls.__name__}.{fn.__name__}")
            wrapped = done[id(fn)]
            self._set(cls, attr, kind(wrapped) if kind else wrapped)

    def remove(self):
        for container, key, original in reversed(self._undo):
            if isinstance(container, type):
                setattr(container, key, original)
            else:
                container[key] = original
        self._undo.clear()

    # -- reading ----------------------------------------------------------

    def totals(self):
        """Per name: (calls, total seconds, self seconds), from the spans."""
        start, end, parent, names = (self.span_start, self.span_end,
                                     self.span_parent, self.span_name)
        n = len(start)
        covered = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = names[i]
            d = end[i] - start[i]
            calls[k] += 1
            total[k] += d
            self_s[k] += d - covered[i]
        return {name: (calls[k], total[k], self_s[k])
                for k, name in enumerate(self.names)}

    @property
    def span_count(self) -> int:
        return len(self.span_start)
