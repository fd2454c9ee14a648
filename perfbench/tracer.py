"""Span tracing of the package's public functions, from outside the package.

``Tracer.install`` wraps every public function and public method defined in a
``taskadc`` module, in every ``taskadc`` namespace that binds it: a name that
``search`` imports from ``design`` is patched in both modules, so calls that
go through either binding are recorded.  Spans (name, start, end, parent, run
id) stay in memory until ``write``; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _taskadc_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "taskadc" or name.startswith("taskadc."))
    ]


def _span_name(func) -> str:
    return f"{func.__module__.rsplit('.', 1)[-1]}.{func.__qualname__}"


def _is_own_function(obj) -> bool:
    return inspect.isfunction(obj) and getattr(obj, "__module__", "").startswith("taskadc.")


class Tracer:
    """Records nested spans around package calls while ``active`` is set.

    ``hooks`` maps a span name to ``hook(tracer, args, kwargs, result)``,
    which calls ``tracer.count`` at the boundary where the work is done.
    """

    def __init__(self, hooks: dict | None = None):
        self.hooks = dict(hooks or {})
        self.spans: list = []  # (name, start, end, parent index or -1, run id)
        self.counts: defaultdict = defaultdict(lambda: defaultdict(float))  # run id -> key
        self.active = False
        self.run_id = None
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), None, parent, self.run_id))
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, _, parent, run_id = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, run_id)

    def count(self, key: str, amount: float) -> None:
        """Add to a counter of the current run id."""
        self.counts[self.run_id][key] += amount

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        if not self.active:
            yield
            return
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def _wrap(self, func):
        name = _span_name(func)
        hook = self.hooks.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            idx = self._enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._exit(idx)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> int:
        """Patch every public package function and method; returns the count."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers: dict = {}

        def wrapped(func):
            if id(func) not in wrappers:
                wrappers[id(func)] = self._wrap(func)
            return wrappers[id(func)]

        classes = []
        for mod in _taskadc_modules():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if _is_own_function(obj):
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped(obj))
                elif inspect.isclass(obj) and obj.__module__.startswith("taskadc."):
                    if obj not in classes:
                        classes.append(obj)
        for cls in classes:
            for attr, raw in list(vars(cls).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(raw, (classmethod, staticmethod)) and _is_own_function(
                    raw.__func__
                ):
                    patched = type(raw)(wrapped(raw.__func__))
                elif _is_own_function(raw):
                    patched = wrapped(raw)
                else:
                    continue
                self._patches.append((cls, attr, raw))
                setattr(cls, attr, patched)
        return len(self._patches)

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self, select=None) -> dict:
        """name -> (calls, self seconds) over spans whose run id passes select.

        Self time is the span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, run_id in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for idx, (name, start, end, parent, run_id) in enumerate(self.spans):
            if select is not None and not select(run_id):
                continue
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (end - start) - child_time[idx])
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, run id."""
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": idx, "name": name, "start": start, "end": end,
                         "parent": parent, "run": run_id}
                    )
                    + "\n"
                )
