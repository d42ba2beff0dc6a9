"""Span tracer that instruments the zsseq modules from outside the package.

Every public function of a layer module (and the kernel table's public
methods) is replaced by a wrapper that records a span: its name, start,
end and the span open when it was called (its parent).  The wrapper is
bound wherever the function is referenced, so calls made inside the
package through ``from .detect import build_table`` are traced too.

Spans are folded into per-name totals as they close, so memory stays flat
however many calls a pass makes: calls, total time, and self time (the
span's duration minus the spans nested directly in it).  An observer
registered for a span name sees the call's arguments, result and parent
once the span has closed, and can keep counters.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self, observers=None):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(int)
        self._observers = observers or {}
        self._stack: list[list] = []  # open spans: [name, seconds in child spans]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call under ``name``."""
        stack = self._stack
        clock = time.perf_counter
        observe = self._observers.get(name)
        # A generator's work happens while it is consumed; run it to the end
        # inside the span so the span covers that work.
        materialize = inspect.isgeneratorfunction(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = iter(list(result))
            finally:
                duration = clock() - start
                stack.pop()
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if observe is not None:
                observe(self, parent, args, kwargs, result)
            return result

        return traced

    def install(self, package: str, layers: tuple[str, ...], methods: dict[str, tuple[str, ...]]) -> None:
        """Trace the public functions of each ``package.layer`` module, plus class methods.

        Spans are named "layer.function"; ``methods`` maps "layer.Class" to
        method names, traced as "layer.method".
        """
        modules = {layer: sys.modules[f"{package}.{layer}"] for layer in layers}
        wrapped = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        for path, names in methods.items():
            layer, cls_name = path.split(".")
            cls = getattr(modules[layer], cls_name)
            for attr in names:
                self._patch(cls, attr, self.wrap(f"{layer}.{attr}", vars(cls)[attr]))
        for name, module in list(sys.modules.items()):
            if name == package or name.startswith(package + "."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        self._patch(module, attr, wrapped[obj])

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
