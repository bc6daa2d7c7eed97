"""Span tracing of the ``blochlat`` layers, installed from outside the package.

``Tracer.install`` wraps every public function of every ``blochlat`` module
and rebinds each name wherever it appears in a ``blochlat.*`` namespace, so
calls made through ``from .x import f`` are caught as well as module-global
calls. A wrapper only records a span around the call: arguments, return
values and exceptions pass through unchanged. Spans stay in memory until the
caller asks for them.

A span is ``(name, start, end, parent)``: ``name`` is ``"<module>.<function>"``,
times are ``time.perf_counter`` seconds and ``parent`` is the index of the
enclosing span, or -1.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time

PACKAGE = "blochlat"


def package_modules() -> dict:
    """Import and return every ``blochlat`` module, keyed by short name."""
    package = importlib.import_module(PACKAGE)
    modules = {}
    for info in pkgutil.iter_modules(package.__path__):
        modules[info.name] = importlib.import_module(f"{PACKAGE}.{info.name}")
    return modules


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Tracer:
    """Records one span per call of a public ``blochlat`` function."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, label: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (label, start, clock(), parent)
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every public function and rebind it in every namespace."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = package_modules()
        wrapped = {}
        for short, module in modules.items():
            for name, fn in _public_functions(module):
                wrapped[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        namespaces = [importlib.import_module(PACKAGE), *modules.values()]
        for module in namespaces:
            for name, obj in list(vars(module).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._saved.append((module, name, obj))
                    setattr(module, name, entry[1])

    def uninstall(self) -> None:
        """Restore every rebound name to its original function."""
        for module, name, obj in reversed(self._saved):
            setattr(module, name, obj)
        self._saved.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Calls run on one thread, so the children of a span never overlap and
    the time they cover is the sum of their durations.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
