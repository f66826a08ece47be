"""Layer spans for the traced benchmark pass, installed from outside the program.

:class:`Tracer` wraps the public functions of the program's layer modules,
and the public methods of the classes they define, in span recorders.  A
wrapper goes wherever the name is looked up at call time: the defining
module and every ``bornbundle`` module that did ``from .x import name``.
``jets`` gets no spans, because jet arithmetic is far too fine-grained;
its cost lands in the calling function's self time, and ``Jet.__init__`` is
wrapped only to count constructions.  :meth:`Tracer.remove` puts every
original object back.

A span is ``(name index, start ns, end ns, parent span index or -1,
operation id)``.  Spans live in memory until :meth:`Tracer.write`.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path
from types import ModuleType

LAYERS = ("expr", "fields", "manifold", "bundle", "integrability", "charts", "cli")
PACKAGE = "bornbundle"


def _public_callables(module: ModuleType):
    """(owner, attribute, qualified name, function) for every public function
    defined in ``module`` and every public method of its classes."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in sorted(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, attr, f"{layer}.{attr}", obj
        elif inspect.isclass(obj):
            for meth, fn in sorted(vars(obj).items()):
                if not meth.startswith("_") and inspect.isfunction(fn):
                    yield obj, meth, f"{layer}.{attr}.{meth}", fn


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.op = -1
        self.jets_created = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        try:
            for layer in LAYERS:
                module = sys.modules[f"{PACKAGE}.{layer}"]
                for owner, attr, qualname, fn in _public_callables(module):
                    wrapper = self._span_wrapper(qualname, fn)
                    self._set(owner, attr, wrapper)
                    if owner is module:
                        for other in modules:
                            for name, value in list(vars(other).items()):
                                if value is fn and other is not module:
                                    self._set(other, name, wrapper)
            jet = sys.modules[f"{PACKAGE}.jets"].Jet
            self._set(jet, "__init__", self._count_wrapper(jet.__init__))
        except BaseException:
            self.remove()
            raise

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def patched(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, original object) for everything installed."""
        return list(self._patched)

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, qualname: str, fn):
        name_id = self._name_ids.setdefault(qualname, len(self.names))
        if name_id == len(self.names):
            self.names.append(qualname)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self.op)
        return wrapper

    def _count_wrapper(self, init):
        @functools.wraps(init)
        def wrapper(*args, **kwargs):
            self.jets_created += 1
            init(*args, **kwargs)
        return wrapper

    # -- results --------------------------------------------------------------

    def self_times(self) -> list[int]:
        """Per-span duration minus the durations of its direct children (ns)."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def write(self, path: Path, ops: list[dict]) -> None:
        """Spans as one JSON document: a name table, the operations, and one
        ``[name, start_ns, end_ns, parent, op]`` row per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump({"columns": ["name", "start_ns", "end_ns", "parent", "op"],
                       "names": self.names, "ops": ops, "spans": self.spans},
                      f, separators=(",", ":"))
