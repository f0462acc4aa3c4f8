"""Span tracing of qcorr's layers from outside the package.

`Tracer.install` replaces every public function of each layer module with a
timing wrapper at every module binding where it appears (for example
``qcorr.observable.expectation`` and ``qcorr.hilbert.expectation`` are the
same object, so both bindings get the same wrapper), and wraps the
``__init__`` of every public class in place. `Tracer.uninstall` restores the
originals. Nothing under ``src/`` changes; calls that the package makes
through references captured at import time (closures, default arguments)
are not seen, but the functions they call are.

Spans stay in memory as tuples and are written out once, as JSON lines,
when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = (
    "cli",
    "scenario",
    "examples",
    "report",
    "correlation",
    "classical_frame",
    "observable",
    "hilbert",
    "measure",
    "selftest",
    "tolerance",
)

# Modules whose namespaces may hold a binding of a layer's function.
_BINDING_MODULES = ("qcorr", "qcorr.errors") + tuple(f"qcorr.{name}" for name in LAYERS)


_MISSING = object()


def public_callables(module):
    """(name, object) for every public function and class defined in `module`."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or inspect.isclass(obj):
            yield name, obj


class Tracer:
    """Collects one span per wrapped call: (name id, start, end, parent, op)."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.op = -1
        self._current = [-1]  # index of the open span, -1 outside any
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans = self.spans
        current = self._current
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = current[0]
            current[0] = index
            spans.append(None)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                current[0] = parent
                spans[index] = (name_id, start, end, parent, tracer.op)

        return traced

    def _set(self, target, attr: str, value) -> None:
        self._undo.append((target, attr, target.__dict__.get(attr, _MISSING)))
        setattr(target, attr, value)

    def install(self) -> None:
        modules = [importlib.import_module(name) for name in _BINDING_MODULES]
        replacements = {}
        for layer in LAYERS:
            module = importlib.import_module(f"qcorr.{layer}")
            for name, obj in public_callables(module):
                if inspect.isclass(obj):
                    self._set(obj, "__init__", self._wrap(f"{layer}.{name}", obj.__init__))
                else:
                    replacements[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = replacements.get(id(value))
                if entry is not None and entry[0] is value:
                    self._set(module, attr, entry[1])

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            if original is _MISSING:
                delattr(target, attr)
            else:
                setattr(target, attr, original)
        self._undo.clear()

    def write_jsonl(self, path, workload: str, op_dims: list) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name_id, start, end, parent, op) in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": self.names[name_id],
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "op": op,
                    "workload": workload,
                    "d": op_dims[op],
                }
                handle.write(json.dumps(record) + "\n")

    def summarize(self, op_dims: list):
        """Per-name totals over all spans.

        Returns (calls, self_s, total_s, total_by_d, top_level_s). Self time
        is a span's duration minus the durations of its direct children.
        Total time counts only spans with no ancestor of the same name, so
        recursion is not counted twice; `total_by_d` splits it by the op's
        dimension.
        """
        spans = self.spans
        count = len(self.names)
        calls = [0] * count
        self_s = [0.0] * count
        total_s = [0.0] * count
        total_by_d: dict[tuple[int, object], float] = {}
        child_s = [0.0] * len(spans)
        top_level_s = 0.0
        for name_id, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for index, (name_id, start, end, parent, op) in enumerate(spans):
            duration = end - start
            calls[name_id] += 1
            self_s[name_id] += duration - child_s[index]
            if parent < 0:
                top_level_s += duration
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name_id:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                total_s[name_id] += duration
                key = (name_id, op_dims[op])
                total_by_d[key] = total_by_d.get(key, 0.0) + duration
        return calls, self_s, total_s, total_by_d, top_level_s
