"""Outside-in layer tracing.

The tracer wraps library functions from the benchmark's own files: each name
is patched in the namespace of the module that calls it (for example
``semicalib.field.construct_point``), so no library source changes.  Spans
(name, start, end, parent, call id) are kept in memory and written out at the
end; a span with no parent starts a new unit call.  ``restore`` puts every
original object back.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (span id, name, start, end, parent id, call id)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0
        self._call_id = 0
        self._patched: list[tuple] = []  # (module, attribute, original)

    def wrap(self, fn, name, on_result=None):
        """A traced stand-in for ``fn``.

        ``name`` is a string or a function of the call's arguments (so one
        function can report under several names); ``on_result`` sees the
        arguments and the result and may add to ``counts``.  Exceptions are
        counted under ``<name>.raised.<type>`` and re-raised.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            if parent is None:
                self._call_id += 1
            call_id = self._call_id
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{label}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, label, start, end, parent, call_id))
            if on_result is not None:
                on_result(self.counts, args, kwargs, result)
            return result

        return traced

    def patch(self, module_name: str, attribute: str, name, on_result=None) -> None:
        """Replace ``module.attribute`` by its traced stand-in until ``restore``."""
        module = importlib.import_module(module_name)
        original = getattr(module, attribute)
        self._patched.append((module, attribute, original))
        setattr(module, attribute, self.wrap(original, name, on_result))

    def restore(self) -> None:
        for module, attribute, original in reversed(self._patched):
            setattr(module, attribute, original)
        self._patched.clear()

    def self_times(self) -> tuple[dict, dict]:
        """(total self seconds, call count) per span name.

        A span's self time is its duration minus the durations of its
        children; calls nest, so children never overlap each other.
        """
        child_time: dict = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_s: dict = defaultdict(float)
        calls: Counter = Counter()
        for span_id, name, start, end, _, _ in self.spans:
            self_s[name] += (end - start) - child_time[span_id]
            calls[name] += 1
        return dict(self_s), dict(calls)

    def write(self, path: str, extra: dict) -> None:
        """Spans, self times and counts as one JSON file."""
        self_s, calls = self.self_times()
        data = {
            **extra,
            "self_s": self_s,
            "calls": calls,
            "counts": dict(self.counts),
            "spans": [
                {"id": s, "name": n, "start": a, "end": b, "parent": p, "call": c}
                for s, n, a, b, p, c in self.spans
            ],
        }
        with open(path, "w") as handle:
            json.dump(data, handle)
