"""Spans recorded around the benchmark's calls into sympack's public functions.

A span is (name, start_ns, end_ns, parent index, operation id).  A span name
is ``<module>.<function>`` with an optional ``#<tag>`` (the lattice rank p,
the target kind of ``lambda_bound``); an operation's root span is
``op.<kind>``.  Spans are kept in memory and written out when the run ends.
The untraced runs use :class:`NullTracer`, which calls straight through.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter_ns


class NullTracer:
    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def op(self, kind, op_id):
        yield


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int]] = []
        self._stack: list[int] = []
        self._op_id = -1

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, perf_counter_ns(), 0, parent, self._op_id))
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        idx = self._stack.pop()
        name, start, _, parent, op_id = self.spans[idx]
        self.spans[idx] = (name, start, perf_counter_ns(), parent, op_id)

    def call(self, name, fn, *args, **kwargs):
        self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    @contextmanager
    def op(self, kind, op_id):
        self._op_id = op_id
        self._open("op." + kind)
        try:
            yield
        finally:
            self._close()

    def aggregate(self) -> dict[str, dict[str, float]]:
        """calls, busy_s and self_s per span name (tag included).

        Self time is a span's duration minus the union of its children's
        intervals; children of one span never overlap in a single-threaded
        run, so the union is their sum.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _, _), kids in zip(self.spans, child_ns):
            agg = out.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                        "self_s": 0.0, "durations": []})
            agg["calls"] += 1
            agg["busy_s"] += (end - start) / 1e9
            agg["self_s"] += (end - start - kids) / 1e9
            agg["durations"].append((end - start) / 1e9)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "op": op_id}) + "\n")
