"""Spans around the benchmark's calls into the package.

With tracing off, :meth:`Calls.call` is a plain call.  With tracing on it
records ``(id, parent, op, name, cls, start, end)`` in memory; spans are
written out only when the run ends.
"""

from __future__ import annotations

import json
import time


class Calls:
    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.op_id = -1

    def call(self, name: str, cls, fn, *args, **kwargs):
        if not self.traced:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        self.spans.append(None)        # reserve the slot so ids follow start order
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, self.op_id, name, cls, start, end)

    def self_times(self) -> list[tuple[str, object, float]]:
        """``(name, cls, self seconds)`` per span: duration minus the part
        of its interval that child spans cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for sid, parent, _, _, _, start, end in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        out = []
        for sid, _, _, name, cls, start, end in self.spans:
            covered, reach = 0.0, start
            for c0, c1 in sorted(children.get(sid, ())):
                c0 = max(c0, reach)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            out.append((name, cls, (end - start) - covered))
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, cls, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": name, "cls": cls,
                                     "start": start, "end": end}) + "\n")
