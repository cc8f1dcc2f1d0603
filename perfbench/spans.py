"""In-memory spans recorded by the benchmark around its calls into each layer.

A span is [name, start_ns, end_ns, parent, input_id, failed]; spans of one
input share input_id.  Nothing is written until the run ends.  Self time is
a span's duration minus the durations of its children, which the benchmark
opens one after another, never overlapping.
"""

from __future__ import annotations

import json
import os
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.counts: dict[str, int] = {}

    def begin(self, name: str, input_id) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter_ns(), 0, parent, input_id, False])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, idx: int, name: str | None = None, failed: bool = False):
        span = self.spans[idx]
        span[2] = perf_counter_ns()
        if name is not None:
            span[0] = name
        span[5] = failed
        self._open.pop()

    def count(self, name: str, n: int = 1):
        self.counts[name] = self.counts.get(name, 0) + n

    def layer_table(self) -> dict[str, dict]:
        """name -> calls, self time in ns, failures."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        table: dict[str, dict] = {}
        for i, (name, start, end, _, _, failed) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "self_ns": 0, "failed": 0})
            row["calls"] += 1
            row["self_ns"] += end - start - child_ns[i]
            row["failed"] += int(failed)
        return table

    def write(self, path: str):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                name, start, end, parent, input_id, failed = span
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "input": input_id, "failed": failed},
                                    separators=(",", ":")) + "\n")


def call(tr: Tracer | None, name: str, input_id, fn, *args, outcome=None):
    """fn(*args) inside a span named `name`; no span when tr is None.

    outcome(result) -> (name, failed) relabels the span from the result, as
    for a certificate that was accepted or rejected.  An exception closes
    the span as failed and propagates.
    """
    if tr is None:
        return fn(*args)
    idx = tr.begin(name, input_id)
    try:
        out = fn(*args)
    except BaseException:
        tr.end(idx, failed=True)
        raise
    if outcome is None:
        tr.end(idx)
    else:
        tr.end(idx, *outcome(out))
    return out
