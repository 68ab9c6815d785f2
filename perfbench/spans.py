"""In-memory spans around the benchmark's own calls into pblab.

A span records (name, start, end, parent, pass id); start and end are
process CPU seconds, the clock the end-to-end pass times use.  Names are
``<module>.<function>`` for a call into a pblab module, ``acceptance.cNN``
for one acceptance criterion, and ``pass`` for the root of one pass.
Spans stay in memory and are written out once, when the run ends.

The untraced run uses ``NullTracer``, which keeps the same call sites but
records nothing, so the end-to-end numbers carry no tracing cost.
"""

import json
import time
from collections import defaultdict
from contextlib import nullcontext

_NO_SPAN = nullcontext()


class NullTracer:
    """Records nothing; the end-to-end runs use it."""

    enabled = False
    pass_id = -1

    def span(self, name):
        return _NO_SPAN

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, value):
        pass


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        parent = tr._open[-1] if tr._open else -1
        tr.spans.append([self.name, time.process_time(), 0.0, parent, tr.pass_id])
        tr._open.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.process_time()
        tr._open.pop()
        return False


class Tracer(NullTracer):
    """Keeps every span and every count of the run in memory."""

    enabled = True

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, pass id]
        self.counts = defaultdict(float)  # (pass id, name) -> value
        self._open = []
        self.pass_id = -1

    def span(self, name):
        return _Span(self, name)

    def call(self, name, fn, *args):
        with _Span(self, name):
            return fn(*args)

    def count(self, name, value):
        self.counts[(self.pass_id, name)] += value

    def per_pass(self, pass_ids):
        """For each pass: busy time, self time and call count by span name,
        plus the recorded counts."""
        child_time = defaultdict(float)
        for name, start, end, parent, pid in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {pid: {"busy": defaultdict(float), "self": defaultdict(float),
                     "calls": defaultdict(int), "count": defaultdict(float)}
               for pid in pass_ids}
        for i, (name, start, end, parent, pid) in enumerate(self.spans):
            if pid not in out:
                continue
            row = out[pid]
            row["busy"][name] += end - start
            row["self"][name] += end - start - child_time[i]
            row["calls"][name] += 1
        for (pid, name), value in self.counts.items():
            if pid in out:
                out[pid]["count"][name] += value
        return out

    def write(self, path, header):
        """Write the header, then one JSON line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, pid in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "pass": pid}) + "\n")

