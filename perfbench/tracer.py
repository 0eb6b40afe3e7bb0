"""In-memory span tracer that wraps functions from the outside.

A wrapped call opens a span: it has a name, a start, an end, the span
that caused it and the id of the run it belongs to.  Every span adds to
a per-name aggregate of calls, total time and self time, where self time
is the span's duration minus the time its child spans cover.  Spans of
the "recorded" kind are also kept one by one and written out when the
process ends; the hot kernel spans (millions per run) are kept as
aggregates only, so that tracing stays within a small multiple of the
untraced run.

Processes forked while a span is open (the package's worker pool) start
with empty buffers, hang their spans under that open span and write
their own file when they exit, so that run.py can read every process's
work back.
"""

import functools
import itertools
import json
import os
import time
from multiprocessing import util as mp_util


class Tracer:
    def __init__(self, out_dir, run_id):
        self.out_dir = out_dir
        self.run_id = run_id
        self.stack = []        # frames: [child_time, nearest recorded span id]
        self.spans = []        # (id, parent, name, start, end)
        self.agg = {}          # name -> [calls, total_s, self_s]
        self.counters = {}     # name -> [value]
        self.base_parent = None
        self.prefix = f"{os.getpid()}-"
        self._ids = itertools.count(1)
        mp_util.register_after_fork(self, Tracer._in_worker)

    # -- process lifecycle -------------------------------------------------

    def _in_worker(self):
        """Runs in a forked worker: hang its spans under the span that was
        open in the parent at fork time, and write them out at exit."""
        top = self.stack[-1][1] if self.stack else self.base_parent
        self.base_parent = top
        self.prefix = f"{os.getpid()}-"
        self._ids = itertools.count(1)
        self.stack.clear()
        self.spans.clear()
        for entry in self.agg.values():
            entry[0], entry[1], entry[2] = 0, 0.0, 0.0
        for entry in self.counters.values():
            entry[0] = 0
        mp_util.Finalize(self, self.flush, exitpriority=100)

    def flush(self):
        doc = {"pid": os.getpid(), "run_id": self.run_id,
               "agg": {k: v for k, v in self.agg.items() if v[0]},
               "counters": {k: v[0] for k, v in self.counters.items()},
               "spans": self.spans}
        path = os.path.join(self.out_dir, f"{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)

    # -- spans ---------------------------------------------------------------

    def counter(self, name):
        """Return the one-element list that holds counter ``name``."""
        return self.counters.setdefault(name, [0])

    def _aggregate(self, name):
        return self.agg.setdefault(name, [0, 0.0, 0.0])

    def begin(self, name):
        """Open a recorded span by hand; close it with ``end``."""
        sid = self.prefix + str(next(self._ids))
        parent = self.stack[-1][1] if self.stack else self.base_parent
        frame = [0.0, sid, name, parent, time.perf_counter()]
        self.stack.append(frame)
        return frame

    def end(self, frame):
        """Close the span opened by ``begin``; return its duration."""
        t1 = time.perf_counter()
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[2]} closed out of order")
        child, sid, name, parent, t0 = frame
        d = t1 - t0
        if self.stack:
            self.stack[-1][0] += d
        entry = self._aggregate(name)
        entry[0] += 1
        entry[1] += d
        entry[2] += d - child
        self.spans.append((sid, parent, name, t0, t1))
        return d

    def wrap(self, fn, name, record, before=None, after=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``before(args)`` runs before the call and its value is passed to
        ``after(state, result)`` on a normal return; both are for counts
        that must be taken where the work happens.
        """
        stack = self.stack
        entry = self._aggregate(name)
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else tracer.base_parent
            # an aggregate-only span passes its nearest recorded ancestor on
            sid = tracer.prefix + str(next(tracer._ids)) if record else parent
            frame = [0.0, sid]
            state = before(args) if before is not None else None
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                if stack:
                    stack[-1][0] += d
                entry[0] += 1
                entry[1] += d
                entry[2] += d - frame[0]
                if record:
                    spans.append((sid, parent, name, t0, t1))
            if after is not None:
                after(state, result)
            return result

        return wrapper
