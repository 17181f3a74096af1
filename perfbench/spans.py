"""In-memory spans around the library's public functions.

Each hook replaces a module or class attribute at the name the calling layer
looks it up (``vvlf.lfunction.tail_integral`` is what ``_half_series`` calls),
so the library itself carries no tracing code.  Spans stay in memory; self
time is a span's duration minus the durations of its direct children.
"""

import functools
import gzip
import time


class Tracer:
    def __init__(self):
        self.names = []
        self._index = {}
        self.spans = []  # [op, name index, parent span, start, end]
        self._stack = []
        self._restore = []
        self.op = -1  # spans recorded outside an op (set-up) carry op -1
        self.active = True
        self.evaluated = set()  # distinct (action, group element) pairs

    def _intern(self, name):
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _enter(self, idx):
        stack = self._stack
        rec = [self.op, idx, stack[-1] if stack else -1, time.perf_counter(), 0.0]
        stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _leave(self, rec):
        rec[4] = time.perf_counter()
        self._stack.pop()

    def hook(self, owner, attr, name, on_call=None):
        """Replace ``owner.attr`` by a traced wrapper until :meth:`uninstall`."""
        fn = getattr(owner, attr)
        idx = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args)
            rec = self._enter(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(rec)

        self._restore.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def uninstall(self):
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    def record_evaluate(self, args):
        action, g = args[0], args[1]
        self.evaluated.add((action.label, action.twok, g))

    def run_op(self, op_index, fn):
        """Call ``fn()`` under the root span ``op`` of one benchmark op."""
        self.op = op_index
        rec = self._enter(self._intern("op"))
        try:
            return fn()
        finally:
            self._leave(rec)
            self.op = -1

    def totals(self, in_ops):
        """{name: [calls, self seconds]} over spans inside ops or outside them."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[2] >= 0:
                child[rec[2]] += rec[4] - rec[3]
        out = {}
        for n, rec in enumerate(self.spans):
            if (rec[0] >= 0) != in_ops:
                continue
            acc = out.setdefault(self.names[rec[1]], [0, 0.0])
            acc[0] += 1
            acc[1] += rec[4] - rec[3] - child[n]
        return out

    def write(self, path):
        """Write every span as CSV (times in ns from the first span), gzipped."""
        t0 = self.spans[0][3] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op,span,parent,name,start_ns,end_ns\n")
            for n, (op, idx, parent, start, end) in enumerate(self.spans):
                fh.write(
                    f"{op},{n},{parent},{self.names[idx]},"
                    f"{round((start - t0) * 1e9)},{round((end - t0) * 1e9)}\n"
                )
