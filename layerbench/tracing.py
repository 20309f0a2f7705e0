"""In-memory spans around calls into the program's public functions.

The traced run wraps module functions and class methods of ``repro`` from
the outside (nothing under ``src/`` knows it is traced).  Each wrapped call
records one span: name, start, end, and the span that was open when it
began.  A layer's self time is its span's duration minus the time covered
by its child spans, accumulated per name as the spans close.

Hot callbacks (the ProfileMe unit runs on every simulated cycle) produce
hundreds of thousands of spans per session, so only the first
``keep_spans`` are kept for the written trace; the per-name totals cover
every span.
"""

import contextlib
import json
import time
from collections import defaultdict

_MISSING = object()


class Tracer:
    """Span recorder with online per-name self-time accounting."""

    def __init__(self, keep_spans=20000, clock=time.perf_counter):
        self.keep_spans = keep_spans
        self.clock = clock
        self.spans = []  # (id, name, start, end, parent id or -1)
        self.dropped_spans = 0
        self.count = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self._stack = []  # open frames: [id, name, start, child seconds]
        self._next_id = 0

    def begin(self, name):
        frame = [self._next_id, name, self.clock(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def end(self, frame):
        end = self.clock()
        if not self._stack or self._stack[-1] is not frame:
            raise RuntimeError("span %r closed out of order" % (frame[1],))
        self._stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        self.count[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        parent = -1
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        if len(self.spans) < self.keep_spans:
            self.spans.append((span_id, name, start, end, parent))
        else:
            self.dropped_spans += 1

    def wrap(self, func, name):
        """*func* with every call recorded as a span called *name*.

        *name* may be a callable ``(args, kwargs) -> str`` for spans whose
        name depends on the call (one span name per query command).
        """
        begin, end = self.begin, self.end
        namer = name if callable(name) else None

        def traced(*args, **kwargs):
            frame = begin(namer(args, kwargs) if namer else name)
            try:
                return func(*args, **kwargs)
            finally:
                end(frame)

        traced.__wrapped__ = func
        return traced

    def attributed_s(self):
        """Sum of every layer's self time."""
        return sum(self.self_s.values())

    def document(self):
        """Plain-data form of the trace, for writing out."""
        return {
            "spans": [{"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                       "parent": s[4]} for s in self.spans],
            "dropped_spans": self.dropped_spans,
            "layers": {name: {"count": self.count[name],
                              "total_s": self.total_s[name],
                              "self_s": self.self_s[name]}
                       for name in sorted(self.count)},
        }

    def write(self, path):
        with open(path, "w") as stream:
            json.dump(self.document(), stream)


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


@contextlib.contextmanager
def instrumented(tracer, targets):
    """Wrap each ``(owner, attribute, span name)`` in *targets* for the block.

    *owner* is a module or a class; a method inherited from a base class is
    shadowed on *owner* and the shadow removed afterwards.
    """
    patches = Patches()
    try:
        for owner, attr, name in targets:
            patches.set(owner, attr, tracer.wrap(getattr(owner, attr), name))
        yield tracer
    finally:
        patches.restore()
