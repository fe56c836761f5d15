"""In-memory spans for the traced benchmark run.

Spans are recorded from the benchmark's own code: one around each task's
call into a layer's public function, plus wrappers that `instrument`
installs on module attributes of the package for the duration of a traced
pass.  A wrapper whose target no longer exists is skipped; the metrics that
need it are then reported absent.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    """Nested spans (name, parent, start, end) kept in memory."""

    def __init__(self):
        self.spans = []     # [id, parent id or None, name, start, end]
        self._stack = []

    @contextmanager
    def span(self, name):
        rec = [len(self.spans), self._stack[-1] if self._stack else None,
               name, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield
        finally:
            self._stack.pop()
            rec[4] = time.perf_counter()

    def mark(self):
        """Index to pass to `count`/`self_ms` to look only at later spans."""
        return len(self.spans)

    def count(self, name, since=0):
        return sum(1 for s in self.spans[since:] if s[2] == name)

    def self_ms(self, prefix, since=0):
        """Summed self time of spans named `prefix*`: each span's duration
        minus the durations of its direct children."""
        spans = self.spans[since:]
        child = {}
        for _, parent, _, start, end in spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        return 1e3 * sum((end - start) - child.get(sid, 0.0)
                         for sid, _, name, start, end in spans
                         if name.startswith(prefix))

    def dump(self):
        t0 = self.spans[0][3] if self.spans else 0.0
        return [{"id": sid, "parent": parent, "name": name,
                 "start_ms": 1e3 * (start - t0), "end_ms": 1e3 * (end - t0)}
                for sid, parent, name, start, end in self.spans]


def _wrap(tracer, fn, name):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return traced


@contextmanager
def instrument(tracer, targets):
    """Wrap each `(owner, attr, span_name)` target for the enclosed block.

    `owner` is a module, a class or None.  Module-level functions imported
    by name into other modules are listed once per owner.  Targets that do
    not exist are skipped and their span names yielded, so callers can
    report the dependent metrics as absent.
    """
    saved, missing = [], []
    try:
        for owner, attr, name in targets:
            fn = vars(owner).get(attr) if owner is not None else None
            if not callable(fn):
                missing.append(name)
                continue
            saved.append((owner, attr, fn))
            setattr(owner, attr, _wrap(tracer, fn, name))
        yield missing
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
