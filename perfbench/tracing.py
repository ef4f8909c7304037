"""Outside-in tracing: spans around the program's public callables.

The tracer swaps module and class attributes for timing wrappers, so a span
opens wherever a caller looks the name up, and puts the originals back on
``uninstall``.  Nothing in the program changes.  Spans stay in memory
until the end of the run; self time is computed from them afterwards.
"""

import functools
import inspect
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        # one span per list: [name, start, end, parent index, request id]
        self.spans = []
        self.counts = Counter()
        self.request = 0
        self._stack = []
        self._patched = []

    # -- recording ----------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, fn, name, after=None):
        """``fn`` timed as span ``name``; ``after(result, args, kwargs)`` counts."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def _wrap_generator(self, fn, name):
        # the work of a generator happens in next(), one span per item
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close()
                yield item

        return traced

    # -- installing ---------------------------------------------------------

    def patch(self, owner, attr, name, after=None):
        """Replace ``owner.attr`` (module function, method or classmethod)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(raw.__func__, name, after))
        else:
            wrapped = self.wrap(raw, name, after)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def patch_result(self, owner, attr, transform):
        """Replace ``owner.attr`` by ``transform(result, args, kwargs)`` of it.

        For counting without a span, or for wrapping a returned callable.
        """
        raw = getattr(owner, attr)

        @functools.wraps(raw)
        def transformed(*args, **kwargs):
            return transform(raw(*args, **kwargs), args, kwargs)

        self._patched.append((owner, attr, raw))
        setattr(owner, attr, transformed)

    def uninstall(self):
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- reading ------------------------------------------------------------

    def totals(self):
        """Per span name: (calls, busy seconds, self seconds)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls, busy, own = Counter(), defaultdict(float), defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += end - start
            own[name] += end - start - child_time[i]
        return calls, busy, own
