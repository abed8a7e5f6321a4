"""In-memory span tracer for the benchmark.

The tracer never edits the program's source.  It replaces function objects
in the namespaces of the imported ``qwig`` modules (and attributes of the
benchmark's own objects) with wrappers that record a span (id, name, start,
end, parent id) around each call, and restores the originals afterwards.
A layer's self time is the total duration of its spans minus the part
covered by their direct child spans; it is computed after the run, so that
the durations can be taken in reference seconds.
"""

import gzip
import json
import sys
from time import perf_counter

SPAN_ATTR = "_perfbench_span"


def qwig_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "qwig" or name.startswith("qwig."))
    ]


def find_wrappers(*owners):
    """Names of traced wrappers present in the qwig modules or the owners."""
    found = []
    for owner in qwig_modules() + list(owners):
        for attr, value in vars(owner).items():
            if hasattr(value, SPAN_ATTR):
                owner_name = getattr(owner, "__name__", type(owner).__name__)
                found.append("%s.%s" % (owner_name, attr))
    return found


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id)
        self.calls = {}
        self.counts = {}
        self._next_id = 0
        self._stack = []  # open frames: (id, name)
        self._restore = []

    def add(self, counter, amount):
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def wrap(self, name, fn, after=None):
        """A span-recording version of fn.

        name is the span name, or a function of (args, kwargs) giving it;
        after(tracer, result) records counts taken from the result.
        """

        def traced(*args, **kwargs):
            span = name if isinstance(name, str) else name(args, kwargs)
            frame = (self._next_id, span)
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(frame, parent, start, type(exc).__name__)
                raise
            self._close(frame, parent, start, None)
            if after is not None:
                after(self, result)
            return result

        setattr(traced, SPAN_ATTR, name)
        traced.__wrapped__ = fn
        return traced

    def _close(self, frame, parent, start, exc_name):
        end = perf_counter()
        self._stack.pop()
        sid, span = frame
        self.spans.append((sid, span, start, end, parent[0] if parent else None))
        self.calls[span] = self.calls.get(span, 0) + 1
        # calls into the closed forms from outside them, for the
        # DegenerateRoots ratio; nested calls would count one failure twice
        if span.startswith("wigner.") and not (
            parent and parent[1].startswith("wigner.")
        ):
            self.add("wigner.top_calls", 1)
            if exc_name == "DegenerateRoots":
                self.add("wigner.top_degenerate", 1)

    def self_times(self, elapsed):
        """Self time per span name; elapsed(start, end) is a span's length."""
        names = {sid: name for sid, name, _, _, _ in self.spans}
        self_s = {}
        for _, name, start, end, parent in self.spans:
            duration = elapsed(start, end)
            self_s[name] = self_s.get(name, 0.0) + duration
            if parent is not None:
                self_s[names[parent]] = self_s.get(names[parent], 0.0) - duration
        return self_s

    def patch(self, module, attr, name, after=None):
        """Wrap module.attr and every qwig namespace binding of the same
        function object, since ``from x import f`` copies the binding."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, after)
        for owner in qwig_modules():
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._restore.append((owner, key, original))
                    setattr(owner, key, wrapper)

    def replace(self, owner, attr, name, after=None):
        """Wrap one attribute of a benchmark object."""
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def restore(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    def write_spans(self, path):
        with gzip.open(path, "wt") as fh:
            for sid, name, start, end, parent in sorted(self.spans):
                record = {"id": sid, "name": name, "start": start, "end": end,
                          "parent": parent}
                fh.write(json.dumps(record) + "\n")
