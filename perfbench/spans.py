"""Span recording for the traced benchmark run, and the arithmetic that
turns spans into per-layer metrics.

Spans are recorded only here, by wrapping the public functions of the
package's layer modules from outside; the package itself is untouched.
This module imports nothing outside the standard library, so its
arithmetic can be tested on hand-built span lists.
"""

import functools
import inspect
import itertools
import math
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    """One call: `name` is `layer.function`; `parent` is the id of the
    span that was open on the same thread when this one started."""

    id: int
    name: str
    thread: int
    start: float
    end: float
    parent: int | None

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans in memory; `install` wraps the layer functions."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(sid, name, threading.get_ident(), start, end, parent))

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def install(self, package, layers):
        """Wrap every public function defined in `package.<layer>`.

        A function imported by name elsewhere (`iad.steady_state` is
        `chain.steady_state`) is replaced under that name too, in every
        loaded module of the package, so calls through either name record
        a span.
        """
        wrapped = {}
        for layer in layers:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def take(self):
        """Return the spans recorded so far and start a new list."""
        out, self.spans = self.spans, []
        return out


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """{span id: duration minus the part of it its child spans cover}."""
    kids = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in kids.get(s.id, ()) if c.end > s.start and c.start < s.end)
        out[s.id] = s.duration - covered
    return out


def has_ancestor(span, by_id, pred):
    p = span.parent
    while p is not None and p in by_id:
        if pred(by_id[p]):
            return True
        p = by_id[p].parent
    return False


def function_stats(spans):
    """{name: (total_s, self_s, calls)} per span name.

    Total time counts only the outermost span of a name, so a function
    that reaches itself again is not counted twice.
    """
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    stats = {}
    for s in spans:
        total, self_s, calls = stats.get(s.name, (0.0, 0.0, 0))
        if not has_ancestor(s, by_id, lambda a: a.name == s.name):
            total += s.duration
        stats[s.name] = (total, self_s + selfs[s.id], calls + 1)
    return stats


def layer_self_times(spans, layers):
    """{layer: summed self time of its spans}."""
    selfs = self_times(spans)
    out = {layer: 0.0 for layer in layers}
    for s in spans:
        if s.layer in out:
            out[s.layer] += selfs[s.id]
    return out


def covered_length(spans, names=None, layers=None):
    """Wall time during which at least one matching span is open, on any
    thread. Spans match by exact name or by layer."""
    return union_length(
        (s.start, s.end) for s in spans
        if (names is not None and s.name in names)
        or (layers is not None and s.layer in layers))


def percentile(samples, q, min_beyond=10):
    """Nearest-rank q-th percentile, or None unless at least `min_beyond`
    samples lie beyond it (a tail percentile resting on fewer samples
    than that is not reported)."""
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n / 100))
    if n - rank < min_beyond:
        return None
    return sorted(samples)[rank - 1]


def fail_frac(attempted, failed):
    """Failed operations over operations attempted."""
    if attempted < 1:
        raise ValueError("fail_frac: no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("fail_frac: failed must lie in [0, attempted]")
    return failed / attempted


def overhead_frac(traced_wall, untraced_wall):
    """Traced wall time over untraced wall time, minus one."""
    if untraced_wall <= 0:
        raise ValueError("overhead_frac: untraced wall time must be positive")
    return traced_wall / untraced_wall - 1.0


def paired_durations(spans, first, last):
    """Per thread, the time from each root `first` span to the end of the
    next root `last` span: one evaluation made of two consecutive calls,
    such as `rho_J_direct(error_operator(...))`."""
    out = []
    opened = {}
    for s in sorted((s for s in spans if s.parent is None),
                    key=lambda s: s.start):
        if s.name == first:
            opened[s.thread] = s.start
        elif s.name == last and s.thread in opened:
            out.append(s.end - opened.pop(s.thread))
    return out
