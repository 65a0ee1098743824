"""In-memory span tracing from outside the traced program.

A :class:`Tracer` replaces chosen functions and methods with timing
wrappers, records one span per call (name, start, end, parent span,
thread) plus named counters, and puts every original back on
:meth:`Tracer.restore`, so an untraced run executes the program's own
code objects.  Spans stay in memory until :meth:`Tracer.dump` writes
them out at the end of a run.  No ``repro`` import here: which functions
are traced is decided by :mod:`layers`.
"""

import functools
import itertools
import json
import threading
import time

_MISSING = object()


class Span:
    """One traced call."""

    __slots__ = ("span_id", "parent_id", "name", "start", "end", "thread")

    def __init__(self, span_id, parent_id, name, start, end=None,
                 thread=None):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end = end
        self.thread = thread

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __repr__(self):
        return (f"Span({self.span_id}, {self.name!r}, parent="
                f"{self.parent_id}, {self.start:.6f}..{self.end})")


class Tracer:
    """Span recorder plus the patch ledger that undoes its wrappers."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name):
        """Open a span as a child of this thread's innermost open span."""
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        span = Span(span_id, stack[-1].span_id if stack else None, name,
                    self.clock(), thread=threading.get_ident())
        stack.append(span)
        return span

    def end(self, span):
        """Close ``span`` (the innermost open span of this thread)."""
        span.end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span!r} closed out of order")
        stack.pop()
        with self._lock:
            self.spans.append(span)

    def count(self, name, value=1):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(self, owner, attribute, name, before=None, after=None):
        """Trace every call of ``owner.attribute`` as a span.

        ``name`` is a span name or ``name(args, kwargs) -> str``.
        ``before(args, kwargs)`` runs before the call and its value is
        handed to ``after(token, result, args, kwargs)``, which records
        counters from the call's inputs and result.
        """
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            token = before(args, kwargs) if before is not None else None
            span = tracer.begin(label)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if after is not None:
                after(token, result, args, kwargs)
            return result

        traced.__perfbench_original__ = original
        self.patch(owner, attribute, traced)
        return traced

    def patch(self, owner, attribute, value):
        """Set ``owner.attribute`` to ``value`` until :meth:`restore`."""
        self._patches.append(
            (owner, attribute, vars(owner).get(attribute, _MISSING))
        )
        setattr(owner, attribute, value)

    def restore(self):
        """Put back every wrapped attribute, newest patch first."""
        while self._patches:
            owner, attribute, stored = self._patches.pop()
            if stored is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, stored)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.restore()
        return False

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def dump(self, path, extra=None):
        """Write spans, counters and ``extra`` as one JSON document."""
        payload = {
            "spans": [span.as_dict() for span in self.spans],
            "counters": self.counters,
        }
        if extra:
            payload.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def _covered(intervals, low, high):
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    clipped = sorted(
        (max(start, low), min(end, high)) for start, end in intervals
        if end > low and start < high
    )
    total = 0.0
    current_start = current_end = None
    for start, end in clipped:
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def _children_by_parent(spans):
    children = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    return children


def self_times(spans):
    """``span_id -> self time``: a span's duration minus the part of its
    interval that its direct child spans cover."""
    children = _children_by_parent(spans)
    return {
        span.span_id: span.duration - _covered(
            [(child.start, child.end)
             for child in children.get(span.span_id, ())],
            span.start, span.end,
        )
        for span in spans
    }


def outermost(spans, name):
    """Spans called ``name`` with no ancestor of the same name, so a
    recursive or re-entrant layer is not counted twice."""
    by_id = {span.span_id: span for span in spans}
    selected = []
    for span in spans:
        if span.name != name:
            continue
        parent = by_id.get(span.parent_id)
        while parent is not None and parent.name != name:
            parent = by_id.get(parent.parent_id)
        if parent is None:
            selected.append(span)
    return selected


def total_time(spans, name):
    """Inclusive time of layer ``name`` (outermost spans only)."""
    return sum(span.duration for span in outermost(spans, name))


def call_count(spans, name):
    return sum(1 for span in spans if span.name == name)


def total_self_time(spans, name, selfs=None):
    """Summed self time of every span called ``name``."""
    selfs = self_times(spans) if selfs is None else selfs
    return sum(selfs[span.span_id] for span in spans if span.name == name)
