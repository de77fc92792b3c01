"""In-memory span tracer that times the simulator's layers from outside.

The benchmark never edits the program: it replaces public functions of
each layer with wrappers for the length of a traced run, then restores
them.  Coarse calls (a simulation, a trace generation, an analysis) each
record a span with its name, start, end, parent span and run id.  Hot
calls (branch predictor, memory hierarchy, caches, per-cycle observers)
are *leaves*: they are aggregated into a call count and self time under
the innermost enclosing span instead of one span per call.  Leaves never
open spans, so a span's self time is its duration minus the union of its
child spans and minus the time spent in leaf calls made directly under
it.  A target that does not exist (renamed or deleted by a later commit)
is recorded as absent and skipped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    run: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    #: leaf name -> [calls, self seconds]
    leaves: Dict[str, list] = field(default_factory=dict)
    #: Wall time of leaf calls made while this span was innermost.
    leaf_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals: Sequence[Tuple[float, float]],
                 lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """``{span id: self seconds}``: duration minus child-span coverage
    minus direct leaf time."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    return {span.id: span.duration
            - union_length(children.get(span.id, ()), span.start, span.end)
            - span.leaf_s
            for span in spans}


class _Frame:
    __slots__ = ("span", "name", "start", "nested")

    def __init__(self, span: Optional[Span], name: str, start: float):
        self.span = span
        self.name = name
        self.start = start
        self.nested = 0.0


def _resolve(target: str):
    """``"pkg.module:Class.attr"`` -> (owner, attr name)."""
    module_path, _, qualname = target.partition(":")
    owner = importlib.import_module(module_path)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    inspect.getattr_static(owner, attr)  # AttributeError when missing
    return owner, attr


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.absent: List[str] = []
        #: Leaf calls made outside every span: name -> [calls, self s].
        self.orphan_leaves: Dict[str, list] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: List[tuple] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _innermost_span(self, stack) -> Optional[Span]:
        for frame in reversed(stack):
            if frame.span is not None:
                return frame.span
        return None

    def current(self) -> Optional[Span]:
        """The innermost open span of the calling thread."""
        return self._innermost_span(self._stack())

    def open(self, name: str, run: Optional[str] = None,
             parent: Optional[Span] = None) -> Span:
        """Open a span under ``parent``, by default the innermost open
        span of this thread (pass it to parent spans across threads)."""
        stack = self._stack()
        if parent is None:
            parent = self._innermost_span(stack)
        span_id = next(self._ids)
        if run is None:
            run = parent.run if parent is not None else f"{name}#{span_id}"
        span = Span(span_id, name, parent.id if parent else None, run,
                    self.clock())
        self.spans.append(span)
        stack.append(_Frame(span, name, span.start))
        return span

    def close(self, span: Span) -> None:
        stack = self._stack()
        frame = stack.pop()
        if frame.span is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        span.end = self.clock()

    def record(self, name: str, start: float, end: float, parent: Span,
               **attrs) -> Span:
        """Add a finished child span measured elsewhere (by a server)."""
        span = Span(next(self._ids), name, parent.id, parent.run, start,
                    end, attrs=attrs)
        self.spans.append(span)
        return span

    def _leaf_enter(self, name: str) -> _Frame:
        frame = _Frame(None, name, self.clock())
        self._stack().append(frame)
        return frame

    def _leaf_exit(self, frame: _Frame) -> None:
        end = self.clock()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        own = duration - frame.nested
        if stack:
            enclosing = stack[-1]
            if enclosing.span is None:
                enclosing.nested += duration
            else:
                enclosing.span.leaf_s += duration
        span = self._innermost_span(stack)
        bucket = span.leaves if span is not None else self.orphan_leaves
        entry = bucket.get(frame.name)
        if entry is None:
            bucket[frame.name] = [1, own]
        else:
            entry[0] += 1
            entry[1] += own

    # -- wrapping ------------------------------------------------------------

    def wrap(self, target: str, name, leaf: bool = False,
             after: Optional[Callable] = None, new_run: bool = False) -> bool:
        """Replace ``target`` with a recording wrapper.

        ``name`` is the span/leaf name, or a callable of the call's
        arguments returning it; ``after(span, result, args, kwargs)`` may
        add attributes once a span's call returns; ``new_run`` gives each
        call its own run id.  Returns ``False`` (and records the target
        as absent) when it does not exist.
        """
        try:
            owner, attr = _resolve(target)
        except (ImportError, AttributeError):
            self.absent.append(target)
            return False
        static = inspect.getattr_static(owner, attr)
        if isinstance(static, (classmethod, staticmethod)):
            func, rewrap = static.__func__, type(static)
        else:
            func, rewrap = static, (lambda f: f)
        if not callable(func):
            self.absent.append(target)
            return False
        tracer = self
        naming = name if callable(name) else (lambda *a, **k: name)

        if leaf:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                frame = tracer._leaf_enter(naming(*args, **kwargs))
                try:
                    return func(*args, **kwargs)
                finally:
                    tracer._leaf_exit(frame)
        else:
            counter = itertools.count(1)

            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                span_name = naming(*args, **kwargs)
                run = f"{span_name}#{next(counter)}" if new_run else None
                span = tracer.open(span_name, run=run)
                try:
                    result = func(*args, **kwargs)
                    if after is not None:
                        after(span, result, args, kwargs)
                    return result
                finally:
                    tracer.close(span)

        owned = attr in vars(owner)
        setattr(owner, attr, rewrap(wrapper))
        self._installed.append((owner, attr, static, owned))
        return True

    def unwrap_all(self) -> None:
        """Restore every wrapped target."""
        while self._installed:
            owner, attr, static, owned = self._installed.pop()
            if owned:
                setattr(owner, attr, static)
            else:
                delattr(owner, attr)

    # -- output --------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span (and orphan leaves) as JSON."""
        with open(path, "w") as fh:
            json.dump({"spans": [asdict(span) for span in self.spans],
                       "orphan_leaves": self.orphan_leaves,
                       "absent": self.absent}, fh)
