"""Spans recorded from outside the program, and the self-time arithmetic.

A :class:`Tracer` replaces a public function or method of the program
with a wrapper that records one :class:`Span` per call: a name, a start,
an end, the span that was open when the call began (its parent), and a
request id.  The open span lives in a :class:`contextvars.ContextVar`,
so coroutines served concurrently on one event loop each see their own
parent: asyncio copies the context into every task it creates.  A
request id, once set on a span, is inherited by every span below it.

Self time is a span's duration minus the part of its interval that its
children cover (the union of their intervals, clipped to the parent).
A child counts only if it carries the parent's request id, so a span of
another request that overlaps in time never shortens this one.

Nothing here imports the program: the probes that decide *which*
functions get spans live in :mod:`perfbench.probes`.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import signal
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable

__all__ = [
    "Span",
    "Tracer",
    "Marks",
    "self_times",
    "covered",
    "summarize",
]


@dataclass
class Span:
    """One call into the program, in ``time.perf_counter`` seconds."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None = None
    rid: int | None = None
    units: int = 0
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its same-request children cover."""
    spans = list(spans)
    by_id = {span.id: span for span in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is not None and span.rid == parent.rid:
            children[parent.id].append((span.start, span.end))
    return {
        span.id: span.duration - covered(children[span.id], span.start, span.end)
        for span in spans
    }


def summarize(spans: Iterable[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self seconds, units, errors by type."""
    spans = list(spans)
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        row = out.setdefault(
            span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "units": 0, "errors": {}}
        )
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += selfs[span.id]
        row["units"] += span.units
        if span.error is not None:
            row["errors"][span.error] = row["errors"].get(span.error, 0) + 1
    return out


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory.

    Use as a context manager: every wrapper installed with :meth:`patch`
    is removed again on exit, so the program returns to its untraced
    form.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._open: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            "perfbench_open_span", default=None
        )
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------
    def _begin(self, name: str, rid: int | None, units: int) -> tuple[Span, contextvars.Token]:
        parent = self._open.get()
        if rid is None and parent is not None:
            rid = parent.rid
        span = Span(
            id=next(self._ids),
            name=name,
            start=self.clock(),
            end=0.0,
            parent=parent.id if parent is not None else None,
            rid=rid,
            units=units,
        )
        return span, self._open.set(span)

    def _end(self, span: Span, token: contextvars.Token, error: BaseException | None) -> None:
        span.end = self.clock()
        if error is not None:
            span.error = type(error).__name__
        self._open.reset(token)
        self.spans.append(span)

    def wrap(
        self,
        fn: Callable,
        name: str,
        rid_of: Callable[..., int | None] | None = None,
        units_of: Callable[..., int] | None = None,
    ) -> Callable:
        """A wrapper of ``fn`` that records a span named ``name`` per call.

        ``rid_of(*args, **kwargs)`` may give the call a request id;
        ``units_of(*args, **kwargs)`` a count of work items it handles.
        """
        tracer = self

        def labels(args, kwargs) -> tuple[int | None, int]:
            rid = rid_of(*args, **kwargs) if rid_of is not None else None
            units = units_of(*args, **kwargs) if units_of is not None else 0
            return rid, units

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                span, token = tracer._begin(name, *labels(args, kwargs))
                error = None
                try:
                    return await fn(*args, **kwargs)
                except BaseException as exc:
                    error = exc
                    raise
                finally:
                    tracer._end(span, token, error)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, token = tracer._begin(name, *labels(args, kwargs))
            error = None
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                tracer._end(span, token, error)

        return wrapper

    def patch(self, owner: object, attr: str, name: str, **labels) -> None:
        """Replace ``owner.attr`` (a function, method or classmethod) by a traced one."""
        patch_attr(owner, attr, lambda fn: self.wrap(fn, name, **labels), self._patches)

    def close(self) -> None:
        """Put every patched attribute back."""
        unpatch_all(self._patches)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Marks:
    """Clock-stamp markers for the untraced runs.

    :meth:`mark` records the clock and a kind each time a patched function
    returns (or is entered), with no span bookkeeping.  End-to-end
    latencies of work units that the program does not expose as calls
    (one BPR batch, one attacker step) are the gaps between consecutive
    marks.

    With a ``probe`` (a callable that runs a fixed tiny kernel and
    returns its duration in seconds) every mark also samples the host's
    momentary speed.  The clock stops while the probe runs, so the gaps
    between marks hold only the program's own time.
    """

    def __init__(self, probe: Callable[[], float] | None = None) -> None:
        self.probe = probe
        self.times: list[float] = []
        self.kinds: list[str] = []
        self.probes: list[float] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.paused_s = 0.0  # wall time spent in probes
        self._patches: list[tuple[object, str, object]] = []

    def clock(self) -> float:
        """``time.perf_counter()`` less the time spent in probes."""
        return time.perf_counter() - self.paused_s

    def mark(self, kind: str) -> None:
        self.times.append(self.clock())
        self.kinds.append(kind)
        if self.probe is not None:
            t0 = time.perf_counter()
            self.probes.append(self.probe())
            self.paused_s += time.perf_counter() - t0

    @contextlib.contextmanager
    def every(self, interval_s: float):
        """Mark ``"tick"`` every ``interval_s`` of wall time within the block.

        For code with no call worth patching: a ``SIGALRM`` handler marks
        between two bytecodes of the main thread, whatever it is running.
        """
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.mark("tick"))
        signal.setitimer(signal.ITIMER_REAL, interval_s, interval_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def patch(self, owner: object, attr: str, kind: str, at: str = "return") -> None:
        """Mark ``kind`` when ``owner.attr`` returns (``at="return"``) or is entered."""
        calls = self.calls
        mark = self.mark

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[kind] += 1
                if at == "enter":
                    mark(kind)
                    return fn(*args, **kwargs)
                result = fn(*args, **kwargs)
                mark(kind)
                return result

            return wrapper

        patch_attr(owner, attr, make, self._patches)

    def close(self) -> None:
        unpatch_all(self._patches)

    def __enter__(self) -> "Marks":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def patch_attr(owner: object, attr: str, make: Callable, record: list) -> None:
    """Set ``owner.attr`` to ``make(original)``; remember how to undo it.

    Reads the raw attribute from the owner's ``__dict__`` so class and
    static methods are unwrapped, wrapped and re-wrapped in their kind.
    """
    raw = vars(owner)[attr] if attr in vars(owner) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        replacement = classmethod(make(raw.__func__))
    elif isinstance(raw, staticmethod):
        replacement = staticmethod(make(raw.__func__))
    else:
        replacement = make(raw)
    had_own = attr in vars(owner)
    record.append((owner, attr, raw if had_own else None))
    setattr(owner, attr, replacement)


def unpatch_all(record: list) -> None:
    while record:
        owner, attr, raw = record.pop()
        if raw is None:
            delattr(owner, attr)
        else:
            setattr(owner, attr, raw)
