"""Measurement machinery of the benchmark: spans, wrappers, timing rule, checks.

Nothing here knows about the mission pipeline; :mod:`layers` says which
entry points get a span and :mod:`workloads` drives them.

Spans live in memory as ``(id, name, start, end, parent, thread, cpu)`` and
are reduced to per-layer self time when the run ends.  The current span
is held in a :class:`contextvars.ContextVar` rather than a global stack,
so each thread and each asyncio task sees its own parent chain: two
service workers running side by side never parent their spans to each
other, while a call handed to ``asyncio.to_thread`` still nests under
the span that was open when it was handed over.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import hashlib
import itertools
import math
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    #: CPU seconds the span's own thread spent inside it.
    cpu: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._current: contextvars.ContextVar[Optional[int]] = \
            contextvars.ContextVar(f"perfbench-span-{id(self)}", default=None)
        self._off: contextvars.ContextVar[bool] = \
            contextvars.ContextVar(f"perfbench-off-{id(self)}", default=False)
        self._ids = itertools.count()
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def suspended(self):
        """Record no spans or counts inside: for the benchmark's own work
        around the measured region, such as writing a store to check it."""
        token = self._off.set(True)
        try:
            yield
        finally:
            self._off.reset(token)

    @contextlib.contextmanager
    def span(self, name: str):
        if self._off.get():
            yield
            return
        parent = self._current.get()
        with self._lock:
            span_id = next(self._ids)
        token = self._current.set(span_id)
        cpu = time.thread_time()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            cpu = time.thread_time() - cpu
            self._current.reset(token)
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent,
                                       threading.get_ident(), cpu))

    def add(self, name: str, value: float = 1.0) -> None:
        if self._off.get():
            return
        with self._lock:
            self.counts[name] += value

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name: each span's duration minus the part
        of its interval covered by the union of its children."""
        return self_times(self.spans)

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for s in self.spans:
            out[s.name] += 1
        return dict(out)


class NullTracer:
    """Stands in for :class:`Tracer` when a run measures end to end."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def suspended(self):
        return contextlib.nullcontext()

    def add(self, name: str, value: float = 1.0) -> None:
        pass


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    spans = list(spans)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        covered = _union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.span_id, ()))
        out[s.name] += s.duration - covered
    return dict(out)


def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


# -- wrapping entry points ---------------------------------------------------

AfterHook = Callable[[Tracer, tuple, dict, object], None]


class Instrumentation:
    """Wraps functions and methods in spans; :meth:`undo` restores them.

    A module-level function is replaced in every loaded module of the
    package that bound it by ``from ... import``, so callers that hold
    their own reference are traced too.
    """

    def __init__(self, tracer: Tracer, package: str) -> None:
        self.tracer = tracer
        self.package = package
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, name: str, after: Optional[AfterHook]) -> Callable:
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def method(self, cls: type, attr: str, name: str,
               after: Optional[AfterHook] = None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(self._wrap(raw.__func__, name, after))
        else:
            replacement = self._wrap(raw, name, after)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    def function(self, module, attr: str, name: str,
                 after: Optional[AfterHook] = None) -> None:
        original = getattr(module, attr)
        wrapper = self._wrap(original, name, after)
        prefix = self.package + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package or mod_name.startswith(prefix)):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def wrapper_cost_s(n: int = 20000) -> float:
    """Seconds one wrapped call adds, measured on a no-op function."""
    tracer = Tracer()

    def noop():
        return None

    inst = Instrumentation(tracer, "")
    wrapped = inst._wrap(noop, "noop", None)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        wrapped()
    traced = time.perf_counter() - t0
    return max(traced - bare, 0.0) / n


# -- timing rule --------------------------------------------------------------

#: Percentiles tried from the highest down; the first one with at least
#: ten samples beyond it is reported next to the median.
PERCENTILES = (99.9, 99.0, 90.0)


def summarize(samples: Iterable[float]) -> dict:
    """Median plus the highest percentile with >= 10 samples beyond it.

    Returns ``{"n", "p50"}`` and, when the sample count allows one,
    ``"pct"`` (which percentile) and ``"value"`` (its value).
    """
    values = sorted(samples)
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    out = {"n": n, "p50": statistics.median(values)}
    for pct in PERCENTILES:
        rank = _rank(pct, n)
        if n - rank >= 10:
            out["pct"] = pct
            out["value"] = values[rank - 1]
            break
    return out


def _rank(pct: float, n: int) -> int:
    """Nearest rank (1-based) of percentile ``pct`` among ``n`` samples."""
    return max(1, math.ceil(round(pct / 100.0 * n, 9)))


def describe(summary: dict, unit: str) -> str:
    text = f"p50 {summary['p50']:.4g} {unit}"
    if "pct" in summary:
        text += f", p{summary['pct']:g} {summary['value']:.4g} {unit}"
    return text + f" (n={summary['n']})"


# -- output checks ------------------------------------------------------------

@dataclass
class Checks:
    """Named pass/fail output checks of one run."""

    failures: list[str] = field(default_factory=list)
    passed: int = 0

    def expect(self, ok: bool, what: str) -> bool:
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)
        return ok

    @property
    def ok(self) -> bool:
        return not self.failures


def blake(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()
