"""Span recorder for the traced benchmark run.

The recorder replaces public functions of taxelkit modules with wrappers
that record one span per call: name, start, end, parent span and run id,
plus counts (samples, bytes, computed flops). Spans stay in memory and are
written once, when the run ends. Untraced runs install no wrappers, so
they pay nothing.

A wrap target that no longer exists is recorded as absent instead of
failing, so a refactor that removes or renames a function degrades the
per-layer table rather than the run.
"""
from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable

# Percentiles considered for the tail statistic, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10

# Errors a name or count function may raise when a wrapped function's
# arguments or results change shape in a later refactor.
_SHAPE_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int
    samples: int = 0
    bytes: int = 0
    flops: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


# name_fn / count_fn receive (args, kwargs, result) of the wrapped call.
NameFn = Callable[[tuple, dict, Any], str]
CountFn = Callable[[tuple, dict, Any], dict]


class Recorder:
    """Installs wrappers, records spans, and restores the originals."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.count_errors: dict[str, str] = {}
        self.run_id = 0
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, name: str | NameFn,
             counts: CountFn | None = None) -> bool:
        """Wrap ``owner.attr``; returns False and records it absent if missing."""
        target = f"{getattr(owner, '__name__', owner)}.{attr}"
        original = getattr(owner, attr, None)
        if not callable(original):
            self.absent.append(target)
            return False
        recorder = self

        def wrapper(*args, **kwargs):
            idx = len(recorder.spans)
            parent = recorder._stack[-1] if recorder._stack else None
            span = Span(name="", start=time.perf_counter(), end=math.nan,
                        parent=parent, run_id=recorder.run_id)
            recorder.spans.append(span)
            recorder._stack.append(idx)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                recorder._stack.pop()
            recorder._label(span, target, name, counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))
        return True

    def _label(self, span, target, name, counts, args, kwargs, result) -> None:
        try:
            span.name = name(args, kwargs, result) if callable(name) else name
            if counts is not None:
                for key, value in counts(args, kwargs, result).items():
                    setattr(span, key, int(value))
        except _SHAPE_ERRORS as e:
            span.name = span.name or target
            self.count_errors.setdefault(target, f"{type(e).__name__}: {e}")

    def restore(self) -> None:
        """Put every original back, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write all spans as JSON lines, once, at the end of the run."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, span.start), min(hi, span.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(span.duration - covered)
    return out


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest ladder percentile with at least ten samples beyond it.

    Uses nearest-rank percentiles: the p-th percentile of n sorted samples
    is the value at rank ceil(p/100 * n), and the samples beyond it are the
    n - rank that follow. Returns (percentile, value), or None when even
    the median has fewer than ten samples beyond it.
    """
    xs = sorted(samples)
    n = len(xs)
    best = None
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(round(p * n / 100.0, 9)))
        if n - rank >= TAIL_MIN_BEYOND:
            best = (p, xs[rank - 1])
    return best


@dataclass
class SpanStats:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    bytes: int = 0
    flops: int = 0
    durations: list[float] = field(default_factory=list)

    def p50_ms(self) -> float:
        return statistics.median(self.durations) * 1e3 if self.durations else 0.0

    def tail(self) -> tuple[float, float] | None:
        return tail_percentile(self.durations) if self.durations else None


def aggregate(spans: list[Span]) -> dict[str, SpanStats]:
    """Per-name totals over all spans, with self time and every duration."""
    stats: dict[str, SpanStats] = {}
    for span, own in zip(spans, self_times(spans)):
        st = stats.setdefault(span.name, SpanStats())
        st.calls += 1
        st.s += span.duration
        st.self_s += own
        st.bytes += span.bytes
        st.flops += span.flops
        st.durations.append(span.duration)
    return stats
