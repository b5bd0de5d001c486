"""Spans and set-up timing recorded from outside the program.

Each traced function is replaced by a wrapper in the namespace its caller
reads it from (a module attribute or a class attribute), so nothing under
``src/`` changes.  Spans are kept in memory as
``(span_id, parent_id, name, start, end)`` and written out when the
repetition ends.  Forked pool workers inherit the wrappers; their spans go
to one line-buffered file per worker process, which the owner reads back, so
spans below ``energy_sweep`` are kept when the sweep uses a process pool.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

perf_counter = time.perf_counter


class SetupClock:
    """Wall and CPU time of set-up calls; nested set-up calls count once."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self._depth = 0
        self.results = []  # return values of wrapped set-up calls

    @contextmanager
    def measure(self):
        if self._depth:
            yield
            return
        self._depth += 1
        w0, c0 = perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.wall += perf_counter() - w0
            self.cpu += time.process_time() - c0
            self._depth -= 1

    def wrap(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with self.measure():
                result = fn(*args, **kwargs)
            self.results.append(result)
            return result

        return timed


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self, spill_dir: Path):
        self.pid = os.getpid()
        self.spans: list = []
        self._stack: list = []
        self._count = 0
        self._spill_dir = Path(spill_dir)
        self._spill = None

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._count += 1
            sid = f"{os.getpid()}.{self._count}"
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self._record((sid, parent, name, t0, t1))

        return traced

    def _record(self, span) -> None:
        if os.getpid() == self.pid:
            self.spans.append(span)
            return
        if self._spill is None or self._spill[0] != os.getpid():
            path = self._spill_dir / f"spans-{os.getpid()}.jsonl"
            self._spill = (os.getpid(), open(path, "a", buffering=1))
        self._spill[1].write(json.dumps(span) + "\n")

    def all_spans(self) -> list:
        """Own spans plus those written by forked worker processes."""
        spans = list(self.spans)
        for path in sorted(self._spill_dir.glob("spans-*.jsonl")):
            with open(path) as fh:
                spans.extend(tuple(json.loads(line)) for line in fh if line.strip())
        return spans


def patch(owner, attr: str, wrap) -> None:
    """Replace ``owner.attr`` by ``wrap(owner.attr)``."""
    setattr(owner, attr, wrap(getattr(owner, attr)))


def _union_length(intervals) -> float:
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def span_stats(spans) -> dict:
    """Per span name: call count, total duration and self time.

    Self time is a span's duration minus the part of its interval covered by
    its direct child spans; children running in parallel worker processes
    are counted once where they overlap.
    """
    children: dict = {}
    for sid, parent, _name, t0, t1 in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    stats: dict = {}
    for sid, _parent, name, t0, t1 in spans:
        kids = [(max(a, t0), min(b, t1)) for a, b in children.get(sid, ())]
        covered = _union_length([(a, b) for a, b in kids if b > a])
        entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += t1 - t0
        entry["self_s"] += (t1 - t0) - covered
    return stats


def top_level_time(spans, owner_pid: int) -> float:
    """Summed duration of the owner process's spans that have no parent."""
    prefix = f"{owner_pid}."
    return sum(
        t1 - t0
        for sid, parent, _n, t0, t1 in spans
        if parent is None and sid.startswith(prefix)
    )
