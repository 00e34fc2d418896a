"""Spans around the benchmark's calls into each posheaf layer.

A span is one public call (or one op, or one probe group): name, start, end,
parent span, op id, and whether it belongs to a probe. Spans are kept in
memory and written out once, when the run ends. The program under test is
never patched: spans are recorded only at the boundary the benchmark itself
calls through.
"""
from __future__ import annotations

import json
import time
from pathlib import Path

from posheaf.report import ResourceLimit


class NullTracer:
    """Tracing off: every call goes straight through."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, **counts) -> None:
        pass

    def group(self, name, op, probe=False):
        return _NullGroup()


class _NullGroup:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class Tracer(NullTracer):
    """Records one span per call; `count` attaches counters to the span of
    the call that most recently ended."""

    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._last: dict | None = None

    def _open(self, name, op=None, probe=False) -> dict:
        parent = self._stack[-1] if self._stack else None
        span = {
            "id": len(self.spans),
            "parent": None if parent is None else parent["id"],
            "name": name,
            "op": op if parent is None else parent["op"],
            "probe": probe or (parent is not None and parent["probe"]),
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
            "error": None,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        self._last = span

    def call(self, name, fn, *args, **kwargs):
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        except ResourceLimit:
            span["error"] = "budget"
            raise
        finally:
            self._close(span)

    def count(self, **counts) -> None:
        for key, value in counts.items():
            self._last["counts"][key] = self._last["counts"].get(key, 0) + value

    def group(self, name, op, probe=False):
        return _Group(self, name, op, probe)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


class _Group:
    def __init__(self, tracer: Tracer, name, op, probe):
        self.tracer, self.name, self.op, self.probe = tracer, name, op, probe

    def __enter__(self):
        self.span = self.tracer._open(self.name, self.op, self.probe)
        return self.span

    def __exit__(self, *exc):
        self.tracer._close(self.span)
        return False


def duration(span) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict:
    """Span id -> its duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered = 0.0
        reach = lo
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            a, b = max(c["start"], reach), min(c["end"], hi)
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (hi - lo) - covered
    return out
