"""Structured tracing and metrics: the repo-wide observability substrate.

The paper's results *are* measurements — Tables I-III and Figure 5 report
flop counts and throughput of the same kernels this repo implements — and
every performance PR since needs a uniform answer to "where did the
time/flops/bytes go".  This module provides it:

* :class:`Recorder` — a tree of named spans.  Entering the same span name
  under the same parent *aggregates* (count += 1, seconds += dt), so a
  500-iteration solver produces one ``iteration`` node with ``count=500``,
  not 500 nodes.  Spans carry counters (``flops``, ``intops``, ``loads``,
  ``stores``, ``bytes``, or anything else) charged at the innermost open
  span; the recorder also holds run-level gauges (batch sizes, variant
  names) and free-form metadata.
* a *thread-local current recorder*: library code calls the module-level
  :func:`span` / :func:`count` / :func:`gauge` helpers, which are no-ops
  when no recorder is active — instrumentation stays in the hot paths at
  (measured, see ``benchmarks/bench_instrument_overhead.py``) negligible
  cost until someone turns it on with :meth:`Recorder.activate` or
  :func:`recording`.
* a bridge to the legacy flop accounting: :meth:`Recorder.flop_counter`
  returns a :class:`~repro.util.flopcount.FlopCounter` subclass that
  charges the recorder *and* (optionally) mirrors into a caller-supplied
  counter, so the new traces and the old ``counter=`` plumbing always see
  the same stream of charges and therefore agree exactly.
* export — :meth:`Recorder.report` (ASCII table), :meth:`Recorder.to_dict`
  / :meth:`Recorder.save_trace` (JSON) with a lossless round-trip via
  :meth:`Recorder.from_dict` / :func:`load_trace`.

Multi-worker runs (``repro.parallel``) give each worker its own recorder
and fold them back with :meth:`Recorder.absorb`, which namespaces the
worker's spans and gauges under a child node.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator

from repro.util.flopcount import FlopCounter

__all__ = [
    "SpanNode",
    "Recorder",
    "RecorderFlopCounter",
    "current_recorder",
    "recording",
    "span",
    "count",
    "gauge",
    "load_trace",
]

TRACE_SCHEMA = "repro-trace/1"


class SpanNode:
    """One node of the span tree: aggregated timing, call count, counters.

    Attributes
    ----------
    name : span name (unique among its siblings; re-entry aggregates).
    count : completed entries of this span.
    seconds : total wall time accumulated across entries.
    counters : ``{key: value}`` charges made while this span was innermost.
    children : ``{name: SpanNode}`` nested spans.
    """

    __slots__ = ("name", "count", "seconds", "counters", "children")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.seconds = 0.0
        self.counters: dict[str, float] = {}
        self.children: dict[str, SpanNode] = {}

    def child(self, name: str) -> "SpanNode":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = SpanNode(name)
        return node

    def add_counter(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    @property
    def self_seconds(self) -> float:
        """Time spent in this span excluding its (timed) children."""
        return self.seconds - sum(c.seconds for c in self.children.values())

    def total(self, key: str) -> float:
        """Sum of ``counters[key]`` over this node and all descendants."""
        t = self.counters.get(key, 0)
        for c in self.children.values():
            t += c.total(key)
        return t

    def walk(self, depth: int = 0) -> Iterator[tuple[int, "SpanNode"]]:
        """Depth-first ``(depth, node)`` traversal (children in insertion
        order — i.e. first-entered first)."""
        yield depth, self
        for c in self.children.values():
            yield from c.walk(depth + 1)

    def merge(self, other: "SpanNode") -> None:
        """Fold ``other``'s aggregates into this node, recursively."""
        self.count += other.count
        self.seconds += other.seconds
        for key, value in other.counters.items():
            self.add_counter(key, value)
        for name, child in other.children.items():
            self.child(name).merge(child)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "count": self.count,
            "seconds": self.seconds,
            "counters": dict(self.counters),
            "children": [c.to_dict() for c in self.children.values()],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpanNode":
        node = cls(data["name"])
        node.count = int(data.get("count", 0))
        node.seconds = float(data.get("seconds", 0.0))
        node.counters = dict(data.get("counters", {}))
        for child in data.get("children", []):
            node.children[child["name"]] = cls.from_dict(child)
        return node

    def __repr__(self) -> str:
        return (
            f"SpanNode({self.name!r}, count={self.count}, "
            f"seconds={self.seconds:.6f}, children={len(self.children)})"
        )


class Recorder:
    """Collects a span tree, counters, and gauges for one traced run.

    Not thread-safe by design: one recorder per thread (the parallel
    executor gives each worker its own and merges with :meth:`absorb`).
    """

    def __init__(self, meta: dict | None = None):
        self.root = SpanNode("root")
        self.gauges: dict[str, Any] = {}
        self.meta: dict[str, Any] = dict(meta or {})
        self.telemetry: list = []  # ConvergenceTelemetry streams, in order
        self._stack: list[SpanNode] = [self.root]

    # -- recording -------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Open (or re-enter, aggregating) a child span of the current one."""
        node = self._stack[-1].child(name)
        self._stack.append(node)
        t0 = time.perf_counter()
        try:
            yield node
        finally:
            node.seconds += time.perf_counter() - t0
            node.count += 1
            self._stack.pop()

    def add(self, key: str, value: float) -> None:
        """Charge ``value`` to counter ``key`` on the innermost open span."""
        self._stack[-1].add_counter(key, value)

    def gauge(self, key: str, value: Any) -> None:
        """Set a run-level gauge (last write wins)."""
        self.gauges[key] = value

    def add_telemetry(self, stream) -> None:
        """Attach a :class:`~repro.instrument.telemetry.ConvergenceTelemetry`
        stream; it rides along in the JSON trace (``repro report`` plots
        these as convergence curves)."""
        self.telemetry.append(stream)

    def flop_counter(self, mirror: FlopCounter | None = None) -> "RecorderFlopCounter":
        """A :class:`FlopCounter` whose charges also land on this recorder
        (and are forwarded to ``mirror`` when given)."""
        return RecorderFlopCounter(self, mirror=mirror)

    @contextmanager
    def activate(self):
        """Install as the thread-local current recorder for the block."""
        prev = getattr(_TLS, "current", None)
        _TLS.current = self
        try:
            yield self
        finally:
            _TLS.current = prev

    def absorb(self, other: "Recorder", under: str | None = None) -> None:
        """Merge another recorder's spans/counters under the current span
        (namespaced beneath a child named ``under`` when given); gauges are
        copied with an ``under.`` prefix."""
        target = self._stack[-1]
        if under is not None:
            target = target.child(under)
        for key, value in other.root.counters.items():
            target.add_counter(key, value)
        for name, child in other.root.children.items():
            target.child(name).merge(child)
        prefix = f"{under}." if under else ""
        for key, value in other.gauges.items():
            self.gauges[f"{prefix}{key}"] = value
        for stream in other.telemetry:
            self.telemetry.append(
                stream.renamed(f"{prefix}{stream.name}") if prefix else stream
            )

    # -- queries ---------------------------------------------------------

    def total(self, key: str) -> float:
        """Trace-wide total of counter ``key``."""
        return self.root.total(key)

    def find(self, path: str) -> SpanNode | None:
        """Look up a span by ``/``-separated path, e.g.
        ``"fleet_solve/sweep"``."""
        node = self.root
        for part in path.split("/"):
            node = node.children.get(part)
            if node is None:
                return None
        return node

    # -- export ----------------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "schema": TRACE_SCHEMA,
            "meta": dict(self.meta),
            "gauges": dict(self.gauges),
            "root": self.root.to_dict(),
        }
        if self.telemetry:  # optional, additive key of repro-trace/1
            out["telemetry"] = [s.to_dict() for s in self.telemetry]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Recorder":
        if data.get("schema", TRACE_SCHEMA) != TRACE_SCHEMA:
            raise ValueError(f"unsupported trace schema {data.get('schema')!r}")
        rec = cls(meta=data.get("meta"))
        rec.gauges = dict(data.get("gauges", {}))
        rec.root = SpanNode.from_dict(data["root"])
        rec._stack = [rec.root]
        if data.get("telemetry"):
            from repro.instrument.telemetry import ConvergenceTelemetry

            rec.telemetry = [
                ConvergenceTelemetry.from_dict(s) for s in data["telemetry"]
            ]
        return rec

    def save_trace(self, path) -> None:
        """Write the JSON trace (schema ``repro-trace/1``) to ``path``."""
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, default=_json_default)
            fh.write("\n")

    def report(self, counters: tuple[str, ...] | None = None) -> str:
        """Fixed-width ASCII summary of the span tree.

        Counter columns default to every key with a nonzero trace total,
        in a canonical order (``flops`` first).
        """
        if counters is None:
            seen: dict[str, None] = {}
            for _, node in self.root.walk():
                for key in node.counters:
                    seen.setdefault(key)
            canonical = ["flops", "intops", "loads", "stores", "bytes"]
            counters = tuple(
                sorted(seen, key=lambda k: (canonical.index(k) if k in canonical
                                            else len(canonical), k))
            )
        headers = ["span", "count", "total ms", "self ms", *counters]
        rows: list[list[str]] = []
        for depth, node in self.root.walk():
            if node is self.root:
                continue
            rows.append(
                [
                    "  " * (depth - 1) + node.name,
                    str(node.count),
                    f"{node.seconds * 1e3:.3f}",
                    f"{node.self_seconds * 1e3:.3f}",
                    *[_fmt_count(node.counters.get(k, 0)) for k in counters],
                ]
            )
        if not rows:
            rows.append(["(no spans recorded)"] + [""] * (len(headers) - 1))
        widths = [
            max(len(headers[c]), *(len(r[c]) for r in rows)) + 2
            for c in range(len(headers))
        ]
        lines = ["".join(h.ljust(w) for h, w in zip(headers, widths))]
        lines.append("".join("-" * (w - 1) + " " for w in widths))
        for r in rows:
            lines.append("".join(c.ljust(w) for c, w in zip(r, widths)))
        totals = ["TOTAL", "", f"{sum(c.seconds for c in self.root.children.values()) * 1e3:.3f}",
                  "", *[_fmt_count(self.total(k)) for k in counters]]
        lines.append("".join(str(c).ljust(w) for c, w in zip(totals, widths)))
        if self.gauges:
            lines.append("gauges: " + ", ".join(f"{k}={v}" for k, v in sorted(self.gauges.items())))
        return "\n".join(lines)


class RecorderFlopCounter(FlopCounter):
    """Bridge between the legacy ``counter=`` plumbing and a recorder.

    Behaves as a normal :class:`FlopCounter` (its own tallies accumulate)
    while duplicating every charge onto the recorder's innermost open span
    and onto an optional ``mirror`` counter — guaranteeing that trace flop
    totals and ``FlopCounter`` totals agree by construction.
    """

    def __init__(self, recorder: Recorder, mirror: FlopCounter | None = None):
        super().__init__()
        self._recorder = recorder
        self._mirror = mirror

    def add_flops(self, k: int) -> None:
        self.flops += k
        self._recorder.add("flops", k)
        if self._mirror is not None:
            self._mirror.add_flops(k)

    def add_intops(self, k: int) -> None:
        self.intops += k
        self._recorder.add("intops", k)
        if self._mirror is not None:
            self._mirror.add_intops(k)

    def add_loads(self, k: int) -> None:
        self.loads += k
        self._recorder.add("loads", k)
        if self._mirror is not None:
            self._mirror.add_loads(k)

    def add_stores(self, k: int) -> None:
        self.stores += k
        self._recorder.add("stores", k)
        if self._mirror is not None:
            self._mirror.add_stores(k)


# -- thread-local current recorder and zero-cost module helpers ----------

_TLS = threading.local()


class _NullSpan:
    """Shared no-op context manager returned when tracing is disabled."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


def current_recorder() -> Recorder | None:
    """The recorder installed on this thread, or ``None`` (tracing off)."""
    return getattr(_TLS, "current", None)


def span(name: str):
    """Context manager opening ``name`` on the current recorder; a shared
    no-op object when tracing is disabled (no allocation, no timing)."""
    rec = getattr(_TLS, "current", None)
    if rec is None:
        return _NULL_SPAN
    return rec.span(name)


def count(key: str, value: float) -> None:
    """Charge a counter on the current recorder's innermost span (no-op
    when tracing is disabled)."""
    rec = getattr(_TLS, "current", None)
    if rec is not None:
        rec.add(key, value)


def gauge(key: str, value) -> None:
    """Set a gauge on the current recorder (no-op when disabled)."""
    rec = getattr(_TLS, "current", None)
    if rec is not None:
        rec.gauge(key, value)


@contextmanager
def recording(meta: dict | None = None):
    """Create a fresh :class:`Recorder` and activate it for the block::

        with recording() as rec:
            find_eigenpairs(A, num_starts=64)
        print(rec.report())
    """
    rec = Recorder(meta=meta)
    with rec.activate():
        yield rec


def load_trace(path) -> Recorder:
    """Read a trace written by :meth:`Recorder.save_trace`."""
    with open(path) as fh:
        return Recorder.from_dict(json.load(fh))


def _fmt_count(v: float) -> str:
    if v == 0:
        return ""
    if v == int(v):
        return str(int(v))
    return f"{v:.3g}"


def _json_default(obj):
    try:
        import numpy as np

        if isinstance(obj, np.generic):
            return obj.item()
    except Exception:  # pragma: no cover - numpy is a hard dependency
        pass
    return str(obj)
