"""Bounded, low-overhead typed event stream for fleet runs.

A fleet run — one inline fleet or the process tier — can
spool *typed events* (shard start/finish, lane retirements, compactions,
steals, requeues, guard trips, plan-cache hits) to a per-run JSONL file.
The spool is the operational complement of the span tree: spans answer
"where did the time go" after the run, the spool answers "what is the
fleet doing *right now*" while it runs (``repro top`` tails it live).

Design constraints, in order:

* **Crash-safe by construction.**  Every event is one ``os.write`` on an
  ``O_APPEND`` descriptor — a single atomic append per line, never a
  buffered stream.  A worker that is SIGKILLed mid-run leaves at worst
  one torn final line, which :func:`read_events` skips; everything the
  worker wrote before the kill survives.
* **Bounded.**  High-rate engine events (``retire``/``compact``/
  ``plan_cache``) are decimated above :data:`DEFAULT_RATE_CAP` events
  per second per spool; dropped counts are accounted in a ``decimated``
  event so the file records that (and how much) it thinned.  Lifecycle
  events (:data:`NO_DECIMATE`) are never dropped.
* **Disabled = free.**  Exactly like :func:`repro.instrument.span`, the
  module-level :func:`emit` reads one thread-local and returns when no
  spool is active, so instrumented hot paths cost one attribute lookup
  when events are off.

Correlation model: every line carries ``run`` (the run id minted by
:func:`new_run_id`), ``src`` (``"parent"``, ``"w3"``...), and a
wall-clock ``t``.  The same run id is stamped into the trace meta, the
checkpoint header, and bench documents, so events ↔ spans ↔ metrics ↔
checkpoints from one run join on it.  See ``docs/events.md``.
"""

from __future__ import annotations

import contextlib
import json
import os
import socket
import threading
import time
import uuid
from pathlib import Path

__all__ = [
    "DEFAULT_RATE_CAP",
    "EVENTS_SCHEMA",
    "EVENT_TYPES",
    "NO_DECIMATE",
    "EventSpool",
    "current_spool",
    "emit",
    "new_run_id",
    "provenance",
    "read_events",
    "use_spool",
    "validate_event",
]

#: Schema tag on the spool's header line.  Distinct from the
#: ``repro-events/1`` *trace conversion* schema in
#: :func:`repro.instrument.export.jsonl_events` — that one is a post-hoc
#: flattening of a span tree; this one is a live operational stream.
EVENTS_SCHEMA = "repro-fleet-events/1"

#: Decimation threshold: non-lifecycle events beyond this many per
#: second (per spool) are counted and dropped, not written.
DEFAULT_RATE_CAP = 500

#: Every line carries these; ``src`` identifies the emitting actor
#: (``"parent"``, process worker ``"w<id>"``).
BASE_FIELDS = ("ev", "t", "run", "src")

#: event type -> payload fields required by :func:`validate_event`.
#: Emitters may add extra fields; readers must ignore unknown ones.
EVENT_TYPES = {
    "header": ("schema", "host", "pid", "version"),
    "run_start": ("tensors", "lanes", "workers", "shards", "executor"),
    "run_finish": ("seconds", "requeues", "failed"),
    "worker_start": ("pid",),
    "worker_exit": ("shards",),
    "shard_start": ("shard", "lo", "hi"),
    "shard_finish": ("shard", "seconds", "sweeps"),
    "steal": ("shard",),
    "requeue": ("shard", "attempt"),
    "writeoff": ("shard",),
    "retire": ("converged", "failed", "active"),
    "compact": ("active", "total"),
    "guard_trip": ("reason",),
    "plan_cache": ("outcome",),
    "decimated": ("dropped",),
    "stop": ("active",),
    # ``repro serve`` request/daemon lifecycle (see docs/serve.md)
    "job_submit": ("job",),
    "job_start": ("job",),
    "job_finish": ("job", "status", "seconds"),
    "job_reject": ("reason",),
    "drain_start": ("inflight", "queued"),
    "drain_finish": ("seconds", "jobs"),
    "breaker": ("state",),
}

#: Lifecycle events exempt from decimation: each is emitted O(shards) or
#: O(workers) times per run, and losing one corrupts dashboard state
#: (an unmatched ``shard_start`` reads as a hung shard forever).
NO_DECIMATE = frozenset({
    "header", "run_start", "run_finish", "worker_start", "worker_exit",
    "shard_start", "shard_finish", "steal", "requeue", "writeoff",
    "guard_trip", "decimated", "stop",
    "job_submit", "job_start", "job_finish", "job_reject",
    "drain_start", "drain_finish", "breaker",
})


def new_run_id() -> str:
    """A fresh 12-hex-digit run id correlating one run's artifacts."""
    return uuid.uuid4().hex[:12]


def provenance() -> dict:
    """The ``{host, pid, version}`` stamp shared by every artifact writer
    (event spool header, trace meta, checkpoints, bench documents)."""
    from repro import __version__

    return {
        "host": socket.gethostname(),
        "pid": os.getpid(),
        "version": __version__,
    }


class EventSpool:
    """Append-only JSONL event sink with atomic line writes.

    Construct via :meth:`open` (which writes the ``header`` line) and
    close via :meth:`close` / the context-manager protocol.  Thread-safe:
    rate accounting and the fd are guarded by one lock.
    """

    def __init__(self, fd: int, path, run_id: str, src: str,
                 rate_cap: int | None):
        self._fd = fd
        self.path = str(path)
        self.run_id = run_id
        self.src = src
        self.rate_cap = rate_cap
        self.emitted = 0
        self.closed = False
        self._lock = threading.Lock()
        self._window_start = 0.0
        self._window_count = 0
        self._dropped = 0

    @classmethod
    def open(cls, path, *, run_id: str | None = None, src: str = "parent",
             rate_cap: int | None = DEFAULT_RATE_CAP,
             header: bool = True) -> "EventSpool":
        """Open (append) ``path`` as an event spool.

        Several actors may append to the same file concurrently — each
        opens its own ``O_APPEND`` descriptor (process workers call this
        with ``header=False`` and their own ``src``), and the kernel
        serializes whole-line appends.
        """
        fd = os.open(str(path),
                     os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        spool = cls(fd, path, run_id or new_run_id(), src, rate_cap)
        if header:
            spool.emit("header", schema=EVENTS_SCHEMA, **provenance())
        return spool

    def emit(self, ev: str, **fields) -> bool:
        """Append one event line; returns ``False`` if decimated/closed.

        The line is a single ``os.write`` — atomic on POSIX ``O_APPEND``
        descriptors for these sizes — so a reader (or a kill) never sees
        an interleaved half-line from a live writer.
        """
        if self.closed:
            return False
        now = time.time()
        with self._lock:
            if self.closed:  # lost the close race
                return False
            if self.rate_cap and ev not in NO_DECIMATE:
                if now - self._window_start >= 1.0:
                    self._flush_dropped(now)
                    self._window_start = now
                    self._window_count = 0
                if self._window_count >= self.rate_cap:
                    self._dropped += 1
                    return False
                self._window_count += 1
            rec = {"ev": ev, "t": now, "run": self.run_id, "src": self.src}
            rec.update(fields)
            self._write(rec)
        return True

    def _flush_dropped(self, now: float) -> None:
        # caller holds the lock
        if self._dropped:
            self._write({"ev": "decimated", "t": now, "run": self.run_id,
                         "src": self.src, "dropped": self._dropped})
            self._dropped = 0

    def _write(self, rec: dict) -> None:
        line = json.dumps(rec, separators=(",", ":"), default=str) + "\n"
        os.write(self._fd, line.encode("utf-8"))
        self.emitted += 1

    def close(self) -> None:
        with self._lock:
            if self.closed:
                return
            self._flush_dropped(time.time())
            self.closed = True
            os.close(self._fd)

    def __enter__(self) -> "EventSpool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


_TLS = threading.local()


def current_spool():
    """The active spool of this thread, or ``None`` (events disabled)."""
    return getattr(_TLS, "current", None)


@contextlib.contextmanager
def use_spool(spool):
    """Make ``spool`` the active event sink for this thread."""
    prev = getattr(_TLS, "current", None)
    _TLS.current = spool
    try:
        yield spool
    finally:
        _TLS.current = prev


def emit(ev: str, **fields) -> bool:
    """Module-level emit through the active spool; no-op when disabled.

    This is the hook instrumented hot paths call — the disabled cost is
    one thread-local read plus a ``None`` check, the same budget
    discipline as :func:`repro.instrument.span` (see
    ``benchmarks/bench_events_overhead.py``).
    """
    spool = getattr(_TLS, "current", None)
    if spool is None:
        return False
    return spool.emit(ev, **fields)


def read_events(path, *, strict: bool = False) -> list[dict]:
    """Parse an event spool, tolerating torn/corrupt lines.

    A worker killed mid-``write`` can leave one partial line (typically
    the last, but concurrent appenders make no ordering promise); those
    lines are skipped — never raised — unless ``strict=True``.  Returns
    the events in file order.
    """
    data = Path(path).read_bytes()
    records: list[dict] = []
    for lineno, raw in enumerate(data.split(b"\n"), start=1):
        if not raw.strip():
            continue
        try:
            rec = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            if strict:
                raise ValueError(
                    f"{path}:{lineno}: unparseable event line: {exc}"
                ) from exc
            continue
        if not isinstance(rec, dict):
            if strict:
                raise ValueError(
                    f"{path}:{lineno}: event line is not an object")
            continue
        records.append(rec)
    return records


def validate_event(rec: dict) -> dict:
    """Check one event against the ``repro-fleet-events/1`` schema.

    Returns ``rec`` unchanged; raises :class:`ValueError` naming the
    first violation (missing base field, unknown type, missing payload
    field).  Extra fields are allowed — the schema is open for forward
    compatibility.
    """
    if not isinstance(rec, dict):
        raise ValueError(f"event must be an object, got {type(rec).__name__}")
    for key in BASE_FIELDS:
        if key not in rec:
            raise ValueError(f"event missing base field {key!r}: {rec!r}")
    if not isinstance(rec["t"], (int, float)):
        raise ValueError(f"event 't' must be a number, got {rec['t']!r}")
    ev = rec["ev"]
    if ev not in EVENT_TYPES:
        raise ValueError(f"unknown event type {ev!r}")
    for key in EVENT_TYPES[ev]:
        if key not in rec:
            raise ValueError(f"{ev!r} event missing field {key!r}: {rec!r}")
    return rec
