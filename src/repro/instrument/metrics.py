"""Process-local metrics: Counter / Gauge / Histogram with labels.

The span recorder (:mod:`repro.instrument.recorder`) answers "where did
*this run's* time go"; this module answers the complementary question —
"what has this *process* done so far" — with the three standard metric
kinds:

* :class:`Counter` — monotone totals (runs started, pairs converged).
* :class:`Gauge` — last-written values (current batch size, active workers).
* :class:`Histogram` — streaming distributions (iterations to convergence,
  per-run wall seconds) with log-spaced buckets, exact count/sum/min/max,
  and **streaming percentiles**: each tracked quantile is estimated online
  by the P² algorithm of Jain & Chlamtac (no samples stored), falling back
  to bucket interpolation after a merge or a batch observation (P² states
  do not merge; bucket counts do, exactly).

Metrics live in a :class:`MetricsRegistry`.  A process-wide default
registry backs the module helpers; :func:`use_registry` installs a
thread-local override so the parallel executor can give every worker its
own registry and fold them back losslessly with :meth:`MetricsRegistry.merge`
(counters add, gauges last-write, histogram buckets add) — the same
snapshot/merge discipline :meth:`Recorder.absorb` uses for spans.

Snapshots (:meth:`MetricsRegistry.snapshot`, schema ``repro-metrics/1``)
are plain JSON-able dicts, embeddable in traces and ``BENCH_*.json``
documents, and renderable as Prometheus text exposition by
:mod:`repro.instrument.export`.

Solvers emit a small fixed set of metrics once per run (never inside the
iteration loop), so the always-on cost is a few dict operations per solve
— budgeted alongside the disabled-tracing overhead in
``benchmarks/bench_instrument_overhead.py``.
"""

from __future__ import annotations

import bisect
import math
import threading
from contextlib import contextmanager
from typing import Any, Iterator, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "P2Quantile",
    "default_buckets",
    "default_registry",
    "get_registry",
    "observe_breaker_state",
    "observe_codegen_compile",
    "observe_fleet_compaction",
    "observe_fleet_retired",
    "observe_ipc_payload",
    "observe_plan_cache",
    "observe_plan_disk_cache",
    "observe_queue_wait",
    "observe_serve_degraded",
    "observe_serve_job",
    "observe_serve_queue_depth",
    "observe_serve_rejected",
    "observe_serve_request",
    "observe_shm_attach",
    "observe_shm_publish",
    "observe_shm_unlink",
    "observe_solver_run",
    "use_registry",
]

METRICS_SCHEMA = "repro-metrics/1"

_DEFAULT_QUANTILES = (0.5, 0.9, 0.99)


def default_buckets() -> tuple[float, ...]:
    """Log-spaced upper bounds (1-2-5 per decade, 1e-6 .. 1e6).

    Wide enough for seconds, iteration counts, and flop rates alike; the
    implicit final bucket is ``+inf``.
    """
    bounds = []
    for decade in range(-6, 7):
        for mantissa in (1.0, 2.0, 5.0):
            bounds.append(mantissa * 10.0**decade)
    return tuple(bounds)


class P2Quantile:
    """Streaming quantile estimation — the P² algorithm (Jain & Chlamtac,
    CACM 1985): five markers track the quantile with O(1) memory and no
    stored samples.  Exact until five observations, then a piecewise-
    parabolic estimate."""

    __slots__ = ("q", "_heights", "_pos", "_desired", "_incr", "_n")

    def __init__(self, q: float):
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self._heights: list[float] = []
        self._pos = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._incr = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
        self._n = 0

    def observe(self, x: float) -> None:
        x = float(x)
        self._n += 1
        h = self._heights
        if self._n <= 5:
            bisect.insort(h, x)
            return
        # locate the cell containing x, clamping the extreme markers
        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            h[4] = x
            k = 3
        else:
            k = 0
            while k < 3 and x >= h[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            self._pos[i] += 1.0
        for i in range(5):
            self._desired[i] += self._incr[i]
        # adjust the three interior markers toward their desired positions
        for i in (1, 2, 3):
            d = self._desired[i] - self._pos[i]
            if (d >= 1.0 and self._pos[i + 1] - self._pos[i] > 1.0) or (
                d <= -1.0 and self._pos[i - 1] - self._pos[i] < -1.0
            ):
                step = 1.0 if d >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:  # parabolic estimate escaped the bracket: go linear
                    j = i + int(step)
                    h[i] += step * (h[j] - h[i]) / (self._pos[j] - self._pos[i])
                self._pos[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        h, pos = self._heights, self._pos
        return h[i] + step / (pos[i + 1] - pos[i - 1]) * (
            (pos[i] - pos[i - 1] + step)
            * (h[i + 1] - h[i])
            / (pos[i + 1] - pos[i])
            + (pos[i + 1] - pos[i] - step)
            * (h[i] - h[i - 1])
            / (pos[i] - pos[i - 1])
        )

    @property
    def count(self) -> int:
        return self._n

    @property
    def value(self) -> float:
        """Current estimate (exact order statistic until 5 observations)."""
        if self._n == 0:
            return math.nan
        if self._n <= 5:
            # exact quantile of the sorted prefix (nearest-rank)
            idx = min(int(self.q * self._n), self._n - 1)
            return self._heights[idx]
        return self._heights[2]


def _label_key(labelnames: tuple[str, ...], labels: dict) -> tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"expected labels {labelnames}, got {tuple(sorted(labels))}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class _Metric:
    """Common machinery: a named family of label-keyed series."""

    kind = "untyped"

    def __init__(self, name: str, description: str = "",
                 labelnames: Sequence[str] = ()):
        self.name = name
        self.description = description
        self.labelnames = tuple(labelnames)
        self._series: dict[tuple[str, ...], Any] = {}
        self._lock = threading.Lock()

    def _new_series(self):
        raise NotImplementedError

    def labels(self, **labels):
        """The series for one label-value combination (created on first
        use).  Metrics without labels proxy directly on the family."""
        key = _label_key(self.labelnames, labels)
        series = self._series.get(key)
        if series is None:
            with self._lock:
                series = self._series.setdefault(key, self._new_series())
        return series

    @property
    def _default(self):
        if self.labelnames:
            raise ValueError(
                f"metric {self.name!r} has labels {self.labelnames}; "
                f"use .labels(...)"
            )
        return self.labels()

    def series_items(self) -> Iterator[tuple[dict, Any]]:
        """``(labels_dict, series)`` pairs in insertion order."""
        for key, series in list(self._series.items()):
            yield dict(zip(self.labelnames, key)), series

    def _snapshot_series(self, series) -> dict:
        raise NotImplementedError

    def _merge_series(self, series, data: dict) -> None:
        raise NotImplementedError

    def snapshot(self) -> dict:
        return {
            "name": self.name,
            "type": self.kind,
            "help": self.description,
            "labelnames": list(self.labelnames),
            "series": [
                {"labels": labels, **self._snapshot_series(series)}
                for labels, series in self.series_items()
            ],
        }


class _CounterSeries:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount


class Counter(_Metric):
    """Monotonically increasing total."""

    kind = "counter"

    def _new_series(self):
        return _CounterSeries()

    def inc(self, amount: float = 1.0) -> None:
        self._default.inc(amount)

    @property
    def value(self) -> float:
        return self._default.value

    def _snapshot_series(self, series) -> dict:
        return {"value": series.value}

    def _merge_series(self, series, data: dict) -> None:
        series.value += float(data["value"])


class _GaugeSeries:
    __slots__ = ("value",)

    def __init__(self):
        self.value = math.nan

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value = (0.0 if math.isnan(self.value) else self.value) + amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class Gauge(_Metric):
    """Last-written value (can move either way)."""

    kind = "gauge"

    def _new_series(self):
        return _GaugeSeries()

    def set(self, value: float) -> None:
        self._default.set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default.inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default.dec(amount)

    @property
    def value(self) -> float:
        return self._default.value

    def _snapshot_series(self, series) -> dict:
        return {"value": series.value}

    def _merge_series(self, series, data: dict) -> None:
        series.value = float(data["value"])  # last write wins


class _HistogramSeries:
    __slots__ = ("bounds", "bucket_counts", "count", "sum", "min", "max",
                 "_p2", "_p2_valid")

    def __init__(self, bounds: tuple[float, ...],
                 quantiles: tuple[float, ...] = _DEFAULT_QUANTILES):
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = +inf overflow
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._p2 = {q: P2Quantile(q) for q in quantiles}
        self._p2_valid = True

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        if self._p2_valid:
            for est in self._p2.values():
                est.observe(value)

    def observe_many(self, values) -> None:
        """Fold a batch in the way :meth:`merge` folds another series:
        buckets, count, sum, min and max add exactly, and the P² markers
        are invalidated, so percentiles come from bucket interpolation.
        A batch thus costs a few numpy calls, not a Python P² update per
        value."""
        import numpy as np

        arr = np.asarray(values, dtype=np.float64).ravel()
        if arr.size == 0:
            return
        self.count += int(arr.size)
        self.sum += float(arr.sum())
        self.min = min(self.min, float(arr.min()))
        self.max = max(self.max, float(arr.max()))
        idx = np.searchsorted(self.bounds, arr, side="left")
        counts = np.bincount(idx, minlength=len(self.bucket_counts))
        for i in np.flatnonzero(counts):
            self.bucket_counts[int(i)] += int(counts[i])
        self._p2_valid = False

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else math.nan

    def percentile(self, q: float) -> float:
        """Streaming quantile estimate.

        Uses the live P² marker for a tracked quantile; otherwise (or after
        a merge or a batch observation invalidated the markers)
        interpolates linearly inside the bucket containing the target rank,
        clamped to the observed [min, max] range.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return math.nan
        if self._p2_valid and q in self._p2:
            return self._p2[q].value
        target = q * self.count
        cum = 0
        for i, c in enumerate(self.bucket_counts):
            if c == 0:
                continue
            if cum + c >= target:
                lo = self.bounds[i - 1] if i > 0 else self.min
                hi = self.bounds[i] if i < len(self.bounds) else self.max
                frac = (target - cum) / c
                est = lo + frac * (hi - lo)
                return min(max(est, self.min), self.max)
            cum += c
        return self.max

    def merge(self, other: "_HistogramSeries") -> None:
        if self.bounds != other.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        for i, c in enumerate(other.bucket_counts):
            self.bucket_counts[i] += c
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        if other.count:
            self._p2_valid = False  # P² states don't merge; buckets do


class Histogram(_Metric):
    """Streaming distribution: buckets + count/sum/min/max + P² quantiles."""

    kind = "histogram"

    def __init__(self, name: str, description: str = "",
                 labelnames: Sequence[str] = (),
                 buckets: Sequence[float] | None = None):
        super().__init__(name, description, labelnames)
        bounds = tuple(float(b) for b in (buckets or default_buckets()))
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("bucket bounds must be strictly increasing")
        self.bounds = bounds

    def _new_series(self):
        return _HistogramSeries(self.bounds)

    def observe(self, value: float) -> None:
        self._default.observe(value)

    def observe_many(self, values) -> None:
        self._default.observe_many(values)

    def percentile(self, q: float) -> float:
        return self._default.percentile(q)

    @property
    def count(self) -> int:
        return self._default.count

    @property
    def sum(self) -> float:
        return self._default.sum

    def _snapshot_series(self, series) -> dict:
        return {
            "count": series.count,
            "sum": series.sum,
            "min": series.min if series.count else None,
            "max": series.max if series.count else None,
            "bounds": list(series.bounds),
            "bucket_counts": list(series.bucket_counts),
            "percentiles": {
                str(q): series.percentile(q) for q in _DEFAULT_QUANTILES
            } if series.count else {},
        }

    def _merge_series(self, series, data: dict) -> None:
        other = _HistogramSeries(tuple(data["bounds"]))
        other.bucket_counts = [int(c) for c in data["bucket_counts"]]
        other.count = int(data["count"])
        other.sum = float(data["sum"])
        other.min = float(data["min"]) if data.get("min") is not None else math.inf
        other.max = float(data["max"]) if data.get("max") is not None else -math.inf
        series.merge(other)


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Get-or-create home for a process's (or worker's) metrics.

    ``counter`` / ``gauge`` / ``histogram`` return the existing family when
    the name is already registered (the declared kind and label names must
    match — a mismatch is a bug, reported as ``ValueError``).
    """

    def __init__(self):
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name, description, labelnames, **kw):
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = cls(name, description, labelnames, **kw)
                    self._metrics[name] = metric
        if not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        if tuple(labelnames) != metric.labelnames:
            raise ValueError(
                f"metric {name!r} registered with labels {metric.labelnames}, "
                f"requested {tuple(labelnames)}"
            )
        return metric

    def counter(self, name: str, description: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, description, labelnames)

    def gauge(self, name: str, description: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, description, labelnames)

    def histogram(self, name: str, description: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] | None = None) -> Histogram:
        return self._get_or_create(Histogram, name, description, labelnames,
                                   buckets=buckets)

    def get(self, name: str) -> _Metric | None:
        return self._metrics.get(name)

    def collect(self) -> list[_Metric]:
        return list(self._metrics.values())

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()

    # -- snapshot / merge ------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-able dump of every series (schema ``repro-metrics/1``)."""
        return {
            "schema": METRICS_SCHEMA,
            "metrics": [m.snapshot() for m in self.collect()],
        }

    def merge(self, other: "MetricsRegistry | dict") -> None:
        """Fold another registry (or a snapshot of one) into this one:
        counters and histogram buckets add exactly; gauges last-write."""
        snap = other.snapshot() if isinstance(other, MetricsRegistry) else other
        if snap.get("schema", METRICS_SCHEMA) != METRICS_SCHEMA:
            raise ValueError(
                f"unsupported metrics schema {snap.get('schema')!r}"
            )
        for mdata in snap.get("metrics", []):
            cls = _KINDS.get(mdata.get("type"))
            if cls is None:
                raise ValueError(f"unknown metric type {mdata.get('type')!r}")
            kw = {}
            if cls is Histogram and mdata.get("series"):
                kw["buckets"] = mdata["series"][0]["bounds"]
            metric = self._get_or_create(
                cls, mdata["name"], mdata.get("help", ""),
                tuple(mdata.get("labelnames", ())), **kw,
            )
            for sdata in mdata.get("series", []):
                series = metric.labels(**sdata.get("labels", {}))
                metric._merge_series(series, sdata)


# -- default registry and thread-local override ---------------------------

_DEFAULT_REGISTRY = MetricsRegistry()
_TLS = threading.local()


def default_registry() -> MetricsRegistry:
    """The process-wide registry (ignoring any thread-local override)."""
    return _DEFAULT_REGISTRY


def get_registry() -> MetricsRegistry:
    """The active registry on this thread: the :func:`use_registry`
    override when one is installed, else the process default."""
    return getattr(_TLS, "current", None) or _DEFAULT_REGISTRY


def observe_solver_run(solver: str, seconds: float, iterations,
                       converged_pairs: int, total_pairs: int) -> None:
    """One solver run's metrics, emitted onto the active registry.

    Called exactly once per solve (never inside the iteration loop);
    ``iterations`` may be a scalar or the multistart per-pair array.
    """
    reg = get_registry()
    reg.counter(
        "repro_solver_runs_total", "Solver invocations", ("solver",),
    ).labels(solver=solver).inc()
    reg.counter(
        "repro_solver_pairs_total",
        "(tensor, start) pairs attempted", ("solver",),
    ).labels(solver=solver).inc(total_pairs)
    reg.counter(
        "repro_solver_pairs_converged_total",
        "(tensor, start) pairs that converged", ("solver",),
    ).labels(solver=solver).inc(converged_pairs)
    reg.histogram(
        "repro_solver_seconds", "Wall seconds per solver run", ("solver",),
    ).labels(solver=solver).observe(seconds)
    hist = reg.histogram(
        "repro_solver_iterations",
        "Iterations until each pair froze", ("solver",),
    ).labels(solver=solver)
    if hasattr(iterations, "ravel"):
        hist.observe_many(iterations)
    else:
        hist.observe(iterations)


def observe_plan_cache(event: str) -> None:
    """One kernel-plan cache event (``"hit"`` / ``"miss"`` / ``"evict"``)
    on the active registry (see :mod:`repro.kernels.plan`)."""
    get_registry().counter(
        "repro_plan_cache_events_total",
        "Kernel-plan cache lookups by outcome", ("event",),
    ).labels(event=event).inc()


def observe_plan_disk_cache(event: str) -> None:
    """One persistent plan-cache event (``"hit"`` / ``"miss"`` /
    ``"store"`` / ``"corrupt"`` / ``"schema_mismatch"``) on the active
    registry (see :mod:`repro.kernels.diskcache`)."""
    get_registry().counter(
        "repro_plan_disk_cache_events_total",
        "Persistent kernel-plan cache events by outcome", ("event",),
    ).labels(event=event).inc()


def observe_codegen_compile(backend: str, seconds: float) -> None:
    """Wall seconds one codegen backend spent generating + compiling a
    kernel (see :mod:`repro.kernels.codegen`); recorded only for fresh
    builds, so warm cache loads keep the histogram honest."""
    get_registry().histogram(
        "repro_codegen_compile_seconds",
        "Kernel generation + compilation seconds by backend", ("backend",),
    ).labels(backend=backend).observe(seconds)


def observe_fleet_compaction(active_lanes: int, total_lanes: int) -> None:
    """One fleet active-set compaction: bump the compaction counter and
    refresh the lane-occupancy gauge (active / total lanes)."""
    reg = get_registry()
    reg.counter(
        "repro_fleet_compactions_total",
        "Fleet-engine active-set compactions",
    ).inc()
    reg.gauge(
        "repro_fleet_lane_occupancy",
        "Fraction of fleet lanes still active after the last compaction",
    ).set(active_lanes / total_lanes if total_lanes else 0.0)


def observe_shm_publish(role: str, nbytes: int) -> None:
    """One shared-memory segment published (created + filled) by the
    zero-copy fleet store (see :mod:`repro.parallel.shm`).  The byte
    counter is what the process-fleet benchmark checks against the
    communication model: tensor payload shows up here exactly once, never
    in the per-shard pipe traffic."""
    reg = get_registry()
    reg.counter(
        "repro_shm_bytes_published_total",
        "Bytes published into shared-memory segments", ("role",),
    ).labels(role=role).inc(nbytes)
    reg.counter(
        "repro_shm_segments_total",
        "Shared-memory segments created", ("role",),
    ).labels(role=role).inc()


def observe_shm_attach(role: str, nbytes: int) -> None:
    """One shared-memory segment attached (mapped read-only or writable)
    by a fleet worker; bytes count the mapped view, not copied data."""
    get_registry().counter(
        "repro_shm_bytes_attached_total",
        "Bytes mapped from existing shared-memory segments", ("role",),
    ).labels(role=role).inc(nbytes)


def observe_shm_unlink(role: str) -> None:
    """One shared-memory segment unlinked (its backing file removed)."""
    get_registry().counter(
        "repro_shm_segments_unlinked_total",
        "Shared-memory segments unlinked", ("role",),
    ).labels(role=role).inc()


def observe_queue_wait(seconds: float) -> None:
    """Seconds one fleet worker spent idle between finishing a shard and
    receiving its next shard descriptor from the work queue."""
    get_registry().histogram(
        "repro_fleet_queue_wait_seconds",
        "Worker idle seconds between shard descriptors",
    ).observe(seconds)


def observe_ipc_payload(direction: str, nbytes: int) -> None:
    """Pickled bytes that actually crossed a pipe in the process-fleet
    tier (``direction``: ``"descriptor"`` out, ``"meta"`` back).  Under
    the zero-copy store this stays O(result metadata) per shard — the
    benchmark asserts it never scales with the tensor payload."""
    get_registry().counter(
        "repro_fleet_ipc_payload_bytes_total",
        "Bytes serialized across process-fleet pipes", ("direction",),
    ).labels(direction=direction).inc(nbytes)


def observe_fleet_retired(reason: str, count: int) -> None:
    """Count fleet lanes retired for ``reason`` (``"converged"`` /
    ``"failed"``) on the active registry."""
    if count:
        get_registry().counter(
            "repro_fleet_lanes_retired_total",
            "Fleet lanes retired from the active set", ("reason",),
        ).labels(reason=reason).inc(count)


def observe_serve_request(endpoint: str) -> None:
    """One HTTP request hitting a ``repro serve`` endpoint (labelled by
    normalized endpoint — ``/jobs/<id>`` collapses to ``/jobs``)."""
    get_registry().counter(
        "repro_serve_requests_total",
        "HTTP requests received by repro serve", ("endpoint",),
    ).labels(endpoint=endpoint).inc()


def observe_serve_rejected(reason: str) -> None:
    """One solve request rejected at admission (``"queue_full"``,
    ``"draining"``, ``"bad_request"``) — the overload-path counter the
    healthz ready probe and the soak test key off."""
    get_registry().counter(
        "repro_serve_rejected_total",
        "Solve requests rejected at admission", ("reason",),
    ).labels(reason=reason).inc()


def observe_serve_queue_depth(depth: int) -> None:
    """Current admission-queue depth (queued, not yet running)."""
    get_registry().gauge(
        "repro_serve_queue_depth",
        "Solve requests waiting in the admission queue",
    ).set(depth)


def observe_serve_job(status: str, seconds: float) -> None:
    """One serve job leaving the runner (``status``: ``"done"`` /
    ``"failed"`` / ``"interrupted"`` / ``"deadline"``)."""
    reg = get_registry()
    reg.counter(
        "repro_serve_jobs_total",
        "Serve jobs finished, by terminal status", ("status",),
    ).labels(status=status).inc()
    reg.histogram(
        "repro_serve_request_seconds",
        "End-to-end serve job latency (queue wait + solve)",
    ).observe(seconds)


def observe_serve_degraded() -> None:
    """One job forced off the process tier by an open circuit breaker."""
    get_registry().counter(
        "repro_serve_degraded_total",
        "Jobs degraded to the thread tier by the circuit breaker",
    ).inc()


def observe_breaker_state(state: str) -> None:
    """Circuit-breaker state as a gauge (0 closed, 1 half-open, 2 open) —
    a gauge, not a counter, so dashboards can alert on level."""
    get_registry().gauge(
        "repro_serve_breaker_state",
        "Process-tier circuit breaker state (0=closed,1=half-open,2=open)",
    ).set({"closed": 0, "half-open": 1, "open": 2}.get(state, 2))


@contextmanager
def use_registry(registry: MetricsRegistry | None = None):
    """Install ``registry`` (or a fresh one) as this thread's active
    registry for the block — how the thread fleet tier isolates workers
    before merging their snapshots back::

        with use_registry() as reg:
            fleet_solve(batch, ...)
        default_registry().merge(reg)
    """
    reg = registry if registry is not None else MetricsRegistry()
    prev = getattr(_TLS, "current", None)
    _TLS.current = reg
    try:
        yield reg
    finally:
        _TLS.current = prev
