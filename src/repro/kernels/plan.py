"""Kernel plans: shape-specialized batched suites, built once and cached.

Constructing a batched kernel suite for a shape ``(m, n)`` is not free:
the precomputed index/multinomial tables (:mod:`repro.kernels.tables`),
the blocking decomposition, and — for the code-generated variants —
generated and compiled straight-line code all have to be materialized.
The paper pays that cost once per shape and shares the result across
every thread block; :class:`KernelPlan` is the host-side analog: one
immutable bundle of (tables, compiled suite) per
``(m, n, variant, backend)``, held in a process-wide LRU
:class:`PlanCache` so plan construction is paid once per shape, not once
per solve.

Two orthogonal axes select the compiled suite:

* ``variant`` — *what* code runs (``"vectorized"``, ``"unrolled"``,
  ``"unrolled_cse"`` or ``"blocked"``);
* ``backend`` — *how* it is compiled, resolved through the
  :mod:`repro.kernels.codegen` emitter registry: ``"numpy"`` (the
  historical ``exec`` path) or ``"numba"`` (native JIT of the
  straight-line kernels, degrading gracefully to numpy when the
  dependency is absent).

:func:`resolve_names` resolves both, ``"auto"`` on either axis from the
shape's race record (:func:`repro.kernels.autotune.plan_race`).

Plan construction also reads/writes the persistent on-disk cache
(:mod:`repro.kernels.diskcache`), so tables and compiled code survive the
process: a warm second process skips the combinatorial table build *and*
the source generation/compilation.

This module is the only builder of batched suites: the fleet engine
(:mod:`repro.engine`), the process tier and every other batched caller
resolve their kernels through :func:`get_plan`, while
:func:`repro.kernels.dispatch.get_kernels` serves only the per-tensor
pairs.  The ``vectorized`` and ``blocked`` suites wrap the array kernels
of :mod:`repro.kernels.batched` and :mod:`repro.kernels.blocked_batched`;
the generated ones come from :func:`repro.kernels.codegen.emit` on every
backend.

Cache hits/misses/evictions land on the
``repro_plan_cache_events_total`` metric, disk traffic on
``repro_plan_disk_cache_events_total``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.kernels.batched import ax_m1_batched, ax_m_batched
from repro.kernels.codegen import _BACKEND_ALIASES, _CODEGEN_VARIANTS, emit
from repro.kernels.dispatch import BatchedKernelPair
from repro.kernels.errors import (
    KernelLookupError,
    UnknownBackendError,
    UnknownVariantError,
)
from repro.kernels.tables import KernelTables, kernel_tables, prime_tables
from repro.kernels.unrolled import MAX_UNROLLED_ENTRIES
from repro.util.combinatorics import num_unique_entries

__all__ = [
    "KernelPlan",
    "PlanCache",
    "available_plan_backends",
    "clear_plan_cache",
    "default_plan_cache",
    "get_plan",
    "resolve_names",
]

#: batched variant names ("auto" races them)
_VARIANTS = ("vectorized", "unrolled", "unrolled_cse", "blocked")

#: backends a host-executable plan can be built on ("auto" races these)
_PLAN_BACKENDS = ("numpy", "numba")


@dataclass(frozen=True)
class KernelPlan:
    """An immutable, reusable evaluation plan for one
    ``(m, n, variant, backend)``.

    Attributes
    ----------
    m, n : tensor order and mode dimension.
    variant : canonical batched variant name (``"vectorized"``,
        ``"unrolled"``, ``"unrolled_cse"``, or ``"blocked"``).
    tables : the shared precomputed index/multinomial tables.
    suite : the compiled :class:`~repro.kernels.dispatch.BatchedKernelPair`.
    build_seconds : wall time spent constructing the plan (the cost the
        cache amortizes away).
    backend : the codegen backend the plan was requested on.
    effective_backend : the backend that actually compiled the kernels —
        differs from ``backend`` only on graceful degradation (numba not
        installed, or a shape the straight-line generator refuses).
    meta : provenance extras (``from_disk``, fallback reasons, ...).
    """

    m: int
    n: int
    variant: str
    tables: KernelTables
    suite: BatchedKernelPair
    build_seconds: float
    backend: str = "numpy"
    effective_backend: str = "numpy"
    meta: dict = field(default_factory=dict)

    def ax_m(self, values: np.ndarray, x: np.ndarray, counter=None) -> np.ndarray:
        """Batched ``A x^m`` over broadcasting leading dimensions."""
        return self.suite.ax_m(values, x, counter=counter)

    def ax_m1(self, values: np.ndarray, x: np.ndarray, counter=None) -> np.ndarray:
        """Batched ``A x^{m-1}`` over broadcasting leading dimensions."""
        return self.suite.ax_m1(values, x, counter=counter)

    @property
    def key(self) -> tuple[int, int, str, str]:
        return (self.m, self.n, self.variant, self.backend)


def available_plan_backends() -> list[str]:
    """Backend names :func:`get_plan` accepts (``"auto"`` races the rest)."""
    return [*_PLAN_BACKENDS, "auto"]


def resolve_names(m: int, n: int, variant: str = "vectorized",
                  backend: str = "numpy") -> tuple[str, str]:
    """The canonical ``(variant, backend)`` a plan for ``(m, n)`` is built
    on: backend aliases resolve through :mod:`repro.kernels.codegen`, and
    ``"auto"`` on either axis takes the fastest pair of the shape's race
    record (:func:`repro.kernels.autotune.plan_race`) whose other name
    matches.  Unknown names raise the typed lookup errors."""
    backend = _BACKEND_ALIASES.get(backend, backend)
    if variant != "auto" and variant not in _VARIANTS:
        raise UnknownVariantError(variant, sorted(_VARIANTS) + ["auto"])
    if backend == "cuda-src":
        raise KernelLookupError(
            "backend 'cuda-src' emits source only and cannot execute on the "
            "host; use repro.kernels.codegen.emit(..., target='cuda-src') "
            "for the source, or a host backend "
            f"({available_plan_backends()}) for plans"
        )
    if backend != "auto" and backend not in _PLAN_BACKENDS:
        raise UnknownBackendError(backend, available_plan_backends())
    if "auto" not in (variant, backend):
        return variant, backend
    from repro.kernels.autotune import plan_race

    timings = plan_race(m, n)["timings"]
    raced = [(seconds, v, b) for v, row in timings.items()
             if variant in ("auto", v)
             for b, seconds in row.items() if backend in ("auto", b)]
    # nothing raced under a fixed name (a generated variant past the unroll
    # guard, numba absent): the "auto" axis takes its default, and the
    # build fails or degrades as the explicit request would
    default = (0.0, "vectorized" if variant == "auto" else variant,
               "numpy" if backend == "auto" else backend)
    return min(raced, default=default)[1:]


def _num_threads(values: np.ndarray, x: np.ndarray) -> int:
    """Broadcast (tensor, vector) pair count of a batched call — the GPU
    thread count the flop accounting is charged for."""
    lead = np.broadcast_shapes(np.shape(values)[:-1], np.shape(x)[:-1])
    return int(np.prod(lead, dtype=np.int64)) if lead else 1


def _suite_with_flops(name: str, ax_m_fn, ax_m1_fn, flops_scalar: int,
                      flops_vector: int) -> BatchedKernelPair:
    """Wrap plain ``(values, x)`` callables of generated code with the
    per-thread flop accounting every batched suite carries."""

    def ax_m(values, x, counter=None):
        if counter is not None:
            counter.add_flops(_num_threads(values, x) * flops_scalar)
        return ax_m_fn(values, x)

    def ax_m1(values, x, counter=None):
        if counter is not None:
            counter.add_flops(_num_threads(values, x) * flops_vector)
        return ax_m1_fn(values, x)

    return BatchedKernelPair(name, ax_m, ax_m1)


def _library_suite(canonical: str, m: int, n: int) -> BatchedKernelPair:
    """The ``vectorized`` or ``blocked`` suite over the array kernels,
    which charge ``counter`` themselves."""
    if canonical == "vectorized":
        tab = kernel_tables(m, n)

        def ax_m(values, x, counter=None):
            return ax_m_batched(values, x, tables=tab, counter=counter)

        def ax_m1(values, x, counter=None):
            return ax_m1_batched(values, x, tables=tab, counter=counter)

        return BatchedKernelPair("vectorized", ax_m, ax_m1)

    # canonical == "blocked"
    from repro.kernels.blocked import blocking_plan
    from repro.kernels.blocked_batched import ax_m1_blocked_batched, ax_m_blocked_batched

    plan = blocking_plan(m, n, min(6, n))

    def ax_m(values, x, counter=None):
        return ax_m_blocked_batched(values, x, plan=plan, counter=counter)

    def ax_m1(values, x, counter=None):
        return ax_m1_blocked_batched(values, x, plan=plan, counter=counter)

    return BatchedKernelPair("blocked", ax_m, ax_m1)


def _numpy_suite_from_entry(m: int, n: int, canonical: str,
                            entry: dict) -> BatchedKernelPair | None:
    """Rebuild a numpy codegen suite from a disk entry, skipping source
    generation (and, when the marshalled code survived, compilation).
    The only path that executes pregenerated code."""
    meta = entry["meta"]
    source = meta.get("source") or ""
    code = entry["code"]
    if code is None and not source:
        return None
    try:
        if code is None:
            code = compile(source, f"<plan-cache m={m} n={n} {canonical}>",
                           "exec")
        namespace: dict = {}
        exec(code, namespace)  # noqa: S102 - cache of our own generated code
        return _suite_with_flops(
            canonical,
            namespace["ax_m"],
            namespace["ax_m1"],
            int(meta.get("flops_scalar", 0)),
            int(meta.get("flops_vector", 0)),
        )
    except Exception:
        return None  # damaged entry: fall through to a cold build


def _store_entry(m: int, n: int, canonical: str, backend: str,
                 tables: KernelTables, emitted=None) -> None:
    """Persist a cold build: the tables, plus the generated source and
    flop counts (and, on numpy, the marshalled bytecode) of ``emitted``."""
    from repro.kernels import diskcache

    meta = {"effective_backend": backend, "batched": True, "source": ""}
    code = None
    if emitted is not None:
        meta.update(source=emitted.source, flops_scalar=emitted.flops_scalar,
                    flops_vector=emitted.flops_vector)
        if backend == "numpy":
            code = compile(emitted.source,
                           f"<plan-cache m={m} n={n} {canonical}>", "exec")
    diskcache.store_entry(m, n, canonical, backend, tables=tables, code=code,
                          meta=meta)


def _build_plan(m: int, n: int, canonical: str, backend: str) -> KernelPlan:
    from repro.kernels import diskcache

    t0 = time.perf_counter()
    entry = diskcache.load_entry(m, n, canonical, backend)
    if entry is not None:
        # skip the combinatorial table build in this process
        prime_tables(entry["tables"])
    tables = kernel_tables(m, n)

    effective = backend
    meta: dict = {"from_disk": entry is not None}
    suite = emitted = None
    emit_variant = canonical if canonical in _CODEGEN_VARIANTS else None
    if (backend == "numba" and emit_variant is None
            and num_unique_entries(m, n) <= MAX_UNROLLED_ENTRIES):
        emit_variant = "unrolled_cse"  # numba compiles only generated code
    if backend == "numpy" and emit_variant and entry is not None:
        suite = _numpy_suite_from_entry(m, n, canonical, entry)

    if suite is None and emit_variant is None:
        suite = _library_suite(canonical, m, n)
        if backend == "numba":
            # no straight-line form at this shape: numpy suite, honestly
            effective = "numpy"
            meta["fallback"] = (
                f"shape (m={m}, n={n}) exceeds the unroll guard; "
                f"no generated kernel to JIT"
            )
    elif suite is None:
        emitted = emit(m, n, emit_variant, target=backend, batched=True)
        effective = emitted.effective_backend
        if effective != backend:
            meta["fallback"] = emitted.meta.get("fallback", "")
        if emit_variant != canonical:
            meta["substituted_variant"] = emit_variant
        suite = _suite_with_flops(
            canonical, emitted.ax_m, emitted.ax_m1,
            emitted.flops_scalar, emitted.flops_vector,
        )
    if entry is None and effective == backend:  # degraded builds stay off disk
        _store_entry(m, n, canonical, backend, tables, emitted)

    return KernelPlan(
        m=m,
        n=n,
        variant=canonical,
        tables=tables,
        suite=suite,
        build_seconds=time.perf_counter() - t0,
        backend=backend,
        effective_backend=effective,
        meta=meta,
    )


class PlanCache:
    """Thread-safe LRU cache of :class:`KernelPlan` keyed
    ``(m, n, variant, backend)``.

    ``maxsize`` bounds resident plans (an unrolled plan for a large shape
    holds compiled code and tables); the least recently *used* plan is
    evicted.  Hit/miss/eviction counts are kept both locally (``stats()``)
    and on the active metrics registry.
    """

    def __init__(self, maxsize: int = 32):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._plans: OrderedDict[tuple[int, int, str, str], KernelPlan] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, m: int, n: int, variant: str = "vectorized",
            backend: str = "numpy") -> KernelPlan:
        """The cached plan for ``(m, n, variant, backend)``, building it
        (and consulting the persistent disk cache) on a miss."""
        from repro.instrument.events import emit as _emit
        from repro.instrument.metrics import observe_plan_cache

        m, n = int(m), int(n)
        canonical, canonical_backend = resolve_names(m, n, variant, backend)
        key = (m, n, canonical, canonical_backend)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self.hits += 1
                observe_plan_cache("hit")
                _emit("plan_cache", outcome="hit", m=m, n=n,
                      variant=canonical, backend=canonical_backend)
                return plan
        # build outside the lock: plans are immutable, so a racing double
        # build wastes a little work but is correct
        plan = _build_plan(m, n, canonical, canonical_backend)
        with self._lock:
            self.misses += 1
            observe_plan_cache("miss")
            _emit("plan_cache", outcome="miss", m=m, n=n,
                  variant=canonical, backend=canonical_backend)
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)
                self.evictions += 1
                observe_plan_cache("evict")
        return plan

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self.hits = self.misses = self.evictions = 0

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, key: tuple) -> bool:
        return tuple(key) in self._plans

    def stats(self) -> dict:
        """JSON-able counters plus the resident key list (LRU order)."""
        with self._lock:
            return {
                "maxsize": self.maxsize,
                "size": len(self._plans),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "keys": [list(k) for k in self._plans],
            }


_DEFAULT_CACHE = PlanCache()


def default_plan_cache() -> PlanCache:
    """The process-wide plan cache shared by every solver."""
    return _DEFAULT_CACHE


def get_plan(m: int, n: int, variant: str = "vectorized",
             backend: str = "numpy") -> KernelPlan:
    """Shorthand for ``default_plan_cache().get(m, n, variant, backend)``."""
    return _DEFAULT_CACHE.get(m, n, variant, backend)


def clear_plan_cache() -> None:
    """Drop every cached plan and reset the counters (mainly for tests)."""
    _DEFAULT_CACHE.clear()

