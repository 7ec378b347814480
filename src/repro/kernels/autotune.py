"""Empirical kernel selection (autotuning).

The best kernel variant depends on the tensor shape: unrolled wins for the
paper's tiny application tensors, the blocked decomposition wins as the
dimension grows, and the interpreted loops never win (they exist as the
executable specification).  Rather than hard-coding the crossover, this
module times the candidates on synthetic data and caches the winner per
``(m, n)`` — the software analog of the per-shape specialization the paper
performs by hand, and of Section VI's open question about choosing block
layouts for the best behavior.

``get_kernels("auto", m, n)`` (see :mod:`repro.kernels.dispatch`) routes
through :func:`autotune`; ``get_plan(..., "auto")`` through the fleet-scale
:func:`plan_race` of the batched suites.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

__all__ = [
    "TuneReport",
    "autotune",
    "auto_kernels",
    "plan_race",
]

# variants eligible for selection (the spec-faithful loops are excluded on
# purpose: they are reference implementations, never the fastest)
_CANDIDATES = ("precomputed", "unrolled", "unrolled_cse", "vectorized", "blocked")


@dataclass(frozen=True)
class TuneReport:
    """Timing table and winner of one autotune run."""

    m: int
    n: int
    timings: dict[str, float]  # variant -> seconds per (ax_m + ax_m1) pair
    best: str

    def speedup_over(self, variant: str) -> float:
        if variant not in self.timings:
            raise KeyError(f"variant {variant!r} was not timed")
        return self.timings[variant] / self.timings[self.best]


@lru_cache(maxsize=None)
def autotune(m: int, n: int, reps: int = 30, seed: int = 0) -> TuneReport:
    """Time the candidate variants on random data and pick the fastest.

    Each candidate is warmed first (table construction / code generation /
    plan building is one-time cost, amortized across calls in real use),
    then timed over ``reps`` paired ``A x^m`` + ``A x^{m-1}`` evaluations.
    Variants that refuse the shape (e.g. unrolling past its size guard)
    are skipped.
    """
    from repro.kernels.dispatch import get_kernels
    from repro.symtensor.random import random_symmetric_tensor

    tensor = random_symmetric_tensor(m, n, rng=seed)
    x = np.random.default_rng(seed + 1).normal(size=n)

    timings: dict[str, float] = {}
    for name in _CANDIDATES:
        try:
            pair = get_kernels(name, m, n)
            pair.ax_m(tensor, x)  # warm all caches
            pair.ax_m1(tensor, x)
        except (ValueError, MemoryError):
            continue
        t0 = time.perf_counter()
        for _ in range(reps):
            pair.ax_m(tensor, x)
            pair.ax_m1(tensor, x)
        timings[name] = (time.perf_counter() - t0) / reps
    if not timings:
        raise RuntimeError(f"no kernel variant available for m={m}, n={n}")
    best = min(timings, key=lambda k: timings[k])
    return TuneReport(m=m, n=n, timings=timings, best=best)


def auto_kernels(m: int, n: int):
    """The autotuned :class:`~repro.kernels.dispatch.KernelPair` for a shape."""
    from repro.kernels.dispatch import get_kernels

    return get_kernels(autotune(m, n).best, m, n)


# -- the plan race: batched variant x codegen backend, per shape -----------

PLAN_RACE_SCHEMA = "repro-plan-race/1"
RACE_LANES = 16_384  # lanes of a race call: a fleet-sized A x^{m-1}
RACE_BYTES = 64 << 20  # ...or as many as this many bytes of lane values hold
_RACE_NEAR = 2.0  # first timings this near the fastest are sampled again,
_RACE_SAMPLES = 7  # this many times, alternating,
_RACE_SAMPLE_SECONDS = 0.01  # each sample repeating the call this long
_RACES: dict[tuple[int, int], dict] = {}
_RACE_LOCK = threading.Lock()


def _read_race(path, m: int, n: int, backends: list[str]) -> dict | None:
    """The record at ``path`` if it is whole and was raced on this host's
    backends under this schema, else ``None``."""
    from repro.kernels.plan import _VARIANTS

    try:
        doc = json.loads(path.read_text())
        valid = (doc["schema"] == PLAN_RACE_SCHEMA
                 and (doc["m"], doc["n"], doc["backends"]) == (m, n, backends)
                 and all(v in _VARIANTS and b in backends and seconds > 0
                         for v, row in doc["timings"].items()
                         for b, seconds in row.items()))
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None
    return doc if valid else None


def _time_candidates(calls: dict) -> dict:
    """Seconds per call of each of ``calls`` (no-argument callables):
    each is warmed and timed once, and those near the fastest keep the
    median of more samples, alternating so a slow spell of the host hits
    them all."""
    def per_call(call):
        number, t0 = 0, time.perf_counter()
        while True:
            call()
            number += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= _RACE_SAMPLE_SECONDS:
                return elapsed / number

    first = {}
    for key, call in calls.items():
        call()  # warm up: JIT and first-touch costs are not the kernel's
        first[key] = per_call(call)
    best = min(first.values())
    near = {key: [] for key, t in first.items() if t <= _RACE_NEAR * best}
    for _ in range(_RACE_SAMPLES):
        for key, samples in near.items():
            samples.append(per_call(calls[key]))
    return first | {key: float(np.median(s)) for key, s in near.items()}


def _run_race(m: int, n: int, backends: list[str]) -> dict:
    from repro.kernels.codegen import _CODEGEN_VARIANTS
    from repro.kernels.plan import _VARIANTS, _build_plan
    from repro.kernels.unrolled import MAX_UNROLLED_ENTRIES
    from repro.util.combinatorics import num_unique_entries

    t0 = time.perf_counter()
    unique = num_unique_entries(m, n)
    lanes = max(1, min(RACE_LANES, RACE_BYTES // (8 * unique)))
    rng = np.random.default_rng(0)
    values = rng.normal(size=(unique, lanes)).T  # lanes-last, as in a fleet
    x = rng.normal(size=(lanes, n))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    calls = {}
    for variant in _VARIANTS:
        if variant in _CODEGEN_VARIANTS and unique > MAX_UNROLLED_ENTRIES:
            continue
        for backend in backends:
            plan = _build_plan(m, n, variant, backend)
            if plan.effective_backend == backend:  # degraded: another's code
                calls[variant, backend] = partial(plan.ax_m1, values, x)
    timings: dict = {}
    for (variant, backend), seconds in _time_candidates(calls).items():
        timings.setdefault(variant, {})[backend] = seconds
    return {"schema": PLAN_RACE_SCHEMA, "m": m, "n": n, "lanes": lanes,
            "backends": backends, "timings": timings,
            "seconds": time.perf_counter() - t0}


def plan_race(m: int, n: int) -> dict:
    """The race record of shape ``(m, n)``, which answers ``"auto"`` on
    either axis of :func:`repro.kernels.plan.get_plan`: ``{"schema", "m",
    "n", "lanes", "backends", "timings": {variant: {backend: seconds per
    call}}, "seconds"}``, the last being the race's own cost.

    Every batched variant races on every executable backend (numba only
    when installed, generated variants only within the unroll guard, no
    degraded builds) on ``A x^{m-1}``, the fleet's one kernel call per
    sweep, with lanes-last float64 values and unit vectors.  The record
    is persisted next to the plan disk cache for later processes; a
    damaged or stale one is raced again.  Concurrent callers share one
    race.
    """
    from repro.kernels import diskcache
    from repro.kernels.codegen import CODEGEN_VERSION, numba_available

    key = (int(m), int(n))
    with _RACE_LOCK:
        if key not in _RACES:
            backends = ["numpy", "numba"] if numba_available() else ["numpy"]
            root = diskcache.cache_dir()  # None: persistence is off
            path = root and root / f"tune-m{m}-n{n}-v{CODEGEN_VERSION}.json"
            record = path and _read_race(path, *key, backends)
            if not record:
                record = _run_race(*key, backends)
                try:
                    if path:
                        diskcache.atomic_write_text(path, json.dumps(record))
                except OSError:
                    pass  # read-only cache dir: race again next process
            _RACES[key] = record
    return _RACES[key]
