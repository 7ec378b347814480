"""Kernel variant registry — the single entry point for every kernel.

The benchmarks compare the paper's implementations by name ("general",
"unrolled", ...); this registry maps variant names to a uniform
``(ax_m, ax_m1)`` pair so drivers and benchmarks can switch implementations
without special-casing.  Both access shapes go through :func:`get_kernels`:

* ``get_kernels(variant, m, n)`` — a per-tensor :class:`KernelPair`
  (``ax_m(tensor, x) -> float``).
* ``get_kernels(variant, m, n, batched=True)`` — a
  :class:`BatchedKernelPair` operating on raw value/vector arrays with
  broadcasting leading dimensions (``ax_m(values, x) -> ndarray``), the
  shape a ``(T, V)`` lane grid feeds (``values[T, 1, U]`` against
  ``x[T, V, n]``).

Unknown names raise :class:`UnknownVariantError` — a subclass of both
``KeyError`` and ``ValueError`` so pre-existing handlers of either keep
working — listing the valid names for the requested access shape.

Variants
--------
``reference``
    Dense decompress-and-contract oracle (the "general tensor" cost model).
``compressed``
    Spec-faithful Figures 2/3 with on-the-fly index/multinomial computation
    — the paper's *general* symmetric implementation.
``precomputed``
    Section III-B.5 table-driven variant.
``unrolled`` / ``unrolled_cse``
    Section V-D code-generated straight-line kernels (optionally with
    common-subexpression elimination).  Batched-capable.
``vectorized``
    The batched NumPy kernels; as a per-tensor pair they apply to a single
    tensor/vector.  Batched-capable (alias ``batched``).
``blocked``
    The Section V-D/VI future-work blocking: per-block contractions with
    shared per-chunk monomial vectors (scales to general ``(m, n)``).
    Batched-capable.
``auto``
    Autotuned choice among the above (see :mod:`repro.kernels.autotune`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.kernels.batched import ax_m1_batched, ax_m_batched
from repro.kernels.errors import KernelLookupError, UnknownVariantError
from repro.kernels.compressed import ax_m1_compressed, ax_m_compressed
from repro.kernels.precomputed import ax_m1_precomputed, ax_m_precomputed
from repro.kernels.reference import ax_m1_reference, ax_m_reference
from repro.kernels.tables import kernel_tables
from repro.kernels.unrolled import _make_unrolled
from repro.symtensor.storage import SymmetricTensor

__all__ = [
    "KernelPair",
    "BatchedKernelPair",
    "KernelLookupError",
    "UnknownVariantError",
    "get_kernels",
    "available_variants",
]


@dataclass(frozen=True)
class KernelPair:
    """Uniform per-tensor kernel interface: ``ax_m(tensor, x) -> float`` and
    ``ax_m1(tensor, x) -> ndarray(n)``."""

    name: str
    ax_m: Callable[[SymmetricTensor, np.ndarray], float]
    ax_m1: Callable[[SymmetricTensor, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class BatchedKernelPair:
    """Uniform batched kernel interface over raw arrays.

    ``ax_m(values, x, counter=None) -> ndarray(broadcast lead dims)`` and
    ``ax_m1(values, x, counter=None) -> ndarray(lead dims + (n,))`` where
    ``values`` is ``(..., U)`` unique-entry data and ``x`` is ``(..., n)``;
    leading dimensions broadcast.  ``counter`` is an optional
    :class:`~repro.util.flopcount.FlopCounter` charged with the kernel's
    arithmetic.
    """

    name: str
    ax_m: Callable[..., np.ndarray]
    ax_m1: Callable[..., np.ndarray]


def _unrolled_pair(name: str, cse: bool) -> Callable[[int, int], KernelPair]:
    def build(m: int, n: int) -> KernelPair:
        kernels = _make_unrolled(m, n, cse=cse, batched=False)
        return KernelPair(
            name,
            lambda tensor, x: float(kernels.ax_m(tensor.values, np.asarray(x))),
            lambda tensor, x: np.asarray(kernels.ax_m1(tensor.values, np.asarray(x))),
        )

    return build


def _vectorized_pair(m: int, n: int) -> KernelPair:
    tab = kernel_tables(m, n)
    return KernelPair(
        "vectorized",
        lambda tensor, x: float(ax_m_batched(tensor.values, np.asarray(x), tables=tab)),
        lambda tensor, x: ax_m1_batched(tensor.values, np.asarray(x), tables=tab),
    )


def _blocked_pair(m: int, n: int) -> KernelPair:
    from repro.kernels.blocked import ax_m1_blocked, ax_m_blocked, blocking_plan

    plan = blocking_plan(m, n, min(4, n))
    return KernelPair(
        "blocked",
        lambda tensor, x: ax_m_blocked(tensor, np.asarray(x), plan=plan),
        lambda tensor, x: ax_m1_blocked(tensor, np.asarray(x), plan=plan),
    )


_STATIC_VARIANTS: dict[str, KernelPair] = {
    "reference": KernelPair("reference", ax_m_reference, ax_m1_reference),
    "compressed": KernelPair("compressed", ax_m_compressed, ax_m1_compressed),
    "precomputed": KernelPair("precomputed", ax_m_precomputed, ax_m1_precomputed),
}

_SPECIALIZED_BUILDERS: dict[str, Callable[[int, int], KernelPair]] = {
    "unrolled": _unrolled_pair("unrolled", cse=False),
    "unrolled_cse": _unrolled_pair("unrolled_cse", cse=True),
    "vectorized": _vectorized_pair,
    "blocked": _blocked_pair,
}

# canonical batched-capable names plus the historical multistart backend
# aliases ("batched", "batched_unrolled")
_BATCHED_ALIASES: dict[str, str] = {
    "vectorized": "vectorized",
    "batched": "vectorized",
    "unrolled": "unrolled",
    "batched_unrolled": "unrolled",
    "unrolled_cse": "unrolled_cse",
    "blocked": "blocked",
}


def _num_threads(values: np.ndarray, x: np.ndarray) -> int:
    """Broadcast (tensor, vector) pair count of a batched call — the GPU
    thread count the flop accounting is charged for."""
    lead = np.broadcast_shapes(np.shape(values)[:-1], np.shape(x)[:-1])
    return int(np.prod(lead, dtype=np.int64)) if lead else 1


def _batched_suite(variant: str, m: int, n: int) -> BatchedKernelPair:
    canonical = _BATCHED_ALIASES[variant]
    if canonical == "vectorized":
        tab = kernel_tables(m, n)

        def ax_m(values, x, counter=None):
            return ax_m_batched(values, x, tables=tab, counter=counter)

        def ax_m1(values, x, counter=None):
            return ax_m1_batched(values, x, tables=tab, counter=counter)

        return BatchedKernelPair("vectorized", ax_m, ax_m1)

    if canonical in ("unrolled", "unrolled_cse"):
        gen = _make_unrolled(m, n, cse=canonical == "unrolled_cse", batched=True)

        def ax_m(values, x, counter=None):
            if counter is not None:
                counter.add_flops(_num_threads(values, x) * gen.flops_scalar)
            return gen.ax_m(values, x)

        def ax_m1(values, x, counter=None):
            if counter is not None:
                counter.add_flops(_num_threads(values, x) * gen.flops_vector)
            return gen.ax_m1(values, x)

        return BatchedKernelPair(canonical, ax_m, ax_m1)

    # canonical == "blocked"
    from repro.kernels.blocked import blocking_plan
    from repro.kernels.blocked_batched import ax_m1_blocked_batched, ax_m_blocked_batched

    plan = blocking_plan(m, n, min(6, n))

    def ax_m(values, x, counter=None):
        return ax_m_blocked_batched(values, x, plan=plan, counter=counter)

    def ax_m1(values, x, counter=None):
        return ax_m1_blocked_batched(values, x, plan=plan, counter=counter)

    return BatchedKernelPair("blocked", ax_m, ax_m1)


def available_variants(
    m: int | None = None, n: int | None = None, *, batched: bool = False
) -> list[str]:
    """Names accepted by :func:`get_kernels` (``"auto"`` autotunes).

    With a shape ``(m, n)``, the list is filtered to the variants that can
    actually be built for it (e.g. ``unrolled`` refuses very large shapes);
    without a shape it lists every registered name.  ``batched=True``
    restricts to the batched-capable canonical names.
    """
    if batched:
        names = sorted({canonical for canonical in _BATCHED_ALIASES.values()})
    else:
        names = sorted([*_STATIC_VARIANTS, *_SPECIALIZED_BUILDERS, "auto"])
    if m is None or n is None:
        return names
    usable = []
    for name in names:
        if name == "auto":
            usable.append(name)  # selects among the usable set; don't tune here
            continue
        try:
            get_kernels(name, m, n, batched=batched)
        except UnknownVariantError:
            raise  # registry bug, not a shape limitation
        except (ValueError, MemoryError):
            continue
        usable.append(name)
    return usable


def get_kernels(
    variant: str,
    m: int | None = None,
    n: int | None = None,
    *,
    batched: bool = False,
    instrumented: bool = False,
    counter=None,
):
    """Look up a kernel implementation by variant name.

    Parameters
    ----------
    variant : variant name (see module docstring).  Unknown names raise
        :class:`UnknownVariantError`.
    m, n : tensor order and dimension.  Shape-specialized variants
        (``unrolled``, ``unrolled_cse``, ``vectorized``, ``blocked``,
        ``auto``) and every batched suite require them; shape-generic
        per-tensor variants ignore them.
    batched : return a :class:`BatchedKernelPair` over raw broadcasting
        arrays instead of a per-tensor :class:`KernelPair`.  Accepts the
        canonical batched-capable names and the historical multistart
        backend aliases ``"batched"`` (-> vectorized) and
        ``"batched_unrolled"`` (-> unrolled).
    instrumented : wrap the returned per-tensor pair so each call records a
        span and charges the Table-II cost model (see
        :func:`repro.instrument.instrumented_pair`).  Batched suites take
        ``counter=`` per call instead and need no wrapper.
    counter : optional :class:`~repro.util.flopcount.FlopCounter` the
        instrumented wrapper charges.
    """
    if batched:
        if variant == "auto":
            if m is None or n is None:
                raise ValueError("variant 'auto' is shape-specialized; pass m and n")
            from repro.kernels.autotune import autotune

            best = autotune(m, n).best
            variant = best if best in _BATCHED_ALIASES else "vectorized"
        if variant not in _BATCHED_ALIASES:
            raise UnknownVariantError(
                variant, [*available_variants(batched=True), "auto"]
            )
        if m is None or n is None:
            raise ValueError(
                f"batched variant {variant!r} is shape-specialized; pass m and n"
            )
        return _batched_suite(variant, m, n)

    pair: KernelPair | None = None
    if variant in _STATIC_VARIANTS:
        pair = _STATIC_VARIANTS[variant]
    elif variant == "auto":
        if m is None or n is None:
            raise ValueError("variant 'auto' is shape-specialized; pass m and n")
        from repro.kernels.autotune import auto_kernels

        pair = auto_kernels(m, n)
    elif variant in _SPECIALIZED_BUILDERS:
        if m is None or n is None:
            raise ValueError(f"variant {variant!r} is shape-specialized; pass m and n")
        pair = _SPECIALIZED_BUILDERS[variant](m, n)
    else:
        raise UnknownVariantError(variant, available_variants())

    if instrumented:
        from repro.instrument import instrumented_pair

        pair = instrumented_pair(pair, counter=counter)
    return pair
