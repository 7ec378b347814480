"""Per-tensor kernel registry — the one lookup for every variant's
``(ax_m, ax_m1)`` pair.

The benchmarks compare the paper's implementations by name ("general",
"unrolled", ...); :func:`get_kernels` maps a variant name to a uniform
per-tensor :class:`KernelPair` (``ax_m(tensor, x) -> float``) so drivers
and benchmarks can switch implementations without special-casing.

Batched suites — the GPU mapping's one shape-specialized kernel shared by
every (tensor, start) thread, as a :class:`BatchedKernelPair` over raw
value/vector arrays with broadcasting leading dimensions — are built only
by :func:`repro.kernels.plan.get_plan`, which caches one
:class:`~repro.kernels.plan.KernelPlan` per shape (its ``suite``).

Unknown names raise :class:`UnknownVariantError` — a subclass of both
``KeyError`` and ``ValueError`` so pre-existing handlers of either keep
working — listing the valid names.

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
    common-subexpression elimination).
``vectorized``
    The batched NumPy kernels, applied to a single tensor/vector.
``blocked``
    The Section V-D/VI future-work blocking: per-block contractions with
    shared per-chunk monomial vectors (scales to general ``(m, n)``).
``auto``
    Autotuned choice among the above (see :mod:`repro.kernels.autotune`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.kernels.batched import ax_m1_batched, ax_m_batched
from repro.kernels.codegen import emit
from repro.kernels.errors import KernelLookupError, UnknownVariantError
from repro.kernels.compressed import ax_m1_compressed, ax_m_compressed
from repro.kernels.precomputed import ax_m1_precomputed, ax_m_precomputed
from repro.kernels.reference import ax_m1_reference, ax_m_reference
from repro.kernels.tables import kernel_tables
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
    """Uniform batched kernel interface over raw arrays — the ``suite`` of
    a :class:`~repro.kernels.plan.KernelPlan`.

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


def _unrolled_pair(name: str) -> Callable[[int, int], KernelPair]:
    def build(m: int, n: int) -> KernelPair:
        kernels = emit(m, n, name, target="numpy")  # the scalar form
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
    "unrolled": _unrolled_pair("unrolled"),
    "unrolled_cse": _unrolled_pair("unrolled_cse"),
    "vectorized": _vectorized_pair,
    "blocked": _blocked_pair,
}


def available_variants(m: int | None = None, n: int | None = None) -> list[str]:
    """Names accepted by :func:`get_kernels` (``"auto"`` autotunes).

    With a shape ``(m, n)``, the list is filtered to the variants that can
    actually be built for it (e.g. ``unrolled`` refuses very large shapes);
    without a shape it lists every registered name.
    """
    names = sorted([*_STATIC_VARIANTS, *_SPECIALIZED_BUILDERS, "auto"])
    if m is None or n is None:
        return names
    usable = []
    for name in names:
        if name == "auto":
            usable.append(name)  # selects among the usable set; don't tune here
            continue
        try:
            get_kernels(name, m, n)
        except UnknownVariantError:
            raise  # registry bug, not a shape limitation
        except (ValueError, MemoryError):
            continue
        usable.append(name)
    return usable


def get_kernels(variant: str, m: int | None = None,
                n: int | None = None) -> KernelPair:
    """Look up the per-tensor :class:`KernelPair` of a variant.

    Parameters
    ----------
    variant : variant name (see module docstring).  Unknown names raise
        :class:`UnknownVariantError`.
    m, n : tensor order and dimension.  Shape-specialized variants
        (``unrolled``, ``unrolled_cse``, ``vectorized``, ``blocked``,
        ``auto``) require them; shape-generic variants ignore them.

    Wrap the pair with :func:`repro.instrument.instrumented_pair` to record
    spans and charge the Table-II cost model; batched suites come from
    :func:`repro.kernels.plan.get_plan`.
    """
    if variant in _STATIC_VARIANTS:
        return _STATIC_VARIANTS[variant]
    if variant == "auto":
        if m is None or n is None:
            raise ValueError("variant 'auto' is shape-specialized; pass m and n")
        from repro.kernels.autotune import auto_kernels

        return auto_kernels(m, n)
    if variant in _SPECIALIZED_BUILDERS:
        if m is None or n is None:
            raise ValueError(f"variant {variant!r} is shape-specialized; pass m and n")
        return _SPECIALIZED_BUILDERS[variant](m, n)
    raise UnknownVariantError(variant, available_variants())
