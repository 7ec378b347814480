"""Instrumented kernel wrappers.

Wraps a :class:`~repro.kernels.dispatch.KernelPair` so every ``A x^m`` /
``A x^{m-1}`` call records an aggregated span (``kernel.<variant>.ax_m``)
on the current recorder and charges the symmetric-kernel flop model of
Table II plus a roofline-style traffic estimate (elements read/written
times the dtype width).  The per-tensor kernels don't take a ``counter=``
argument — their cost is charged analytically from the exact counted
formulas of :mod:`repro.kernels.compressed`, which is what the paper's
cost accounting uses for the same operation.

Flop charges go through a caller-supplied :class:`FlopCounter` when given
(usually a :class:`~repro.instrument.recorder.RecorderFlopCounter` bridge),
so legacy counters and traces observe the identical stream.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

from repro.instrument.recorder import current_recorder, span
from repro.kernels.dispatch import BatchedKernelPair, KernelPair
from repro.util.flopcount import FlopCounter

__all__ = ["instrumented_pair", "instrumented_plan", "kernel_cost_model"]

_FLOAT_BYTES = 8  # the per-tensor kernels run in float64


@lru_cache(maxsize=None)
def kernel_cost_model(m: int, n: int) -> dict[str, int]:
    """Per-call cost model of one symmetric kernel evaluation at ``(m, n)``.

    Returns exact counted flops of the Figure-2/3 kernels (the symmetric
    accounting all variants are credited with — variants differ in *speed*,
    not useful arithmetic) and element-traffic estimates.
    """
    from repro.kernels.compressed import symmetric_flops_scalar, symmetric_flops_vector
    from repro.util.combinatorics import num_unique_entries

    U = num_unique_entries(m, n)
    return {
        "flops_scalar": symmetric_flops_scalar(m, n),
        "flops_vector": symmetric_flops_vector(m, n),
        "loads": U + n,  # unique tensor values + the vector
        "stores_scalar": 1,
        "stores_vector": n,
    }


def instrumented_pair(
    pair: KernelPair, counter: FlopCounter | None = None
) -> KernelPair:
    """An instrumented clone of ``pair``.

    Each call opens ``kernel.<name>.ax_m`` / ``kernel.<name>.ax_m1`` on the
    current recorder (no-op when tracing is off) and charges the
    :func:`kernel_cost_model` flops/loads/stores to ``counter`` (when
    given) — pass a recorder bridge so the charges land on the open span.
    Bytes moved are recorded on the span directly.
    """
    scalar_span = f"kernel.{pair.name}.ax_m"
    vector_span = f"kernel.{pair.name}.ax_m1"

    def ax_m(tensor, x):
        cost = kernel_cost_model(tensor.m, tensor.n)
        with span(scalar_span):
            y = pair.ax_m(tensor, x)
            if counter is not None:
                counter.add_flops(cost["flops_scalar"])
                counter.add_loads(cost["loads"])
                counter.add_stores(cost["stores_scalar"])
            rec = current_recorder()
            if rec is not None:
                rec.add("bytes", (cost["loads"] + cost["stores_scalar"]) * _FLOAT_BYTES)
        return y

    def ax_m1(tensor, x):
        cost = kernel_cost_model(tensor.m, tensor.n)
        with span(vector_span):
            y = pair.ax_m1(tensor, x)
            if counter is not None:
                counter.add_flops(cost["flops_vector"])
                counter.add_loads(cost["loads"])
                counter.add_stores(cost["stores_vector"])
            rec = current_recorder()
            if rec is not None:
                rec.add("bytes", (cost["loads"] + cost["stores_vector"]) * _FLOAT_BYTES)
        return y

    return KernelPair(name=pair.name, ax_m=ax_m, ax_m1=ax_m1)


def instrumented_plan(plan, recorder):
    """A clone of the fleet kernel ``plan`` whose ``ax_m1`` calls open
    ``kernel.<variant>.ax_m1`` spans (the batched kernels charge their own
    flops there) and add every lane's :func:`kernel_cost_model` traffic to
    ``recorder`` as ``bytes``.  The fleet never calls ``ax_m``."""
    suite, name = plan.suite, f"kernel.{plan.suite.name}.ax_m1"
    cost = kernel_cost_model(plan.m, plan.n)
    per_lane = cost["loads"] + cost["stores_vector"]

    def ax_m1(values, x, counter=None):
        with span(name):
            y = suite.ax_m1(values, x, counter=counter)
            recorder.add("bytes", x.size // plan.n * per_lane * x.dtype.itemsize)
        return y

    return dataclasses.replace(
        plan, suite=BatchedKernelPair(suite.name, suite.ax_m, ax_m1))
