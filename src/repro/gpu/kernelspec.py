"""Resource descriptors for the SS-HOPM CUDA kernels (Section V-C/D).

The paper's launch shape: one thread block per tensor, one thread per
starting vector (``V = 128`` threads/block).  Per-block shared memory holds
that block's tensor (``U`` floats); the general variant additionally keeps
the shared index/multiplicity tables at hand; the unrolled variant keeps the
input and output vectors (and live monomial subexpressions) in registers.

These estimates are what the occupancy calculator consumes.  They are
deliberately simple, monotone functions of ``(m, n)`` chosen to match the
two anchor points the paper reports: full throughput at ``m=4, n=3`` and
"decreased performance for tensor sizes past a threshold of around order 4
and dimension 5" caused by shrinking occupancy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.kernels.compressed import symmetric_flops_scalar, symmetric_flops_vector
from repro.kernels.unrolled import MAX_UNROLLED_ENTRIES, unrolled_terms
from repro.util.combinatorics import num_unique_entries

__all__ = ["KernelLaunch", "sshopm_launch", "FLOAT_BYTES"]

FLOAT_BYTES = 4  # the paper computes in single precision


@dataclass(frozen=True)
class KernelLaunch:
    """One kernel's per-block resource footprint and per-thread work.

    Attributes
    ----------
    threads_per_block : V (starting vectors per tensor).
    registers_per_thread : estimated register demand *before* applying the
        device's per-thread cap; the occupancy calculator handles spilling.
    shared_mem_per_block : bytes of shared memory per block.
    flops_per_thread_iter : useful flops one thread performs per SS-HOPM
        iteration (vector kernel + scalar kernel + update/normalize).
    instr_per_thread_iter : total issued instructions per iteration,
        including integer/index/load overhead — the ratio
        ``flops / (2 * instr)`` bounds the achievable fraction of FMA peak.
    """

    name: str
    threads_per_block: int
    registers_per_thread: int
    shared_mem_per_block: int
    flops_per_thread_iter: float
    instr_per_thread_iter: float

    @property
    def warps_per_block(self) -> float:
        return self.threads_per_block / 32.0


@lru_cache(maxsize=None)
def _iteration_flops(m: int, n: int, variant: str) -> tuple[int, int]:
    """(scalar kernel flops, vector kernel flops) per thread-iteration: the
    static counts of the unrolled term list (nothing is compiled), or, for
    the general variant past the unroll guard, the counted flops of the
    Figure 2-3 kernels, which need no unrolling."""
    if variant == "general" and num_unique_entries(m, n) > MAX_UNROLLED_ENTRIES:
        return symmetric_flops_scalar(m, n), symmetric_flops_vector(m, n)
    terms = unrolled_terms(m, n)
    return terms.flops_scalar, terms.flops_vector


def sshopm_launch(
    m: int,
    n: int,
    num_starts: int = 128,
    variant: str = "unrolled",
    general_instr_overhead: float = 7.0,
) -> KernelLaunch:
    """Resource/work descriptor for one SS-HOPM iteration kernel.

    Parameters
    ----------
    m, n : tensor order and dimension.
    num_starts : threads per block (V).
    variant : ``"unrolled"`` (Section V-D) or ``"general"`` (Figures 2-3
        executed with shared index tables, Section V-C).
    general_instr_overhead : issued instructions per useful flop for the
        general variant (index indirection, multinomial lookups, loop
        control, shared/local traffic).  The default is calibrated so the
        model reproduces the paper's measured ~19x unrolled-over-general
        GPU gap; see EXPERIMENTS.md.

    Notes
    -----
    Per-thread work per iteration is ``flops_vector + flops_scalar`` (the
    two kernels of Figure 1) plus ``3n + 4`` for the shift, normalization,
    and convergence test.  Both variants take the kernel flops from the
    unrolled term list (:func:`repro.kernels.unrolled.unrolled_terms`), so
    they model the same arithmetic.  Past the unroll guard
    (:data:`~repro.kernels.unrolled.MAX_UNROLLED_ENTRIES` unique entries)
    ``"unrolled"`` raises the guard's ``ValueError``, and ``"general"``
    takes the counted flops of the compressed Figure 2-3 kernels instead
    (:func:`~repro.kernels.compressed.symmetric_flops_scalar` and
    :func:`~repro.kernels.compressed.symmetric_flops_vector`).

    Register model (unrolled): 8 bookkeeping + ``2n`` vector entries +
    ``~U/4`` live monomial subexpressions.  Shared memory: the block's
    tensor (``U`` floats) for both variants, plus the index (``m`` ints) and
    multiplicity (1 int) tables per unique entry for the general variant.
    """
    if variant not in ("unrolled", "general"):
        raise ValueError(f"unknown kernel variant {variant!r}")
    U = num_unique_entries(m, n)
    fs, fv = _iteration_flops(m, n, variant)
    flops_iter = fs + fv + 3 * n + 4

    if variant == "unrolled":
        regs = 8 + 2 * n + (U + 3) // 4
        smem = U * FLOAT_BYTES
        # straight-line arithmetic with occasional shared-memory loads of
        # tensor values: ~1 load per unique entry per kernel
        instr_iter = flops_iter + 2 * U
    else:
        regs = 20 + m + n
        smem = U * FLOAT_BYTES + (m + 1) * U * FLOAT_BYTES
        instr_iter = flops_iter * general_instr_overhead

    return KernelLaunch(
        name=f"sshopm-{variant}-m{m}n{n}",
        threads_per_block=num_starts,
        registers_per_thread=regs,
        shared_mem_per_block=smem,
        flops_per_thread_iter=float(flops_iter),
        instr_per_thread_iter=float(instr_iter),
    )
