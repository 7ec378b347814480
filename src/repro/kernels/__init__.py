"""Symmetric tensor-vector kernels (Section III-B): ``A x^m`` and
``A x^{m-1}`` in every implementation variant the paper benchmarks, plus the
general ``A x^{m-p}`` extension.

All per-tensor *and* batched access goes through
:func:`~repro.kernels.dispatch.get_kernels` (``batched=True`` returns the
broadcasting array suite); all *code generation* goes through the
emitter registry of :mod:`repro.kernels.codegen`
(``emit(m, n, variant, target=...)``).
"""

from repro.kernels.batched import monomials_batched
from repro.kernels.blocked import (
    BlockingPlan,
    ax_m1_blocked,
    ax_m_blocked,
    block_shapes,
    blocking_plan,
)
from repro.kernels.compressed import (
    ax_m1_compressed,
    ax_m_compressed,
    symmetric_flops_scalar,
    symmetric_flops_vector,
    ttsv_compressed,
)
from repro.kernels.autotune import (
    BackendTuneReport,
    TuneReport,
    auto_kernels,
    autotune,
    autotune_backend,
)
from repro.kernels.codegen import (
    CODEGEN_VERSION,
    EmittedKernel,
    Emitter,
    available_backends,
    emit,
    get_emitter,
    numba_available,
    register_emitter,
)
from repro.kernels.cuda_emulator import compiler_available, emulate_cuda_sshopm
from repro.kernels.cudagen import generate_cuda_module, generate_host_launcher
from repro.kernels.dispatch import (
    BatchedKernelPair,
    KernelPair,
    UnknownVariantError,
    available_variants,
    get_kernels,
)
from repro.kernels.errors import KernelLookupError, UnknownBackendError
from repro.kernels.matricized import ax_m1_matricized, ax_m_matricized, fold, unfold
from repro.kernels.precomputed import ax_m1_precomputed, ax_m_precomputed
from repro.kernels.reference import (
    ax_m1_dense,
    ax_m1_reference,
    ax_m_dense,
    ax_m_reference,
    general_flops,
    ttsv_dense,
)
from repro.kernels.tables import KernelTables, kernel_tables
from repro.kernels.unrolled import UnrolledKernels


__all__ = [
    "monomials_batched",
    "BlockingPlan",
    "ax_m1_blocked",
    "ax_m_blocked",
    "block_shapes",
    "blocking_plan",
    "ax_m1_compressed",
    "ax_m_compressed",
    "symmetric_flops_scalar",
    "symmetric_flops_vector",
    "ttsv_compressed",
    "BackendTuneReport",
    "TuneReport",
    "auto_kernels",
    "autotune",
    "autotune_backend",
    "CODEGEN_VERSION",
    "EmittedKernel",
    "Emitter",
    "available_backends",
    "emit",
    "get_emitter",
    "numba_available",
    "register_emitter",
    "compiler_available",
    "emulate_cuda_sshopm",
    "generate_cuda_module",
    "generate_host_launcher",
    "BatchedKernelPair",
    "KernelPair",
    "KernelLookupError",
    "UnknownBackendError",
    "UnknownVariantError",
    "available_variants",
    "get_kernels",
    "ax_m1_matricized",
    "ax_m_matricized",
    "fold",
    "unfold",
    "ax_m1_precomputed",
    "ax_m_precomputed",
    "ax_m1_dense",
    "ax_m1_reference",
    "ax_m_dense",
    "ax_m_reference",
    "general_flops",
    "ttsv_dense",
    "KernelTables",
    "kernel_tables",
    "UnrolledKernels",
]
