"""CUDA C source generation for the SS-HOPM kernels.

This environment has no GPU, but the paper's artifact — the CUDA kernel
with one thread block per tensor, one thread per starting vector, the
block's tensor in shared memory, vectors in registers, and both
tensor-vector kernels fully unrolled (Sections V-B/C/D) — can still be
*generated* exactly.  This module emits that source: compileable CUDA C
specialized to ``(m, n, V)``, in both the unrolled and the general
(shared index-table) variants, from the same precomputed tables the Python
kernels use.

The generated code is what you would build with ``nvcc`` on real hardware;
the tests verify its structure (term counts, resource declarations,
balanced syntax), and the generation doubles as documentation of exactly
what the simulated performance model charges for.
"""

from __future__ import annotations

from functools import lru_cache

from repro.kernels.tables import kernel_tables
from repro.kernels.unrolled import MAX_UNROLLED_ENTRIES, unrolled_terms
from repro.util.combinatorics import num_unique_entries

# the per-variant kernel generator is private: use the ``cuda-src``
# emitter of :mod:`repro.kernels.codegen`
__all__ = ["generate_host_launcher", "generate_cuda_module"]


@lru_cache(maxsize=None)
def _generate_cuda_kernel(
    m: int = 4, n: int = 3, num_starts: int = 128, variant: str = "unrolled"
) -> str:
    """CUDA C source of the SS-HOPM kernel for ``(m, n)`` with ``V``
    threads per block.

    ``variant="unrolled"`` emits the Section V-D straight-line kernels;
    ``variant="general"`` emits the Figures 2-3 loops reading the shared
    index/multiplicity tables of Section V-C (kept in ``__constant__``
    memory, shared by every thread block).
    """
    U = num_unique_entries(m, n)
    if variant not in ("unrolled", "general"):
        raise ValueError(f"variant must be 'unrolled' or 'general', got {variant!r}")

    header = f"""\
// Auto-generated SS-HOPM kernel ({variant}), m={m}, n={n}, V={num_starts}.
// Mapping (Ballard/Kolda/Plantenga, IPDPS-W 2011, Section V):
//   blockIdx.x  -> tensor, threadIdx.x -> starting vector;
//   the block's {U} unique tensor values live in shared memory;
//   per-thread input/output vectors live in registers.
#define U {U}
#define N {n}
#define M {m}
#define V {num_starts}
"""

    xdecl = " ".join(f"float x{i} = starts[threadIdx.x * N + {i}];" for i in range(n))

    if variant == "unrolled":
        # the Figures 2-3 sums in single precision (the unroll guard
        # refuses large shapes here)
        terms = unrolled_terms(m, n, suffix="f")
        plus = "\n            + "
        lam_expr = plus.join(terms.ax_m)
        y_lines = "\n".join(
            f"        float y{i} = (\n            {plus.join(entry)});"
            for i, entry in enumerate(terms.ax_m1)
        )
        shift_lines = "\n".join(f"        y{i} += alpha * x{i};" for i in range(n))
        norm_expr = " + ".join(f"y{i}*y{i}" for i in range(n))
        update_lines = "\n".join(f"        x{i} = y{i} * inv;" for i in range(n))
        lam_block = f"""\
        float lam_new = (
            {lam_expr});"""
        tail_stores = "\n".join(
            f"    eigenvectors[(blockIdx.x * V + threadIdx.x) * N + {i}] = x{i};"
            for i in range(n)
        )
        body = f"""\
extern "C" __global__
void sshopm_unrolled(const float* __restrict__ tensors,
                     const float* __restrict__ starts,
                     float* __restrict__ eigenvalues,
                     float* __restrict__ eigenvectors,
                     int max_iter, float alpha, float tol)
{{
    __shared__ float a[U];
    for (int u = threadIdx.x; u < U; u += blockDim.x)
        a[u] = tensors[blockIdx.x * U + u];
    __syncthreads();

    {xdecl}
    float lam = (
        {lam_expr});

    for (int k = 0; k < max_iter; ++k) {{
{y_lines}
{shift_lines}
        float inv = rsqrtf({norm_expr});
{update_lines}
{lam_block}
        if (fabsf(lam_new - lam) < tol) {{ lam = lam_new; break; }}
        lam = lam_new;
    }}

    eigenvalues[blockIdx.x * V + threadIdx.x] = lam;
{tail_stores}
}}
"""
        return header + "\n" + body

    # general variant: Figures 2-4 with precomputed tables in constant memory
    tab = kernel_tables(m, n)
    idx_init = ", ".join(
        str(int(v)) for u in range(tab.num_unique) for v in tab.index[u]
    )
    mult_init = ", ".join(str(int(v)) for v in tab.mult)
    body = f"""\
// Shared across all thread blocks (Section V-C): index representations and
// multiplicities for every unique entry, in lexicographic class order.
__constant__ int c_index[U * M] = {{ {idx_init} }};
__constant__ float c_mult[U] = {{ {mult_init} }};

extern "C" __global__
void sshopm_general(const float* __restrict__ tensors,
                    const float* __restrict__ starts,
                    float* __restrict__ eigenvalues,
                    float* __restrict__ eigenvectors,
                    int max_iter, float alpha, float tol)
{{
    __shared__ float a[U];
    for (int u = threadIdx.x; u < U; u += blockDim.x)
        a[u] = tensors[blockIdx.x * U + u];
    __syncthreads();

    float x[N], y[N];
    for (int i = 0; i < N; ++i) x[i] = starts[threadIdx.x * N + i];

    float lam = 0.0f;
    for (int u = 0; u < U; ++u) {{          // Figure 2
        float xhat = 1.0f;
        for (int j = 0; j < M; ++j) xhat *= x[c_index[u * M + j]];
        lam += c_mult[u] * a[u] * xhat;
    }}

    for (int k = 0; k < max_iter; ++k) {{
        for (int i = 0; i < N; ++i) y[i] = alpha * x[i];
        for (int u = 0; u < U; ++u) {{      // Figure 3
            for (int j = 0; j < M; ++j) {{
                int i = c_index[u * M + j];
                if (j > 0 && i == c_index[u * M + j - 1]) continue; // unique i
                float xhat = 1.0f;
                int skipped = 0;
                for (int l = 0; l < M; ++l) {{
                    int il = c_index[u * M + l];
                    if (il == i && !skipped) {{ skipped = 1; continue; }}
                    xhat *= x[il];
                }}
                // sigma(i) = C(m; k) * k_i / m (footnote 3)
                int ki = 0;
                for (int l = 0; l < M; ++l) if (c_index[u * M + l] == i) ++ki;
                float sigma = c_mult[u] * ki / (float)M;
                y[i] += sigma * a[u] * xhat;
            }}
        }}
        float nrm2 = 0.0f;
        for (int i = 0; i < N; ++i) nrm2 += y[i] * y[i];
        float inv = rsqrtf(nrm2);
        for (int i = 0; i < N; ++i) x[i] = y[i] * inv;
        float lam_new = 0.0f;
        for (int u = 0; u < U; ++u) {{
            float xhat = 1.0f;
            for (int j = 0; j < M; ++j) xhat *= x[c_index[u * M + j]];
            lam_new += c_mult[u] * a[u] * xhat;
        }}
        if (fabsf(lam_new - lam) < tol) {{ lam = lam_new; break; }}
        lam = lam_new;
    }}

    eigenvalues[blockIdx.x * V + threadIdx.x] = lam;
    for (int i = 0; i < N; ++i)
        eigenvectors[(blockIdx.x * V + threadIdx.x) * N + i] = x[i];
}}
"""
    return header + "\n" + body


def generate_host_launcher(m: int = 4, n: int = 3, num_starts: int = 128) -> str:
    """Host-side launch snippet: grid of ``T`` blocks x ``V`` threads,
    matching the data layout of Section V-C.  It launches the unrolled
    kernel, or past the unroll guard the general one, the only kernel
    :func:`generate_cuda_module` emits there."""
    U = num_unique_entries(m, n)
    kernel = "sshopm_unrolled" if U <= MAX_UNROLLED_ENTRIES else "sshopm_general"
    pad = " " * (len(kernel) + len("<<<grid, block>>>("))
    return f"""\
// Host-side launch (T tensors, {num_starts} starting vectors each):
//   tensors       : T * {U} floats   (unique values, class order)
//   starts        : {num_starts} * {n} floats (shared by every block)
//   eigenvalues   : T * {num_starts} floats
//   eigenvectors  : T * {num_starts} * {n} floats
dim3 grid(T);
dim3 block({num_starts});
{kernel}<<<grid, block>>>(d_tensors, d_starts,
{pad}d_eigenvalues, d_eigenvectors,
{pad}max_iter, alpha, tol);
"""


def generate_cuda_module(m: int = 4, n: int = 3, num_starts: int = 128) -> str:
    """Both kernel variants plus the launcher in one translation unit.
    Past the unroll guard (:data:`~repro.kernels.unrolled.MAX_UNROLLED_ENTRIES`
    unique entries) the module has only the general kernel, which needs
    no unrolling, and says so in a comment."""
    U = num_unique_entries(m, n)
    if U <= MAX_UNROLLED_ENTRIES:
        unrolled = _generate_cuda_kernel(m, n, num_starts, "unrolled")
    else:
        unrolled = (
            f"// No sshopm_unrolled kernel: m={m}, n={n} has {U} unique "
            f"entries, past the\n// unroll guard of {MAX_UNROLLED_ENTRIES} "
            "(full unrolling only makes sense for small\n// tensors; see "
            "Section V-D).  The general kernel below has no such limit.\n")
    return "\n".join(
        [
            unrolled,
            _generate_cuda_kernel(m, n, num_starts, "general"),
            "/*",
            generate_host_launcher(m, n, num_starts),
            "*/",
        ]
    )

