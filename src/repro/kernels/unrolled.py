"""Loop-unrolled kernels via code generation (Section V-D).

For a fixed ``(m, n)`` the paper completely unrolls both kernel loops: the
index information and multinomial coefficients are folded into the code at
compile time, input/output vector entries live in registers, and the
compiler sees straight-line arithmetic.  "This is possible for small
problems" — for ``m=4, n=3`` the scalar kernel is a 15-term sum and each of
the 3 vector-kernel entries a 10-term sum.

This module is the Python analog: :func:`_make_unrolled` *generates source
code* for the two kernels specialized to ``(m, n)``, compiles it with
``exec``, and returns the callables together with their exact flop counts
(known at generation time, exactly as the paper's static analysis).  Two
axes of variants:

* ``cse=True`` applies the common-subexpression elimination the paper
  mentions as a further possible optimization: powers ``x_i^e`` are computed
  once into locals and monomials are built from them, reducing the multiply
  count at the price of serial dependencies.
* ``batched=True`` emits NumPy-broadcasting code over arrays of tensors and
  vectors (``a[..., u]``, ``x[..., i]``) instead of scalars — the
  whole-device analog used by the simulated GPU executor, where one
  generated expression evaluates every (tensor, starting-vector) thread at
  once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from repro.kernels.tables import kernel_tables

# the generators are private: use the :mod:`repro.kernels.codegen`
# emitter registry (``emit(m, n, variant, target="numpy")``)
__all__ = ["UnrolledKernels"]

#: The unroll guard: shapes with more unique entries than this are never
#: unrolled (Section V-D: full unrolling only scales to small problems).
MAX_UNROLLED_ENTRIES = 4000


@dataclass(frozen=True)
class UnrolledKernels:
    """Compiled unrolled kernels for one ``(m, n)`` specialization.

    Attributes
    ----------
    ax_m, ax_m1 : the generated callables. Non-batched signatures are
        ``ax_m(a, x) -> float`` and ``ax_m1(a, x) -> ndarray(n)`` where ``a``
        is the unique-value array; batched signatures take broadcastable
        ``a[..., U]`` / ``x[..., n]`` arrays.
    source : the generated module source (inspectable, e.g. for the docs).
    flops_scalar, flops_vector : exact floating-point operation counts of one
        evaluation of each kernel (per thread), from static analysis of the
        generated expressions.  These feed the GPU performance model.
    """

    m: int
    n: int
    cse: bool
    batched: bool
    ax_m: Callable
    ax_m1: Callable
    source: str
    flops_scalar: int
    flops_vector: int


def _monomial_expr(
    factors: list[int],
    xvar,
    power_vars: dict[tuple[int, int], str] | None,
    flops: list[int],
) -> str:
    """Expression string for ``prod_i x_{factors[i]}`` (0-based factors).

    With ``power_vars`` (CSE mode) the product is built from precomputed
    ``x_i^e`` locals; otherwise it is a flat chain of multiplies.
    Appends the multiply count to ``flops``.
    """
    if not factors:
        return "1.0"
    if power_vars is None:
        parts = [xvar(i) for i in factors]
        flops.append(len(parts) - 1)
        return "*".join(parts)
    # CSE: group repeated factors into power variables
    counts: dict[int, int] = {}
    for i in factors:
        counts[i] = counts.get(i, 0) + 1
    parts = []
    for i in sorted(counts):
        e = counts[i]
        parts.append(xvar(i) if e == 1 else power_vars[(i, e)])
    flops.append(len(parts) - 1)
    return "*".join(parts)


def _generate_source(m: int, n: int, cse: bool = False, batched: bool = False) -> tuple[str, int, int]:
    """Generate the module source for the two unrolled kernels.

    Returns ``(source, flops_scalar, flops_vector)``.
    """
    tab = kernel_tables(m, n)
    U = tab.num_unique

    if batched:
        xvar = lambda i: f"x{i}"  # noqa: E731
        avar = lambda u: f"a[..., {u}]"  # noqa: E731
        x_prelude = [f"    x{i} = x[..., {i}]" for i in range(n)]
    else:
        xvar = lambda i: f"x{i}"  # noqa: E731
        avar = lambda u: f"a[{u}]"  # noqa: E731
        x_prelude = [f"    x{i} = x[{i}]" for i in range(n)]

    # CSE power variables: x_i^e for every exponent e >= 2 that occurs
    power_vars: dict[tuple[int, int], str] | None = None
    cse_lines: list[str] = []
    cse_flops = 0
    if cse:
        power_vars = {}
        max_exp = [0] * n
        for u in range(U):
            for i in range(n):
                max_exp[i] = max(max_exp[i], int(tab.monomial[u, i]))
        # the vector kernel uses exponents one lower; covered since e-1 <= e
        for i in range(n):
            prev = xvar(i)
            for e in range(2, max_exp[i] + 1):
                name = f"x{i}_{e}"
                cse_lines.append(f"    {name} = {prev}*{xvar(i)}")
                power_vars[(i, e)] = name
                prev = name
                cse_flops += 1

    # Terms are emitted as accumulation *statements* (acc += term), not one
    # giant sum expression: CPython's compiler recurses on expression depth
    # and overflows past ~1000 chained additions, while a statement list
    # compiles flat at any length.

    # ---- scalar kernel: A x^m ------------------------------------------
    sflops: list[int] = []
    terms = []
    for u in range(U):
        factors = [int(v) for v in tab.index[u]]
        mono = _monomial_expr(factors, xvar, power_vars, sflops)
        c = int(tab.mult[u])
        if c == 1:
            terms.append(f"{avar(u)}*{mono}")
            sflops.append(1)  # a * mono
        else:
            terms.append(f"{float(c)}*{avar(u)}*{mono}")
            sflops.append(2)  # c * a * mono
    flops_scalar = sum(sflops) + (U - 1) + cse_flops  # terms + additions

    # ---- vector kernel: A x^(m-1) ---------------------------------------
    vflops: list[int] = []
    out_terms: list[list[str]] = []
    for i in range(n):
        lo, hi = int(tab.out_starts[i]), int(tab.out_starts[i + 1])
        entry_terms = []
        for r in range(lo, hi):
            factors = [int(v) for v in tab.row_factors[r]]
            mono = _monomial_expr(factors, xvar, power_vars, vflops)
            c = int(tab.row_sigma[r])
            u = int(tab.row_class[r])
            if c == 1:
                entry_terms.append(f"{avar(u)}*{mono}")
                vflops.append(1)
            else:
                entry_terms.append(f"{float(c)}*{avar(u)}*{mono}")
                vflops.append(2)
        vflops.append(len(entry_terms) - 1)
        out_terms.append(entry_terms)
    flops_vector = sum(vflops) + cse_flops

    def accumulate(var: str, term_list: list[str]) -> list[str]:
        out = [f"    {var} = {term_list[0]}"]
        out.extend(f"    {var} += {t}" for t in term_list[1:])
        return out

    lines = [
        f'"""Auto-generated unrolled kernels for m={m}, n={n} '
        f'(cse={cse}, batched={batched})."""',
        "import numpy as np",
        "",
        "def ax_m(a, x):",
        *x_prelude,
        *cse_lines,
        *accumulate("acc", terms),
        "    return acc",
        "",
        "def ax_m1(a, x):",
        *x_prelude,
        *cse_lines,
    ]
    for i, entry_terms in enumerate(out_terms):
        lines.extend(accumulate(f"y{i}", entry_terms))
    if batched:
        lines.append(
            "    return np.stack(np.broadcast_arrays("
            + ", ".join(f"y{i}" for i in range(n))
            + "), axis=-1)"
        )
    else:
        lines.append(
            "    return np.array([" + ", ".join(f"y{i}" for i in range(n)) + "])"
        )
    lines.append("")
    return "\n".join(lines), flops_scalar, flops_vector


@lru_cache(maxsize=None)
def _make_unrolled(m: int, n: int, cse: bool = False, batched: bool = False) -> UnrolledKernels:
    """Generate, compile, and cache the unrolled kernels for ``(m, n)``.

    Generation cost grows with ``C(m+n-1, m)`` terms; a guard refuses sizes
    whose generated source would be absurd (the paper's observation that
    full unrolling only scales to small problems — beyond that a blocked
    approach is needed, which it leaves as future work).
    """
    tab = kernel_tables(m, n)
    if tab.num_unique > MAX_UNROLLED_ENTRIES:
        raise ValueError(
            f"refusing to unroll m={m}, n={n}: {tab.num_unique} unique entries "
            "(full unrolling only makes sense for small tensors; see Section V-D)"
        )
    source, flops_scalar, flops_vector = _generate_source(m, n, cse=cse, batched=batched)
    namespace: dict = {}
    code = compile(source, f"<unrolled m={m} n={n} cse={cse} batched={batched}>", "exec")
    exec(code, namespace)  # noqa: S102 - controlled, generated source
    return UnrolledKernels(
        m=m,
        n=n,
        cse=cse,
        batched=batched,
        ax_m=namespace["ax_m"],
        ax_m1=namespace["ax_m1"],
        source=source,
        flops_scalar=flops_scalar,
        flops_vector=flops_vector,
    )

