"""Loop-unrolled kernels via code generation (Section V-D).

For a fixed ``(m, n)`` the paper completely unrolls both kernel loops: the
index information and multinomial coefficients are folded into the code at
compile time, input/output vector entries live in registers, and the
compiler sees straight-line arithmetic.  "This is possible for small
problems" — for ``m=4, n=3`` the scalar kernel is a 15-term sum and each of
the 3 vector-kernel entries a 10-term sum.

This module builds that straight-line form once: :func:`unrolled_terms`
turns the kernel tables into a list of terms, together with their exact
flop counts (known at generation time, exactly as the paper's static
analysis).  Every emitter of :mod:`repro.kernels.codegen` only renders the
list — as ``exec``-compiled Python (scalar ``a[u]`` or broadcasting
``a[..., u]`` values), as the numba flat-batch loop, or as the CUDA C
kernel.  ``cse=True`` applies the common-subexpression elimination the
paper mentions as a further possible optimization: powers ``x_i^e`` are
computed once into locals and monomials are built from them, reducing the
multiply count at the price of serial dependencies.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.kernels.tables import kernel_tables
from repro.util.combinatorics import num_unique_entries

# the generated kernels come from the :mod:`repro.kernels.codegen`
# emitter registry (``emit(m, n, variant, target="numpy")``)
__all__ = ["MAX_UNROLLED_ENTRIES", "UnrolledTerms", "unrolled_terms"]

#: The unroll guard: shapes with more unique entries than this are never
#: unrolled (Section V-D: full unrolling only scales to small problems).
MAX_UNROLLED_ENTRIES = 4000


@dataclass(frozen=True)
class UnrolledTerms:
    """The straight-line form of both kernels for one ``(m, n)``.

    Attributes
    ----------
    powers : the CSE locals in evaluation order, as ``(name, product)``
        pairs (``("x0_3", "x0_2*x0")``); empty without CSE.
    ax_m : the terms of ``A x^m``, one per unique entry.
    ax_m1 : one term list per entry of ``A x^{m-1}``.
    flops_scalar, flops_vector : exact floating-point operation counts of
        one evaluation of each kernel (per lane), CSE powers and additions
        included.  These feed the GPU performance model.

    Terms and powers read the vector entries as ``x0 .. x{n-1}``; a
    renderer binds those names and sums each list.
    """

    powers: tuple[tuple[str, str], ...]
    ax_m: tuple[str, ...]
    ax_m1: tuple[tuple[str, ...], ...]
    flops_scalar: int
    flops_vector: int


def unrolled_terms(m: int, n: int, cse: bool = False, value: str = "a[{}]",
                   suffix: str = "") -> UnrolledTerms:
    """Build the terms of both unrolled kernels for ``(m, n)``.

    ``value`` formats the unique value ``u`` (``"a[..., {}]"`` for
    broadcasting arrays); ``suffix`` ends every float literal (``"f"``
    in C).  A term is ``[c*]a_u*x_i*x_j...`` with the multinomial (or
    sigma) coefficient ``c`` written only when it is not 1.

    The guard refuses shapes past :data:`MAX_UNROLLED_ENTRIES` before any
    table is built (the paper's observation that full unrolling only
    scales to small problems — beyond that a blocked approach is needed,
    which it leaves as future work).
    """
    unique = num_unique_entries(m, n)
    if unique > MAX_UNROLLED_ENTRIES:
        raise ValueError(
            f"refusing to unroll m={m}, n={n}: {unique} unique entries "
            "(full unrolling only makes sense for small tensors; see Section V-D)"
        )
    tab = kernel_tables(m, n)

    # CSE power locals: x_i^e for every exponent e >= 2 that occurs (the
    # vector kernel uses exponents one lower; covered since e-1 <= e)
    powers = []
    if cse:
        for i, top in enumerate(tab.monomial.max(axis=0).tolist()):
            prev = f"x{i}"
            for e in range(2, top + 1):
                powers.append((f"x{i}_{e}", f"{prev}*x{i}"))
                prev = f"x{i}_{e}"

    def term(c: int, u: int, factors: list[int]) -> tuple[str, int]:
        """``c * a_u * prod_f x_f`` (``m >= 2``: at least one factor) and
        its multiply count."""
        if cse:  # group repeated factors into power locals
            parts = [f"x{i}" if e == 1 else f"x{i}_{e}"
                     for i, e in sorted(Counter(factors).items())]
        else:
            parts = [f"x{i}" for i in factors]
        mono = "*".join(parts)
        if c == 1:
            return f"{value.format(u)}*{mono}", len(parts)
        return f"{float(c)}{suffix}*{value.format(u)}*{mono}", len(parts) + 1

    scalar = [term(c, u, f) for u, (c, f)
              in enumerate(zip(tab.mult.tolist(), tab.index.tolist()))]
    rows = [term(c, u, f) for c, u, f in zip(tab.row_sigma.tolist(),
                                             tab.row_class.tolist(),
                                             tab.row_factors.tolist())]
    bounds = tab.out_starts.tolist()
    vector = [rows[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    return UnrolledTerms(
        powers=tuple(powers),
        ax_m=tuple(t for t, _ in scalar),
        ax_m1=tuple(tuple(t for t, _ in entry) for entry in vector),
        # terms + additions (+ the CSE powers, one multiply each)
        flops_scalar=sum(f for _, f in scalar) + unique - 1 + len(powers),
        flops_vector=(sum(f for _, f in rows) + len(rows) - len(vector)
                      + len(powers)),
    )
