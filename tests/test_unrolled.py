"""Tests of the Section V-D code generator: correctness is covered by the
agreement suite; here we check the term list, the generated source, the
static flop counts, the CSE variant, and the scaling guard."""

import numpy as np
import pytest

from repro.kernels.codegen import emit
from repro.kernels.tables import kernel_tables
from repro.kernels.unrolled import unrolled_terms
from repro.symtensor.random import random_symmetric_tensor


def numpy_kernel(m, n, cse=False, batched=False):
    """The numpy emitter's unrolled kernel pair."""
    return emit(m, n, "unrolled_cse" if cse else "unrolled",
                target="numpy", batched=batched)


class TestGeneration:
    def test_source_is_compilable_and_inspectable(self):
        gen = numpy_kernel(4, 3)
        assert "def ax_m(" in gen.source
        assert "def ax_m1(" in gen.source
        compile(gen.source, "<check>", "exec")

    def test_paper_term_counts(self):
        """Section V-D: for m=4, n=3 the A x^m sum has 15 terms and each of
        the 3 output entries of A x^{m-1} has 10 terms."""
        tab = kernel_tables(4, 3)
        assert tab.num_unique == 15
        seg_lengths = np.diff(tab.out_starts)
        assert list(seg_lengths) == [10, 10, 10]

    def test_caching(self):
        assert numpy_kernel(3, 3) is numpy_kernel(3, 3)
        assert numpy_kernel(3, 3) is not numpy_kernel(3, 3, cse=True)

    def test_guard_refuses_huge_unroll(self):
        with pytest.raises(ValueError):
            numpy_kernel(10, 10)  # C(19,10) = 92378 unique entries

    def test_generate_source_returns_counts(self):
        gen = numpy_kernel(4, 3)
        assert gen.flops_scalar > 0 and gen.flops_vector > 0
        assert isinstance(gen.source, str)


class TestTermList:
    def test_section_vd_term_counts(self):
        terms = unrolled_terms(4, 3)
        assert len(terms.ax_m) == 15
        assert [len(entry) for entry in terms.ax_m1] == [10, 10, 10]
        assert terms.powers == ()

    def test_coefficients_and_spelling(self):
        """A coefficient of 1 is left out; ``suffix`` ends every float
        literal and ``value`` spells the unique values."""
        terms = unrolled_terms(4, 3, value="v[{}]", suffix="f")
        assert terms.ax_m[0] == "v[0]*x0*x0*x0*x0"
        assert terms.ax_m[1] == "4.0f*v[1]*x0*x0*x0*x1"

    def test_cse_powers_chain(self):
        terms = unrolled_terms(4, 2, cse=True)
        assert terms.powers[:3] == (("x0_2", "x0*x0"), ("x0_3", "x0_2*x0"),
                                    ("x0_4", "x0_3*x0"))
        assert terms.ax_m[1] == "4.0*a[1]*x0_3*x1"

    def test_spelling_does_not_change_counts(self):
        plain = unrolled_terms(5, 3)
        c = unrolled_terms(5, 3, value="a[l, {}]", suffix="f")
        assert (plain.flops_scalar, plain.flops_vector) == (
            c.flops_scalar, c.flops_vector)


class TestStaticFlopCounts:
    def test_scalar_count_matches_structure(self):
        """flops = per-term products + coefficient/value multiplies + adds."""
        gen = numpy_kernel(4, 3)
        tab = kernel_tables(4, 3)
        U = tab.num_unique
        expected = 0
        for u in range(U):
            expected += 3  # m-1 monomial multiplies
            expected += 2 if tab.mult[u] != 1 else 1
        expected += U - 1  # additions
        assert gen.flops_scalar == expected

    def test_cse_never_costs_more(self):
        for m, n in [(3, 3), (4, 3), (4, 4), (5, 3), (6, 2)]:
            plain = numpy_kernel(m, n)
            cse = numpy_kernel(m, n, cse=True)
            assert cse.flops_scalar <= plain.flops_scalar
            assert cse.flops_vector <= plain.flops_vector

    def test_counts_grow_with_size(self):
        assert numpy_kernel(4, 4).flops_scalar > numpy_kernel(4, 3).flops_scalar
        assert numpy_kernel(5, 3).flops_vector > numpy_kernel(4, 3).flops_vector


class TestCseCorrectness:
    def test_cse_matches_plain(self, size, rng):
        m, n = size
        tensor = random_symmetric_tensor(m, n, rng=rng)
        x = rng.normal(size=n)
        plain = numpy_kernel(m, n)
        cse = numpy_kernel(m, n, cse=True)
        assert np.isclose(plain.ax_m(tensor.values, x), cse.ax_m(tensor.values, x))
        assert np.allclose(plain.ax_m1(tensor.values, x), cse.ax_m1(tensor.values, x))

    def test_cse_power_variables_in_source(self):
        gen = numpy_kernel(4, 3, cse=True)
        assert "x0_2" in gen.source  # squared power local


class TestBatchedGeneration:
    def test_batched_broadcasting(self, rng):
        gen = numpy_kernel(4, 3, batched=True)
        a = rng.normal(size=(5, 1, 15))
        x = rng.normal(size=(1, 7, 3))
        y = gen.ax_m(a, x)
        v = gen.ax_m1(a, x)
        assert y.shape == (5, 7)
        assert v.shape == (5, 7, 3)

    def test_batched_matches_scalar(self, rng):
        plain = numpy_kernel(4, 3)
        batched = numpy_kernel(4, 3, batched=True)
        a = rng.normal(size=15)
        x = rng.normal(size=3)
        assert np.isclose(batched.ax_m(a, x), plain.ax_m(a, x))
        assert np.allclose(batched.ax_m1(a, x), plain.ax_m1(a, x))

    def test_batched_cse(self, rng):
        gen = numpy_kernel(4, 3, cse=True, batched=True)
        a = rng.normal(size=(4, 15))
        x = rng.normal(size=(4, 3))
        plain = numpy_kernel(4, 3)
        for i in range(4):
            assert np.isclose(gen.ax_m(a, x)[i], plain.ax_m(a[i], x[i]))


class TestMatrixCase:
    def test_m2_unrolled_is_matvec(self, rng):
        gen = numpy_kernel(2, 4)
        tensor = random_symmetric_tensor(2, 4, rng=rng)
        x = rng.normal(size=4)
        dense = tensor.to_dense()
        assert np.allclose(gen.ax_m1(tensor.values, x), dense @ x)
        assert np.isclose(gen.ax_m(tensor.values, x), x @ dense @ x)
