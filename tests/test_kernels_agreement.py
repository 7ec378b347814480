"""Cross-variant agreement: every kernel implementation must match the dense
einsum reference, and all satisfy the algebraic identities of symmetric
tensor-vector products."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.batched import ax_m1_batched, ax_m_batched
from repro.kernels.codegen import emit
from repro.kernels.compressed import ax_m1_compressed, ax_m_compressed
from repro.kernels.dispatch import available_variants, get_kernels
from repro.kernels.precomputed import ax_m1_precomputed, ax_m_precomputed
from repro.kernels.reference import ax_m1_dense, ax_m_dense
from repro.symtensor.random import random_symmetric_tensor
from repro.util.rng import random_unit_vector


def _reference(tensor, x):
    dense = tensor.to_dense()
    return ax_m_dense(dense, x), ax_m1_dense(dense, x)


class TestVariantAgreement:
    def test_all_variants_match_reference(self, size, rng):
        m, n = size
        tensor = random_symmetric_tensor(m, n, rng=rng)
        x = rng.normal(size=n)
        y_ref, v_ref = _reference(tensor, x)
        for name in available_variants():
            pair = get_kernels(name, m, n)
            assert np.allclose(pair.ax_m(tensor, x), y_ref), name
            assert np.allclose(pair.ax_m1(tensor, x), v_ref), name

    def test_special_vector_zero(self, size):
        m, n = size
        tensor = random_symmetric_tensor(m, n, rng=0)
        x = np.zeros(n)
        assert ax_m_compressed(tensor, x) == 0.0
        assert np.allclose(ax_m1_compressed(tensor, x), 0.0)
        # the unrolled kernel divides nothing (builds products directly)
        gen = emit(m, n, "unrolled", target="numpy")
        assert gen.ax_m(tensor.values, x) == 0.0
        assert np.allclose(gen.ax_m1(tensor.values, x), 0.0)

    def test_vector_with_zero_entry(self, size, rng):
        """Figure 3's literal 'divide by x_i' formulation breaks at zero
        entries; our kernels must not."""
        m, n = size
        tensor = random_symmetric_tensor(m, n, rng=rng)
        x = rng.normal(size=n)
        x[0] = 0.0
        y_ref, v_ref = _reference(tensor, x)
        assert np.allclose(ax_m_compressed(tensor, x), y_ref)
        assert np.allclose(ax_m1_compressed(tensor, x), v_ref)
        assert np.allclose(ax_m1_precomputed(tensor, x), v_ref)
        assert np.allclose(ax_m1_batched(tensor.values, x), v_ref)

    def test_basis_vectors(self, size):
        """A e_i^m must equal the diagonal entry a_{i...i}."""
        m, n = size
        tensor = random_symmetric_tensor(m, n, rng=1)
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            assert np.isclose(ax_m_compressed(tensor, e), tensor[(i,) * m])


class TestAlgebraicIdentities:
    def test_euler_identity(self, size, rng):
        """x . (A x^{m-1}) == A x^m (Euler's theorem for homogeneous forms)."""
        m, n = size
        tensor = random_symmetric_tensor(m, n, rng=rng)
        x = rng.normal(size=n)
        assert np.isclose(ax_m1_compressed(tensor, x) @ x, ax_m_compressed(tensor, x))

    @given(st.floats(-3, 3, allow_nan=False))
    @settings(max_examples=20)
    def test_homogeneity(self, c):
        """A (c x)^m = c^m A x^m; A (c x)^{m-1} = c^{m-1} A x^{m-1}."""
        m, n = 4, 3
        tensor = random_symmetric_tensor(m, n, rng=5)
        x = random_unit_vector(n, rng=6)
        y = ax_m_precomputed(tensor, x)
        v = ax_m1_precomputed(tensor, x)
        assert np.isclose(ax_m_precomputed(tensor, c * x), c**m * y, atol=1e-9)
        assert np.allclose(ax_m1_precomputed(tensor, c * x), c ** (m - 1) * v, atol=1e-9)

    def test_linearity_in_tensor(self, rng):
        a = random_symmetric_tensor(3, 4, rng=rng)
        b = random_symmetric_tensor(3, 4, rng=rng)
        x = rng.normal(size=4)
        combo = a + 2.0 * b
        assert np.isclose(
            ax_m_compressed(combo, x),
            ax_m_compressed(a, x) + 2.0 * ax_m_compressed(b, x),
        )
        assert np.allclose(
            ax_m1_compressed(combo, x),
            ax_m1_compressed(a, x) + 2.0 * ax_m1_compressed(b, x),
        )

    def test_matrix_case_reduces_to_matvec(self, rng):
        """m=2: A x^1 == A @ x and A x^2 == x^T A x."""
        tensor = random_symmetric_tensor(2, 6, rng=rng)
        dense = tensor.to_dense()
        x = rng.normal(size=6)
        assert np.allclose(ax_m1_compressed(tensor, x), dense @ x)
        assert np.isclose(ax_m_compressed(tensor, x), x @ dense @ x)

    def test_gradient_relation(self, rng):
        """numerical gradient of f(x) = A x^m equals m * A x^{m-1}."""
        tensor = random_symmetric_tensor(4, 3, rng=rng)
        x = rng.normal(size=3)
        grad = np.zeros(3)
        h = 1e-6
        for i in range(3):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            grad[i] = (ax_m_precomputed(tensor, xp) - ax_m_precomputed(tensor, xm)) / (2 * h)
        assert np.allclose(grad, 4 * ax_m1_precomputed(tensor, x), atol=1e-4)

    def test_rank_one_tensor_eigenstructure(self, rng):
        """For A = d^{(x)m} with unit d: A x^{m-1} = (d.x)^{m-1} d."""
        from repro.symtensor.storage import symmetric_outer_power

        d = random_unit_vector(4, rng=rng)
        tensor = symmetric_outer_power(d, 5)
        x = rng.normal(size=4)
        expected = (d @ x) ** 4 * d
        assert np.allclose(ax_m1_compressed(tensor, x), expected)


class TestInputValidation:
    def test_wrong_x_shape(self):
        tensor = random_symmetric_tensor(3, 3, rng=0)
        with pytest.raises(ValueError):
            ax_m_compressed(tensor, np.zeros(4))
        with pytest.raises(ValueError):
            ax_m1_compressed(tensor, np.zeros(2))
        with pytest.raises(ValueError):
            ax_m_precomputed(tensor, np.zeros(4))
        with pytest.raises(ValueError):
            ax_m1_precomputed(tensor, np.zeros(4))

    def test_dispatch_unknown_variant(self):
        with pytest.raises(KeyError):
            get_kernels("nonexistent")

    def test_dispatch_specialized_needs_shape(self):
        with pytest.raises(ValueError):
            get_kernels("unrolled")

    def test_available_variants_sorted(self):
        names = available_variants()
        assert names == sorted(names)
        assert {"reference", "compressed", "precomputed", "unrolled", "vectorized"} <= set(names)


class TestFloat32:
    def test_single_precision_path(self, rng):
        """The paper computes in single precision; kernels must accept it."""
        tensor = random_symmetric_tensor(4, 3, rng=rng).astype(np.float32)
        x = rng.normal(size=3).astype(np.float32)
        y64 = ax_m_compressed(tensor.astype(np.float64), x.astype(np.float64))
        assert np.isclose(ax_m_batched(tensor.values, x), y64, rtol=1e-4)
        v = ax_m1_batched(tensor.values, x)
        assert v.dtype == np.float32
