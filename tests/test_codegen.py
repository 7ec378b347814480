"""The pluggable-emitter codegen registry (repro.kernels.codegen): emitter
lookup and aliases, the three first-class backends, graceful numba
degradation, and the flat-batch source generator."""

import builtins

import numpy as np
import pytest

from repro.kernels import codegen
from repro.kernels.codegen import (
    CODEGEN_VERSION,
    EmittedKernel,
    Emitter,
    available_backends,
    emit,
    generate_flat_source,
    get_emitter,
    numba_available,
    register_emitter,
)
from repro.kernels.dispatch import UnknownVariantError
from repro.kernels.errors import UnknownBackendError
from repro.kernels.reference import ax_m1_dense, ax_m_dense
from repro.kernels.tables import kernel_tables
from repro.symtensor.random import random_symmetric_tensor


@pytest.fixture
def generated_compiles(monkeypatch):
    """Filenames of generated (``<...>``) sources compiled from here on."""
    real = builtins.compile
    names = []

    def counting(source, filename, *args, **kwargs):
        if str(filename).startswith("<"):
            names.append(filename)
        return real(source, filename, *args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counting)
    return names


class TestRegistry:
    def test_first_class_backends_registered(self):
        assert set(available_backends()) >= {"numpy", "numba", "cuda-src"}

    def test_get_emitter_returns_named_emitter(self):
        assert get_emitter("numpy").name == "numpy"
        assert get_emitter("numba").name == "numba"

    def test_cuda_alias_resolves_to_cuda_src(self):
        assert get_emitter("cuda") is get_emitter("cuda-src")

    def test_unknown_backend_raises_with_choices(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            get_emitter("tpu")
        assert "numpy" in str(excinfo.value)

    def test_executable_filter(self):
        exe = available_backends(executable=True)
        assert "numpy" in exe and "numba" in exe
        assert "cuda-src" not in exe
        assert "cuda-src" in available_backends(executable=False)

    def test_installed_only_drops_missing_deps(self):
        installed = available_backends(executable=True, installed_only=True)
        assert "numpy" in installed
        assert ("numba" in installed) == numba_available()

    def test_register_emitter_injects_and_replaces(self):
        @register_emitter("fake-backend")
        class FakeEmitter(Emitter):
            executable = False

            def emit(self, m, n, variant, **opts):
                raise NotImplementedError

        try:
            assert get_emitter("fake-backend").name == "fake-backend"
            assert "fake-backend" in available_backends()
        finally:
            del codegen._EMITTERS["fake-backend"]

    def test_version_is_positive_int(self):
        assert isinstance(CODEGEN_VERSION, int) and CODEGEN_VERSION >= 1


class TestNumpyEmitter:
    def test_emit_produces_executable_kernel(self):
        kern = emit(4, 3, "unrolled", target="numpy")
        assert isinstance(kern, EmittedKernel)
        assert kern.executable
        assert kern.backend == kern.effective_backend == "numpy"
        assert kern.flops_scalar > 0 and kern.flops_vector > 0
        assert "def ax_m" in kern.source

    def test_emitted_kernel_matches_dense_reference(self, rng):
        tensor = random_symmetric_tensor(4, 3, rng=rng)
        x = rng.standard_normal(3)
        kern = emit(4, 3, "unrolled_cse", target="numpy")
        assert kern.ax_m(tensor.values, x) == pytest.approx(
            ax_m_dense(tensor.to_dense(), x), abs=1e-10)

    def test_unknown_variant_raises(self):
        with pytest.raises(UnknownVariantError):
            emit(4, 3, "vectorized", target="numpy")

    def test_emit_is_cached(self):
        assert emit(3, 3, "unrolled") is emit(3, 3, "unrolled")

    def test_guard_raises_before_any_table(self):
        """C(19,10) = 92,378 unique entries: refused from the count alone,
        without building (or even looking up) ``kernel_tables(10, 10)``."""
        before = kernel_tables.cache_info()
        with pytest.raises(ValueError, match="refusing to unroll"):
            emit(10, 10, "unrolled", target="numpy")
        assert kernel_tables.cache_info() == before

    def test_per_tensor_and_plan_kernels_share_one_cache(self, monkeypatch,
                                                         rng):
        """``get_kernels("unrolled")`` (scalar) and the plan's unrolled
        suite (batched) are the two ``EmittedKernel`` s of one cache."""
        from repro.kernels.dispatch import get_kernels
        from repro.kernels.plan import clear_plan_cache, get_plan

        monkeypatch.setenv("REPRO_PLAN_CACHE", "0")  # build, not disk
        clear_plan_cache()
        codegen._numpy_emit.cache_clear()
        pair = get_kernels("unrolled", 3, 5)
        plan = get_plan(3, 5, "unrolled")
        info = codegen._numpy_emit.cache_info()
        assert (info.misses, info.currsize) == (2, 2)
        scalar = emit(3, 5, "unrolled", target="numpy")
        batched = emit(3, 5, "unrolled", target="numpy", batched=True)
        assert codegen._numpy_emit.cache_info().misses == 2
        assert (scalar.batched, batched.batched) == (False, True)
        tensor = random_symmetric_tensor(3, 5, rng=rng)
        x = rng.standard_normal(5)
        np.testing.assert_array_equal(pair.ax_m1(tensor, x),
                                      scalar.ax_m1(tensor.values, x))
        np.testing.assert_array_equal(plan.ax_m1(tensor.values, x),
                                      batched.ax_m1(tensor.values, x))


class TestNumbaEmitter:
    def test_always_batched(self):
        kern = emit(3, 3, "unrolled_cse", target="numba")
        assert kern.batched is True
        assert kern.backend == "numba"

    def test_effective_backend_records_reality(self):
        kern = emit(3, 3, "unrolled_cse", target="numba")
        if numba_available():
            assert kern.effective_backend == "numba"
            assert kern.meta.get("numba")
        else:
            assert kern.effective_backend == "numpy"
            assert "fallback" in kern.meta

    def test_kernels_agree_with_reference_either_way(self, rng):
        tensor = random_symmetric_tensor(3, 4, rng=rng)
        x = rng.standard_normal(4)
        kern = emit(3, 4, "unrolled", target="numba")
        np.testing.assert_allclose(
            kern.ax_m1(tensor.values[None, :], x[None, :])[0],
            ax_m1_dense(tensor.to_dense(), x), atol=1e-10)


class TestCudaSourceEmitter:
    def test_source_only(self):
        kern = emit(4, 3, "unrolled", target="cuda-src", num_starts=64)
        assert not kern.executable
        assert kern.ax_m is None and kern.ax_m1 is None
        assert "__global__" in kern.source
        assert kern.meta["num_starts"] == 64

    def test_cuda_alias_emits(self):
        kern = emit(4, 3, "general", target="cuda")
        assert kern.backend == "cuda-src"

    def test_flop_counts_match_unrolled_generator(self):
        cuda = emit(4, 3, "unrolled", target="cuda-src")
        ref = emit(4, 3, "unrolled", target="numpy")
        assert cuda.flops_scalar == ref.flops_scalar
        assert cuda.flops_vector == ref.flops_vector

    def test_compiles_no_python_kernel(self, generated_compiles):
        """Both variants read their flop counts off the term list; no
        Python kernel is generated and compiled on the side."""
        for variant in ("unrolled", "general"):
            kern = emit(3, 7, variant, target="cuda-src", num_starts=96)
            assert kern.flops_scalar > 0 and kern.flops_vector > 0
        assert generated_compiles == []


class TestFlatSource:
    def test_flat_kernels_agree_with_reference(self, rng):
        m, n = 4, 3
        source, fs, fv = generate_flat_source(m, n, cse=True)
        namespace = {}
        exec(compile(source, "<test-flat>", "exec"), namespace)
        tensor = random_symmetric_tensor(m, n, rng=rng)
        x = rng.standard_normal((5, n))
        a = np.broadcast_to(tensor.values, (5, tensor.values.size)).copy()
        out_s = np.empty(5)
        out_v = np.empty((5, n))
        namespace["ax_m_flat"](a, x, out_s)
        namespace["ax_m1_flat"](a, x, out_v)
        dense = tensor.to_dense()
        for lane in range(5):
            assert out_s[lane] == pytest.approx(
                ax_m_dense(dense, x[lane]), abs=1e-10)
            np.testing.assert_allclose(
                out_v[lane], ax_m1_dense(dense, x[lane]), atol=1e-10)

    def test_flop_counts_match_non_batched_generator(self):
        _, fs, fv = generate_flat_source(4, 3, cse=False)
        ref = emit(4, 3, "unrolled", target="numpy")
        assert (fs, fv) == (ref.flops_scalar, ref.flops_vector)
