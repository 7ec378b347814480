"""Functional validation of the generated CUDA kernels via CPU emulation.

The generated device code is compiled with the system C++ compiler behind
shimmed CUDA builtins and run over real workloads; its eigenpairs are
checked against the Python solver stack.  Skipped when no compiler exists.
"""

import numpy as np
import pytest

from repro.engine.fleet import fleet_solve
from repro.solvers.sshopm import suggested_shift
from repro.kernels.batched import ax_m1_batched
from repro.kernels.cuda_emulator import compiler_available, emulate_cuda_sshopm
from repro.symtensor.random import random_symmetric_batch
from repro.util.rng import starting_vectors

pytestmark = pytest.mark.skipif(
    compiler_available() is None, reason="no C++ compiler for CUDA emulation"
)


@pytest.fixture(scope="module")
def workload():
    batch = random_symmetric_batch(6, 4, 3, rng=7)
    starts = starting_vectors(8, 3, rng=8)
    alpha = max(suggested_shift(batch[t]) for t in range(len(batch)))
    return batch, starts, alpha


class TestEmulatedKernels:
    @pytest.mark.parametrize("variant", ["unrolled", "general"])
    def test_outputs_are_eigenpairs(self, workload, variant):
        batch, starts, alpha = workload
        lam, vec = emulate_cuda_sshopm(batch, starts, alpha=alpha, tol=1e-6,
                                       max_iter=3000, variant=variant)
        assert lam.shape == (6, 8) and vec.shape == (6, 8, 3)
        assert lam.dtype == np.float32
        norms = np.linalg.norm(vec, axis=-1)
        assert np.allclose(norms, 1.0, atol=1e-5)
        r = ax_m1_batched(batch.values[:, None, :], vec.astype(np.float64))
        resid = np.linalg.norm(
            r - lam[..., None].astype(np.float64) * vec.astype(np.float64), axis=-1
        )
        assert resid.max() < 0.05  # fp32 + large shift: loose but real

    def test_matches_python_lockstep_driver(self, workload):
        batch, starts, alpha = workload
        lam, vec = emulate_cuda_sshopm(batch, starts, alpha=alpha, tol=1e-6,
                                       max_iter=3000)
        py = fleet_solve(batch, starts=starts, alpha=alpha, tol=1e-6,
                         max_iters=3000, dtype=np.float32)
        assert np.isclose(lam, py.eigenvalues, atol=2e-3).mean() >= 0.95

    def test_variants_agree_with_each_other(self, workload):
        batch, starts, alpha = workload
        lam_u, _ = emulate_cuda_sshopm(batch, starts, alpha=alpha, tol=1e-6,
                                       max_iter=3000, variant="unrolled")
        lam_g, _ = emulate_cuda_sshopm(batch, starts, alpha=alpha, tol=1e-6,
                                       max_iter=3000, variant="general")
        assert np.allclose(lam_u, lam_g, atol=2e-3)

    def test_bad_starts_shape(self, workload):
        batch, _, _ = workload
        with pytest.raises(ValueError):
            emulate_cuda_sshopm(batch, np.zeros((4, 2)))

    def test_zero_iterations_returns_rayleigh_of_start(self, workload):
        """max_iter=0: the kernel stores lambda = A x0^m of the (normalized)
        start, untouched by iteration."""
        batch, starts, _ = workload
        lam, vec = emulate_cuda_sshopm(batch, starts, alpha=0.0, max_iter=0)
        from repro.kernels.batched import ax_m_batched

        expected = ax_m_batched(batch.values[:, None, :], starts[None, :, :])
        assert np.allclose(lam, expected, atol=1e-4)
        assert np.allclose(vec, np.broadcast_to(starts, vec.shape), atol=1e-6)
