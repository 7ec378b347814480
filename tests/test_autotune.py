"""Tests for empirical kernel selection."""

import numpy as np
import pytest

from repro.kernels.autotune import auto_kernels, autotune
from repro.kernels.compressed import ax_m1_compressed, ax_m_compressed
from repro.kernels.dispatch import get_kernels
from repro.symtensor.random import random_symmetric_tensor


class TestAutotune:
    def test_report_structure(self):
        rep = autotune(4, 3, reps=5)
        assert rep.best in rep.timings
        assert all(t > 0 for t in rep.timings.values())
        assert rep.timings[rep.best] == min(rep.timings.values())
        assert {"precomputed", "vectorized", "blocked"} <= set(rep.timings)

    def test_cached(self):
        assert autotune(4, 3, reps=5) is autotune(4, 3, reps=5)

    def test_speedup_over(self):
        rep = autotune(4, 3, reps=5)
        assert rep.speedup_over(rep.best) == 1.0
        for name in rep.timings:
            assert rep.speedup_over(name) >= 1.0
        with pytest.raises(KeyError):
            rep.speedup_over("nonexistent")

    def test_huge_dimension_skips_unrollable(self):
        """Past the unroll guard (U > 4000) the tuner still returns a
        winner from the remaining candidates."""
        rep = autotune(5, 16, reps=1)  # U = C(20,5) = 15504
        assert "unrolled" not in rep.timings
        assert rep.best in ("blocked", "vectorized", "precomputed")

    def test_interpreted_loop_never_wins_at_large_n(self):
        """The vectorized/blocked paths dominate the per-entry loop once
        the tensor is big."""
        rep = autotune(4, 16, reps=3)
        assert rep.best in ("blocked", "vectorized")
        assert rep.speedup_over("precomputed") > 1.5


class TestAutoVariant:
    def test_auto_pair_is_correct(self, rng):
        tensor = random_symmetric_tensor(4, 3, rng=rng)
        x = rng.normal(size=3)
        pair = get_kernels("auto", 4, 3)
        assert np.isclose(pair.ax_m(tensor, x), ax_m_compressed(tensor, x))
        assert np.allclose(pair.ax_m1(tensor, x), ax_m1_compressed(tensor, x))

    def test_auto_requires_shape(self):
        with pytest.raises(ValueError):
            get_kernels("auto")

    def test_auto_kernels_helper(self, rng):
        pair = auto_kernels(4, 3)
        tensor = random_symmetric_tensor(4, 3, rng=rng)
        x = rng.normal(size=3)
        assert np.isclose(pair.ax_m(tensor, x), ax_m_compressed(tensor, x))

    def test_sshopm_with_auto(self, rng):
        from repro.solvers.sshopm import sshopm, suggested_shift

        tensor = random_symmetric_tensor(4, 3, rng=rng)
        res = sshopm(tensor, alpha=suggested_shift(tensor), kernels="auto",
                     rng=1, tol=1e-12, max_iters=2000)
        assert res.converged
        # |dlambda| < 1e-12 with a large shift bounds the residual loosely
        assert res.residual < 1e-4
