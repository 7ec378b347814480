"""Round-trip tests for the persistence layer."""

import numpy as np
import pytest

from repro.engine.fleet import fleet_solve
from repro.io import (
    load_batch,
    load_phantom,
    load_results,
    load_tensor,
    save_batch,
    save_phantom,
    save_results,
    save_tensor,
)
from repro.mri.phantom import make_phantom
from repro.symtensor.random import random_symmetric_batch, random_symmetric_tensor


class TestTensorIO:
    def test_round_trip(self, tmp_path, rng):
        t = random_symmetric_tensor(4, 3, rng=rng)
        path = tmp_path / "t.npz"
        save_tensor(path, t)
        back = load_tensor(path)
        assert back.allclose(t)
        assert (back.m, back.n) == (4, 3)

    def test_batch_round_trip(self, tmp_path, rng):
        b = random_symmetric_batch(7, 4, 3, rng=rng)
        path = tmp_path / "b.npz"
        save_batch(path, b)
        back = load_batch(path)
        assert np.array_equal(back.values, b.values)
        assert len(back) == 7

    def test_kind_mismatch_rejected(self, tmp_path, rng):
        t = random_symmetric_tensor(4, 3, rng=rng)
        path = tmp_path / "t.npz"
        save_tensor(path, t)
        with pytest.raises(ValueError):
            load_batch(path)

    def test_arbitrary_npz_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises((ValueError, KeyError)):
            load_tensor(path)


class TestPhantomIO:
    def test_round_trip(self, tmp_path):
        ph = make_phantom(rows=4, cols=5, num_gradients=20, noise_sigma=0.01, rng=9)
        path = tmp_path / "ph.npz"
        save_phantom(path, ph)
        back = load_phantom(path)
        assert np.array_equal(back.tensors.values, ph.tensors.values)
        assert np.array_equal(back.gradients, ph.gradients)
        assert np.array_equal(back.adc, ph.adc)
        assert (back.rows, back.cols) == (4, 5)
        assert back.meta == ph.meta
        assert len(back.true_directions) == len(ph.true_directions)
        for a, b in zip(back.true_directions, ph.true_directions):
            assert np.array_equal(a, b)

    def test_ragged_directions_preserved(self, tmp_path):
        ph = make_phantom(rows=4, cols=4, num_gradients=20, rng=10)
        path = tmp_path / "ph.npz"
        save_phantom(path, ph)
        back = load_phantom(path)
        assert np.array_equal(back.num_fibers(), ph.num_fibers())
        assert set(back.num_fibers()) == {1, 2}


class TestResultsIO:
    def test_round_trip(self, tmp_path, rng):
        batch = random_symmetric_batch(3, 4, 3, rng=rng)
        res = fleet_solve(batch, num_starts=8, alpha=5.0, rng=11, max_iters=500)
        path = tmp_path / "res.npz"
        save_results(path, res)
        back = load_results(path)
        assert np.array_equal(back.eigenvalues, res.eigenvalues)
        assert np.array_equal(back.eigenvectors, res.eigenvectors)
        assert np.array_equal(back.converged, res.converged)
        assert np.array_equal(back.iterations, res.iterations)
        assert back.sweeps == res.sweeps

    def test_failed_mask_round_trip(self, tmp_path, rng):
        batch = random_symmetric_batch(2, 4, 3, rng=rng)
        res = fleet_solve(batch, num_starts=4, alpha=5.0, rng=11)
        assert res.failed is not None
        path = tmp_path / "res.npz"
        save_results(path, res)
        back = load_results(path)
        assert np.array_equal(back.failed, res.failed)

    def test_old_results_without_failed_mask_load(self, tmp_path, rng):
        # files written before the `failed` field existed must still load
        batch = random_symmetric_batch(2, 4, 3, rng=rng)
        res = fleet_solve(batch, num_starts=4, alpha=5.0, rng=11)
        path = tmp_path / "old.npz"
        np.savez_compressed(
            path, format="repro-v1", kind="results",
            eigenvalues=res.eigenvalues, eigenvectors=res.eigenvectors,
            converged=res.converged, iterations=res.iterations,
            total_sweeps=res.sweeps,
        )
        back = load_results(path)
        # a FleetResult always carries the mask: no lane recorded as failed
        assert back.failed.shape == res.converged.shape
        assert not back.failed.any()
        assert np.array_equal(back.eigenvalues, res.eigenvalues)

    def test_nan_eigenvalues_allowed_in_results(self, tmp_path, rng):
        # failed lanes are part of the record; results skip finiteness checks
        batch = random_symmetric_batch(2, 4, 3, rng=rng)
        res = fleet_solve(batch, num_starts=4, alpha=5.0, rng=11)
        res.eigenvalues[0, 0] = np.nan
        path = tmp_path / "res.npz"
        save_results(path, res)
        assert np.isnan(load_results(path).eigenvalues[0, 0])


class TestRobustness:
    """Failure-path contract: atomic saves, clear errors on bad payloads."""

    def test_save_is_atomic_over_existing_file(self, tmp_path, rng, monkeypatch):
        t = random_symmetric_tensor(4, 3, rng=rng)
        path = tmp_path / "t.npz"
        save_tensor(path, t)
        before = path.read_bytes()

        # make the underlying writer explode mid-save; the good file and
        # directory must be untouched (no temp litter either)
        def boom(*a, **k):
            raise OSError("disk on fire")

        monkeypatch.setattr(np, "savez_compressed", boom)
        with pytest.raises(OSError):
            save_tensor(path, t)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.npz"]

    def test_truncated_file_is_clear_valueerror(self, tmp_path, rng):
        t = random_symmetric_tensor(4, 3, rng=rng)
        path = tmp_path / "t.npz"
        save_tensor(path, t)
        payload = path.read_bytes()
        for cut in (10, len(payload) // 2, len(payload) - 4):
            path.write_bytes(payload[:cut])
            with pytest.raises(ValueError, match=r"truncated|corrupt|archive"):
                load_tensor(path)

    def test_garbage_bytes_are_clear_valueerror(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(ValueError, match=r"truncated|corrupt|archive"):
            load_tensor(path)

    def test_missing_file_stays_oserror(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_tensor(tmp_path / "nope.npz")

    def test_wrong_unique_count_names_formula(self, tmp_path):
        # 15 unique values are needed for R^[4,3]; write 14
        path = tmp_path / "short.npz"
        np.savez_compressed(path, format="repro-v1", kind="tensor",
                            values=np.zeros(14), m=4, n=3)
        with pytest.raises(ValueError, match=r"C\(m\+n-1, m\)") as exc:
            load_tensor(path)
        assert "short.npz" in str(exc.value)

    def test_nonfinite_tensor_payload_rejected(self, tmp_path, rng):
        t = random_symmetric_tensor(4, 3, rng=rng)
        t.values[3] = np.nan
        path = tmp_path / "bad.npz"
        save_tensor(path, t)
        with pytest.raises(ValueError, match="non-finite"):
            load_tensor(path)

    def test_nonfinite_batch_payload_rejected(self, tmp_path, rng):
        b = random_symmetric_batch(3, 4, 3, rng=rng)
        b.values[1, 2] = np.inf
        path = tmp_path / "bad.npz"
        save_batch(path, b)
        with pytest.raises(ValueError, match="non-finite"):
            load_batch(path)

    def test_missing_array_names_key(self, tmp_path):
        path = tmp_path / "partial.npz"
        np.savez_compressed(path, format="repro-v1", kind="tensor",
                            values=np.zeros(15), m=4)  # no n
        with pytest.raises(ValueError, match="'n'"):
            load_tensor(path)

    def test_save_appends_npz_suffix_like_numpy(self, tmp_path, rng):
        t = random_symmetric_tensor(4, 3, rng=rng)
        save_tensor(tmp_path / "bare", t)
        assert (tmp_path / "bare.npz").exists()
        assert load_tensor(tmp_path / "bare.npz").allclose(t)
