"""Tests for basin-of-attraction mapping."""

import numpy as np
import pytest

from repro.core.basins import basin_map, render_basin_map, starts_needed_estimate
from repro.solvers.sshopm import suggested_shift
from repro.symtensor.random import (
    kolda_mayo_example_3x3x3,
    random_odeco_tensor,
    random_symmetric_tensor,
)


@pytest.fixture(scope="module")
def km_map():
    tensor = kolda_mayo_example_3x3x3()
    return tensor, basin_map(tensor, alpha=suggested_shift(tensor),
                             resolution=300, tol=1e-12, max_iter=4000)


class TestBasinMap:
    def test_structure(self, km_map):
        tensor, bmap = km_map
        assert bmap.starts.shape == (300, 3)
        assert bmap.labels.shape == (300,)
        assert len(bmap.fractions) == len(bmap.pairs)
        assert bmap.coverage > 0.95
        assert np.isclose(bmap.fractions.sum(), 1.0, atol=1e-9)

    def test_known_spectrum_found(self, km_map):
        _, bmap = km_map
        lams = {round(p.eigenvalue, 3) for p in bmap.pairs}
        assert 0.873 in lams
        assert 0.431 in lams

    def test_labels_reference_valid_pairs(self, km_map):
        _, bmap = km_map
        valid = bmap.labels[bmap.labels >= 0]
        assert valid.max() < len(bmap.pairs)

    def test_basins_are_spatially_coherent(self, km_map):
        """Neighbouring starting vectors usually reach the same pair (the
        sphere decomposes into contiguous basins, not noise)."""
        _, bmap = km_map
        starts, labels = bmap.starts, bmap.labels
        same = 0
        total = 0
        for s in range(len(starts)):
            if labels[s] < 0:
                continue
            dots = starts @ starts[s]
            dots[s] = -np.inf
            nb = int(np.argmax(dots))
            if labels[nb] >= 0:
                total += 1
                same += labels[nb] == labels[s]
        assert total > 100
        assert same / total > 0.8

    def test_odeco_basins_centered_on_components(self, rng):
        """Starts close to an odeco component converge to it (for the
        unshifted even-order iteration the components are attracting)."""
        tensor, basis, weights = random_odeco_tensor(4, 3, rng=rng)
        starts = np.concatenate([
            basis + 0.05 * rng.normal(size=basis.shape),
            -(basis + 0.05 * rng.normal(size=basis.shape)),
        ])
        starts /= np.linalg.norm(starts, axis=1, keepdims=True)
        bmap = basin_map(tensor, alpha=0.0, starts=starts, tol=1e-12)
        assert bmap.coverage == 1.0
        for i in range(3):
            lam = bmap.pairs[bmap.labels[i]].eigenvalue
            assert abs(lam - weights[i]) < 1e-6

    def test_non_n3_requires_explicit_starts(self, rng):
        t = random_symmetric_tensor(4, 4, rng=rng)
        with pytest.raises(ValueError):
            basin_map(t, alpha=1.0)


class TestStartsNeeded:
    def test_single_basin(self):
        assert starts_needed_estimate(np.array([1.0])) == 1

    def test_two_equal_basins(self):
        # P(miss one of two half-basins after N) = 2 * 0.5^N <= 0.01 -> N = 8
        assert starts_needed_estimate(np.array([0.5, 0.5]), 0.99) == 8

    def test_small_basin_needs_many(self):
        n_small = starts_needed_estimate(np.array([0.95, 0.05]), 0.99)
        n_even = starts_needed_estimate(np.array([0.5, 0.5]), 0.99)
        assert n_small > n_even

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            starts_needed_estimate(np.array([0.0]))

    def test_km_tensor_needs_modest_starts(self, km_map):
        """For the example tensor, a few dozen random starts suffice with
        99% confidence — context for the paper's choice of V=128."""
        _, bmap = km_map
        needed = starts_needed_estimate(bmap.fractions, 0.99)
        assert 2 <= needed <= 128


class TestRendering:
    def test_render(self, km_map):
        _, bmap = km_map
        art = render_basin_map(bmap, width=40, height=12)
        lines = art.splitlines()
        assert len(lines) == 13  # 12 rows + legend
        assert "lambda=" in lines[-1]
        used = set("".join(lines[:-1]))
        assert used & set("0123")  # multiple basins visible

    def test_render_requires_n3(self, rng):
        t = random_symmetric_tensor(4, 4, rng=rng)
        starts = rng.normal(size=(10, 4))
        starts /= np.linalg.norm(starts, axis=1, keepdims=True)
        bmap = basin_map(t, alpha=suggested_shift(t), starts=starts)
        with pytest.raises(ValueError):
            render_basin_map(bmap)
