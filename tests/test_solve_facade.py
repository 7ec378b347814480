"""``repro.solve`` facade: routing by request shape, report pass-throughs,
and the ResultProtocol contract across every solver family."""

import numpy as np
import pytest

import repro
from repro.core.results import ResultProtocol
from repro.facade import SolveReport, SolveRequest
from repro.parallel import FleetRunReport
from repro.symtensor import random_symmetric_batch, random_symmetric_tensor


@pytest.fixture(scope="module")
def tensor():
    return random_symmetric_tensor(3, 3, rng=5)


@pytest.fixture(scope="module")
def batch():
    return random_symmetric_batch(4, 3, 3, rng=6)


class TestRouting:
    def test_single_start_routes_to_sshopm(self, tensor):
        assert SolveRequest(tensor).solver_name() == "sshopm"

    def test_single_start_adaptive_routes_to_adaptive(self, tensor):
        req = SolveRequest(tensor, adaptive=True)
        assert req.solver_name() == "adaptive_sshopm"

    def test_many_starts_route_to_multistart(self, tensor):
        """The multistart engine is the fleet; one tensor runs as a batch
        of one."""
        assert SolveRequest(tensor, starts=8).solver_name() == "fleet_solve"
        explicit = np.eye(3)
        assert SolveRequest(tensor, starts=explicit).solver_name() == "fleet_solve"
        # sharding needs a batch: a single tensor never goes parallel
        assert SolveRequest(tensor, starts=8, workers=3).solver_name() == "fleet_solve"

    def test_explicit_1d_start_routes_to_sshopm(self, tensor):
        req = SolveRequest(tensor, starts=np.array([1.0, 0.0, 0.0]))
        assert req.solver_name() == "sshopm"

    def test_batch_routes_to_fleet(self, batch):
        assert SolveRequest(batch, starts=8).solver_name() == "fleet_solve"
        assert SolveRequest(batch).solver_name() == "fleet_solve"

    def test_batch_with_workers_routes_to_parallel(self, batch):
        req = SolveRequest(batch, starts=8, workers=3)
        assert req.solver_name() == "parallel_fleet_solve"

    def test_solve_reports_the_routed_solver(self, tensor, batch):
        assert repro.solve(tensor, alpha=5.0, rng=0).solver == "sshopm"
        assert repro.solve(tensor, adaptive=True, rng=0).solver == "adaptive_sshopm"
        assert repro.solve(tensor, starts=4, alpha=5.0, rng=0).solver == "fleet_solve"
        assert repro.solve(batch, starts=4, alpha=5.0, rng=0).solver == "fleet_solve"
        rep = repro.solve(batch, starts=4, alpha=5.0, rng=0, workers=2)
        assert rep.solver == "parallel_fleet_solve"
        assert isinstance(rep.extra, FleetRunReport)


class TestReport:
    def test_report_passthroughs(self, batch):
        rep = repro.solve(batch, starts=4, alpha=5.0, rng=0, max_iters=200)
        assert isinstance(rep, SolveReport)
        assert rep.seconds > 0
        assert rep.request.is_batch
        np.testing.assert_array_equal(rep.converged, rep.result.converged)
        assert rep.telemetry is rep.result.telemetry
        assert len(rep.eigenpairs()) == len(batch)

    def test_every_route_satisfies_result_protocol(self, tensor, batch):
        reports = [
            repro.solve(tensor, alpha=5.0, rng=0, max_iters=200),
            repro.solve(tensor, adaptive=True, rng=0, max_iters=200),
            repro.solve(tensor, starts=4, alpha=5.0, rng=0, max_iters=200),
            repro.solve(batch, starts=4, alpha=5.0, rng=0, max_iters=200),
        ]
        for rep in reports:
            assert isinstance(rep.result, ResultProtocol), rep.solver

    def test_shared_starts_make_routes_agree(self, tensor):
        starts = np.random.default_rng(3).standard_normal((6, 3))
        starts /= np.linalg.norm(starts, axis=1, keepdims=True)
        multi = repro.solve(tensor, starts=starts, alpha=5.0,
                            tol=1e-10, max_iters=400)
        singles = [
            repro.solve(tensor, starts=starts[v], alpha=5.0,
                        tol=1e-10, max_iters=400)
            for v in range(6)
        ]
        conv = np.atleast_2d(multi.result.converged)[0]
        lams = np.atleast_2d(multi.result.eigenvalues)[0]
        for v, single in enumerate(singles):
            if single.result.converged:
                assert conv[v]
                assert lams[v] == pytest.approx(
                    single.result.eigenvalue, abs=1e-7)

    def test_parallel_route_honours_config(self, batch):
        """``workers=2`` resolves unset options from ``config`` exactly like
        the single-worker route, an explicit ``tol=0.0`` included."""
        from repro.core.config import SolveConfig

        for cfg in (SolveConfig(alpha=2.0, tol=1e-4, max_iters=50),
                    SolveConfig(alpha=2.0, tol=0.0, max_iters=30)):
            one = repro.solve(batch, starts=8, rng=1, config=cfg).result
            two = repro.solve(batch, starts=8, rng=1, config=cfg,
                              workers=2).result
            assert (two.shifts == cfg.alpha).all()
            np.testing.assert_array_equal(two.eigenvalues, one.eigenvalues)
            np.testing.assert_array_equal(two.converged, one.converged)
            np.testing.assert_array_equal(two.iterations, one.iterations)
        assert not two.converged.any()  # explicit tol=0.0 is honoured

    def test_single_tensor_result_dedupes_against_tensor(self, tensor):
        res = repro.solve(tensor, starts=8, alpha=5.0, rng=0).result
        (given,) = res.eigenpairs(tensor)
        (captured,) = res.eigenpairs()
        assert [p.eigenvalue for p in given] == [p.eigenvalue for p in captured]

    def test_backend_alias_for_fleet_variant(self, batch):
        """``backend=`` names only the codegen backend: a variant name
        there is an unknown backend, and ``variant=`` picks the kernel."""
        from repro.kernels.errors import UnknownBackendError

        kwargs = dict(starts=4, alpha=5.0, rng=0, max_iters=100)
        with pytest.raises(UnknownBackendError):
            repro.solve(batch, backend="unrolled", **kwargs)
        rep = repro.solve(batch, variant="unrolled", **kwargs)
        assert rep.result.variant == "unrolled"

    def test_backend_aliases_come_from_codegen(self, batch, monkeypatch):
        """``backend=`` names a codegen backend exactly when codegen's alias
        table resolves it to an emitter, so a new alias reaches the fleet
        as a backend, not as a variant name."""
        from repro.kernels import codegen
        from repro.kernels.errors import KernelLookupError

        monkeypatch.setitem(codegen._BACKEND_ALIASES, "np", "numpy")
        kwargs = dict(starts=4, alpha=5.0, rng=0, max_iters=100)
        aliased = repro.solve(batch, backend="np", **kwargs).result
        direct = repro.solve(batch, backend="numpy", **kwargs).result
        assert aliased.variant == "vectorized"
        np.testing.assert_array_equal(aliased.eigenvalues, direct.eigenvalues)
        with pytest.raises(KernelLookupError, match="cuda-src"):
            repro.solve(batch, backend="cuda", **kwargs)

    def test_bad_starts_ndim_rejected(self, tensor):
        with pytest.raises(ValueError, match="starts"):
            repro.solve(tensor, starts=np.zeros((2, 2, 2)))

    def test_exported_from_package_root(self):
        assert repro.solve is not None
        for name in ("solve", "SolveReport", "SolveRequest"):
            assert name in repro.__all__
