"""``repro.solve`` facade: routing by request shape, report pass-throughs,
and the ResultProtocol contract across every solver family.  The
``make solver-check`` gate runs this file with the solver zoo."""

import numpy as np
import pytest

import repro
from repro.core.config import SolveConfig
from repro.core.results import ResultProtocol
from repro.engine import fleet_solve
from repro.facade import SolveReport, SolveRequest
from repro.instrument.events import read_events
from repro.kernels.plan import get_plan
from repro.parallel import FleetRunReport, parallel_fleet_solve
from repro.resilience.retry import RetryOutcome, RetryPolicy
from repro.solvers import adaptive_sshopm, geap, qrst, qrst_batch, sshopm
from repro.symtensor import random_symmetric_batch, random_symmetric_tensor
from repro.util.flopcount import FlopCounter


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


#: fields a result may carry, compared bit for bit between routes
_FIELDS = ("eigenvalue", "eigenvector", "eigenvalues", "eigenvectors",
           "converged", "iterations", "failed", "shifts", "residual",
           "residuals", "lambda_history", "sweeps", "compactions", "stopped",
           "stopped_tensors")


def assert_same_result(a, b):
    assert type(a) is type(b)
    for name in _FIELDS:
        if hasattr(a, name):
            x, y = np.asarray(getattr(a, name)), np.asarray(getattr(b, name))
            assert x.dtype == y.dtype, name
            assert np.array_equal(x, y, equal_nan=x.dtype.kind == "f"), name


_B = dict(alpha=2.0, rng=1, max_iters=200)
_RETRY = SolveConfig(retry=RetryPolicy(max_attempts=2))
_CONFIG = SolveConfig(alpha=3.0, tol=1e-8, max_iters=120, num_starts=6,
                      rng=4)
_STARTS = np.random.default_rng(3).standard_normal((5, 3))

#: case -> (problem, repro.solve keywords, report.solver, the direct call
#: of the routed solver that must give the same bits).  A deadline of 0.0
#: has long passed, so it stops a run like a stop hook firing at once.
ROUTES = {
    "sshopm": ("tensor", dict(alpha=5.0, rng=0, max_iters=200), "sshopm",
               lambda t: sshopm(t, alpha=5.0, rng=0, max_iters=200)),
    "adaptive": ("tensor", dict(adaptive=True, rng=0, max_iters=200),
                 "adaptive_sshopm",
                 lambda t: adaptive_sshopm(t, rng=0, max_iters=200)),
    "geap": ("tensor", dict(method="geap", rng=0), "geap",
             lambda t: geap(t, rng=0)),
    "geap_min": ("tensor", dict(method="geap", mode="min", rng=0), "geap",
                 lambda t: geap(t, mode="min", rng=0)),
    "qrst": ("tensor", dict(method="qrst"), "qrst", lambda t: qrst(t)),
    "geap_retry": ("tensor", dict(method="geap", rng=0, config=_RETRY),
                   "geap", lambda t: geap(t, rng=0, config=_RETRY)),
    "tensor_starts": ("tensor", dict(starts=16, alpha=5.0, rng=1),
                      "fleet_solve",
                      lambda t: fleet_solve(t, num_starts=16, alpha=5.0,
                                            rng=1)),
    "tensor_explicit": ("tensor", dict(starts=_STARTS, alpha=5.0),
                        "fleet_solve",
                        lambda t: fleet_solve(t, starts=_STARTS, alpha=5.0)),
    "batch": ("batch", dict(starts=8, **_B), "fleet_solve",
              lambda b: fleet_solve(b, num_starts=8, **_B)),
    "batch_f32": ("batch", dict(starts=8, dtype=np.float32, **_B),
                  "fleet_solve",
                  lambda b: fleet_solve(b, num_starts=8, dtype=np.float32,
                                        **_B)),
    **{f"batch_w2_{ex}": (
        "batch", dict(starts=8, workers=2, executor=ex, **_B),
        "parallel_fleet_solve",
        lambda b, ex=ex: parallel_fleet_solve(
            b, workers=2, executor=ex, num_starts=8, **_B).result)
       for ex in ("thread", "process", "auto")},
    "batch_adaptive": ("batch", dict(starts=8, adaptive=True, **_B),
                       "fleet_solve",
                       lambda b: fleet_solve(b, num_starts=8, adaptive=True,
                                             **_B)),
    "batch_geap": ("batch", dict(method="geap", starts=8, rng=1),
                   "fleet_solve+geap",
                   lambda b: fleet_solve(b, num_starts=8, rng=1,
                                         adaptive="geap")),
    "batch_qrst": ("batch", dict(method="qrst", starts=8, rng=1),
                   "qrst_batch", lambda b: qrst_batch(b, num_starts=8, rng=1)),
    "batch_auto": ("batch", dict(method="auto", starts=8, **_B),
                   "fleet_solve",
                   lambda b: fleet_solve(b, num_starts=8, **_B)),
    "batch_deadline": ("batch", dict(starts=8, deadline=0.0, **_B),
                       "fleet_solve",
                       lambda b: fleet_solve(b, num_starts=8,
                                             stop=lambda: True, **_B)),
    "batch_deadline_stop": ("batch", dict(starts=8, deadline=0.0,
                                          stop=lambda: False, **_B),
                            "fleet_solve",
                            lambda b: fleet_solve(b, num_starts=8,
                                                  stop=lambda: True, **_B)),
    "batch_counter": ("batch", dict(starts=8, counter=FlopCounter(), **_B),
                      "fleet_solve",
                      lambda b: fleet_solve(b, num_starts=8,
                                            counter=FlopCounter(), **_B)),
    "batch_config": ("batch", dict(config=_CONFIG), "fleet_solve",
                     lambda b: fleet_solve(b, config=_CONFIG)),
    "batch_fibonacci": ("batch", dict(starts=12, scheme="fibonacci",
                                      alpha=2.0), "fleet_solve",
                        lambda b: fleet_solve(b, num_starts=12,
                                              scheme="fibonacci", alpha=2.0)),
    "batch_compact3": ("batch", dict(starts=8, compact_every=3, **_B),
                       "fleet_solve",
                       lambda b: fleet_solve(b, num_starts=8,
                                             compact_every=3, **_B)),
}


class TestRouteTable:
    """Every request takes one route, and gives the bits of a direct call
    of the solver ``report.solver`` names."""

    @pytest.mark.parametrize("case", list(ROUTES))
    def test_route_matches_direct_call(self, case, tensor, batch):
        kind, kwargs, solver, direct = ROUTES[case]
        problem = tensor if kind == "tensor" else batch
        report = repro.solve(problem, **kwargs)
        assert report.solver == solver
        assert_same_result(report.result, direct(problem))
        if "fleet_solve" in solver:
            # every fleet route runs parallel_fleet_solve and keeps its report
            assert isinstance(report.extra, FleetRunReport)
            assert report.extra.result is report.result
        elif case == "geap_retry":
            assert isinstance(report.extra, RetryOutcome)
            assert report.extra.attempts == 1
        else:
            assert report.extra is None

    def test_one_fleet_events_match_parallel_fleet_solve(self, batch,
                                                         tmp_path):
        """A one-fleet facade run streams the run and shard events of
        ``parallel_fleet_solve(workers=1)``, in the same order."""
        get_plan(batch.m, batch.n)  # both runs hit the warm plan cache
        paths = tmp_path / "facade.jsonl", tmp_path / "direct.jsonl"
        repro.solve(batch, starts=8, events=str(paths[0]), **_B)
        parallel_fleet_solve(batch, workers=1, num_starts=8,
                             events=str(paths[1]), **_B)

        def stream(path):
            return [{k: v for k, v in rec.items()
                     if k not in ("t", "run", "seconds")}
                    for rec in read_events(path)]

        facade, direct = stream(paths[0]), stream(paths[1])
        assert facade == direct
        assert [rec["ev"] for rec in facade[:3]] == [
            "header", "run_start", "shard_start"]
        assert [rec["ev"] for rec in facade[-2:]] == [
            "shard_finish", "run_finish"]

    def test_engine_keywords_reach_the_inline_fleet_only(self, batch):
        from repro.parallel.shm import SHM_AVAILABLE

        plan = get_plan(batch.m, batch.n)
        counters = FlopCounter(), FlopCounter()
        via = repro.solve(batch, starts=8, workers=1, plan=plan,
                          counter=counters[0], telemetry=True, **_B)
        direct = fleet_solve(batch, num_starts=8, plan=plan,
                             counter=counters[1], telemetry=True, **_B)
        assert_same_result(via.result, direct)
        assert counters[0].flops == counters[1].flops > 0
        assert via.result.telemetry is not None
        if not SHM_AVAILABLE:
            pytest.skip("shared_memory unavailable")
        with pytest.raises(TypeError, match="plan"):
            repro.solve(batch, starts=8, workers=2, executor="process",
                        plan=plan, **_B)
