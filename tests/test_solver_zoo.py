"""Cross-method validation of the PR-10 solver zoo.

Three independent eigensolvers — SS-HOPM (power iteration with a convex
shift), GEAP (per-iteration projected-Hessian shift, arXiv:1007.1267),
and QRST (dense tensor QR with deflation, arXiv:1411.1926) — must agree
on problems with known spectra:

* odeco tensors, whose robust eigenpairs are the construction weights;
* ``n = 2`` tensors, where every real eigenpair is found exactly by
  polynomial root-finding (:func:`repro.core.exact_eigenpairs_n2`).

Plus the registry/routing contract behind ``repro.solve(method=...)``,
the ``method="auto"`` heuristic, chaos-fault behavior, and cooperative
cancellation — the ``make solver-check`` gate runs this file.
"""

import time

import numpy as np
import pytest

import repro
from repro.core import canonicalize_sign, eigen_residual, exact_eigenpairs_n2
from repro.core.results import ResultProtocol
from repro.kernels.dispatch import get_kernels
from repro.resilience.faults import FaultPlan, nan_injecting_pair
from repro.resilience.guards import SolveFailure
from repro.resilience.retry import RetryPolicy
from repro.solvers import (
    SolverEntry,
    UnknownMethodError,
    available_methods,
    choose_method,
    geap,
    get_solver,
    projected_shift,
    qrst,
    qrst_batch,
    register_solver,
    sshopm,
    suggested_shift,
)
from repro.symtensor import (
    SymmetricTensorBatch,
    random_odeco_tensor,
    random_symmetric_batch,
    random_symmetric_tensor,
)

ATOL = 1e-8


@pytest.fixture(scope="module")
def odeco3():
    """Odd-order odeco: eigenpairs are exactly (weights, basis rows)."""
    tensor, basis, weights = random_odeco_tensor(3, 4, rng=5)
    return tensor, basis, weights


@pytest.fixture(scope="module")
def odeco4():
    """Even-order odeco for the concave (minima) cross-check."""
    tensor, basis, weights = random_odeco_tensor(4, 3, rng=7)
    return tensor, basis, weights


def found_spectrum(report_or_result, tensor=None):
    """Flat list of (eigenvalue, eigenvector) found by a solve."""
    try:
        pairs = report_or_result.eigenpairs()
    except TypeError:
        # a result without a captured batch wants the tensor to dedupe against
        pairs = report_or_result.eigenpairs(tensor)
    if pairs and isinstance(pairs[0], list):
        pairs = pairs[0]
    return [(p.eigenvalue, p.eigenvector) for p in pairs]


def odeco_m3_spectrum(weights):
    """Every real eigenvalue of an odd-order odeco tensor, analytically.

    Writing ``x = sum_i c_i u_i``, the eigen equations are ``w_i c_i^2 =
    lambda c_i``: each ``c_i`` is 0 or ``lambda / w_i``, so every
    nonempty subset ``S`` yields ``lambda_S = (sum_{i in S}
    w_i^-2)^(-1/2)`` — the construction weights are the singletons."""
    lams = set()
    k = len(weights)
    for mask in range(1, 1 << k):
        inv2 = sum(weights[i] ** -2 for i in range(k) if mask >> i & 1)
        lams.add(1.0 / np.sqrt(inv2))
    return np.array(sorted(lams))


def assert_in_analytic_spectrum(tensor, spectrum, analytic):
    """Every found pair is a true eigenpair with a predicted eigenvalue."""
    assert spectrum, "solver found no eigenpairs at all"
    for lam, vec in spectrum:
        lam_c, _ = canonicalize_sign(lam, np.asarray(vec), tensor.m)
        assert np.min(np.abs(analytic - lam_c)) < ATOL, (lam_c, analytic)
        # sanity guard only: the vector converges at half the lambda rate
        assert eigen_residual(tensor, lam, vec) < 1e-5


def has_eigenvalue(spectrum, target, m):
    return any(abs(canonicalize_sign(lam, np.asarray(vec), m)[0] - target)
               < ATOL for lam, vec in spectrum)


class TestRegistry:
    def test_builtins_registered(self):
        methods = available_methods()
        for name in ("sshopm", "geap", "qrst"):
            assert name in methods
        assert methods[-1] == "auto"

    def test_unknown_method_raises(self):
        with pytest.raises(UnknownMethodError, match="no_such"):
            get_solver("no_such")

    def test_facade_rejects_unknown_method(self):
        A = random_symmetric_tensor(3, 3, rng=0)
        with pytest.raises(UnknownMethodError):
            repro.solve(A, method="no_such")

    def test_auto_cannot_be_registered(self):
        with pytest.raises(ValueError, match="auto"):
            register_solver("auto", SolverEntry(
                name="auto", summary="nope", single=sshopm))

    def test_entry_needs_a_callable(self):
        with pytest.raises(ValueError, match="single= or batch="):
            register_solver("hollow", SolverEntry(name="hollow", summary=""))

    def test_duplicate_registration_is_loud(self):
        with pytest.raises(ValueError, match="replace=True"):
            register_solver("sshopm", get_solver("sshopm"))
        # replace=True round-trips the same entry without complaint
        entry = get_solver("sshopm")
        assert register_solver("sshopm", entry, replace=True) is entry

    def test_custom_solver_routes_through_facade(self):
        calls = {}

        def toy(tensor, **kwargs):
            calls["kwargs"] = kwargs
            return sshopm(tensor, alpha=5.0, rng=0, tol=kwargs.get("tol"),
                          max_iters=kwargs.get("max_iters"))

        name = "toy-zoo-test"
        if name not in available_methods():
            register_solver(name, SolverEntry(
                name=name, summary="registry smoke solver", single=toy))
        A = random_symmetric_tensor(3, 3, rng=1)
        report = repro.solve(A, method=name, tol=1e-10, max_iters=300)
        assert report.solver == name
        assert report.request.method == name
        assert isinstance(report.result, ResultProtocol)
        assert calls["kwargs"]["tol"] == 1e-10


class TestResultProtocol:
    def test_geap_result_conforms(self):
        A = random_symmetric_tensor(3, 3, rng=2)
        res = geap(A, rng=0, tol=1e-10, max_iters=300)
        assert isinstance(res, ResultProtocol)
        assert res.converged

    def test_qrst_result_conforms(self):
        A = random_symmetric_tensor(3, 3, rng=2)
        res = qrst(A, tol=1e-10)
        assert isinstance(res, ResultProtocol)
        assert res.eigenpairs()


class TestOdecoCrossValidation:
    """All three methods recover (subsets of) the known odeco spectrum,
    to 1e-8 after sign canonicalization."""

    def test_sshopm_matches_analytic(self, odeco3):
        tensor, basis, weights = odeco3
        report = repro.solve(tensor, starts=48, alpha=suggested_shift(tensor),
                             tol=1e-12, max_iters=800, rng=0,
                             method="sshopm")
        spectrum = found_spectrum(report, tensor)
        assert_in_analytic_spectrum(tensor, spectrum,
                                    odeco_m3_spectrum(weights))
        assert has_eigenvalue(spectrum, weights[0], 3)

    def test_geap_matches_analytic(self, odeco3):
        tensor, basis, weights = odeco3
        report = repro.solve(tensor, starts=48, tol=1e-12, max_iters=800,
                             rng=0, method="geap")
        assert report.solver == "fleet_solve+geap"
        spectrum = found_spectrum(report, tensor)
        assert_in_analytic_spectrum(tensor, spectrum,
                                    odeco_m3_spectrum(weights))
        # GEAP's shift adapts per lane: with 48 starts it reaches every
        # construction weight, not just the dominant one
        for w in weights:
            assert has_eigenvalue(spectrum, w, 3), (w, spectrum)

    def test_qrst_matches_analytic(self, odeco3):
        tensor, basis, weights = odeco3
        report = repro.solve(tensor, method="qrst", tol=1e-12)
        assert report.solver == "qrst"
        spectrum = found_spectrum(report, tensor)
        assert_in_analytic_spectrum(tensor, spectrum,
                                    odeco_m3_spectrum(weights))
        assert has_eigenvalue(spectrum, weights[0], 3)
        # one deterministic deflation run yields a full slate of n pairs
        assert len(spectrum) == tensor.n

    def test_methods_agree_pairwise(self, odeco3):
        tensor, _, _ = odeco3
        by_method = {}
        for method in ("sshopm", "geap", "qrst"):
            report = repro.solve(tensor, starts=48,
                                 alpha=(suggested_shift(tensor)
                                        if method == "sshopm" else None),
                                 tol=1e-12, max_iters=800, rng=0,
                                 method=method)
            by_method[method] = sorted(
                canonicalize_sign(lam, vec, tensor.m)[0]
                for lam, vec in found_spectrum(report, tensor))
        # every eigenvalue either solver found, the others confirm
        for a in by_method:
            for b in by_method:
                common = [
                    lam for lam in by_method[a]
                    if any(abs(lam - other) < ATOL for other in by_method[b])
                ]
                assert len(common) >= min(len(by_method[a]),
                                          len(by_method[b])) - 1


class TestExactN2CrossValidation:
    """Against the polynomial oracle: every found pair is an exact root."""

    @pytest.fixture(scope="class")
    def problem(self):
        tensor = random_symmetric_tensor(4, 2, rng=3)
        oracle = exact_eigenpairs_n2(tensor)
        return tensor, [p.eigenvalue for p in oracle]

    def in_oracle(self, lam, oracle_lams):
        return any(abs(lam - exact) < ATOL for exact in oracle_lams)

    def test_sshopm_subset_of_oracle(self, problem):
        tensor, oracle_lams = problem
        report = repro.solve(tensor, starts=32,
                             alpha=suggested_shift(tensor), tol=1e-13,
                             max_iters=800, rng=1, method="sshopm")
        spectrum = found_spectrum(report, tensor)
        assert spectrum
        for lam, _ in spectrum:
            assert self.in_oracle(lam, oracle_lams), (lam, oracle_lams)

    def test_geap_subset_of_oracle(self, problem):
        tensor, oracle_lams = problem
        report = repro.solve(tensor, starts=32, tol=1e-13, max_iters=800,
                             rng=1, method="geap")
        spectrum = found_spectrum(report)
        assert spectrum
        for lam, _ in spectrum:
            assert self.in_oracle(lam, oracle_lams), (lam, oracle_lams)

    def test_qrst_subset_of_oracle(self, problem):
        tensor, oracle_lams = problem
        res = qrst(tensor, tol=1e-12)
        spectrum = found_spectrum(res)
        assert spectrum
        for lam, _ in spectrum:
            assert self.in_oracle(lam, oracle_lams), (lam, oracle_lams)

    def test_qrst_matrix_case_matches_eigh(self):
        A = random_symmetric_tensor(2, 5, rng=11)
        res = qrst(A, tol=1e-12)
        found = np.sort([lam for lam, _ in found_spectrum(res)])
        exact = np.sort(np.linalg.eigvalsh(A.to_dense()))
        assert np.allclose(found, exact, atol=1e-10)


class TestGeapConcaveMode:
    """The acceptance case: GEAP's concave mode reaches an eigenpair the
    convex SS-HOPM sweep never converges to."""

    def test_finds_minimum_sshopm_misses(self, odeco4):
        tensor, _, weights = odeco4
        convex = repro.solve(tensor, starts=48,
                             alpha=suggested_shift(tensor), tol=1e-12,
                             max_iters=800, rng=2, method="sshopm")
        convex_lams = [lam for lam, _ in found_spectrum(convex, tensor)]
        assert convex_lams

        hits = []
        for seed in range(6):
            res = geap(tensor, mode="min", rng=seed, tol=1e-12,
                       max_iters=800)
            if res.converged:
                hits.append(res)
        assert hits, "geap mode='min' never converged"
        novel = [
            r for r in hits
            if not any(abs(r.eigenvalue - lam) < 1e-6 for lam in convex_lams)
        ]
        assert novel, (convex_lams, [r.eigenvalue for r in hits])
        best = min(novel, key=lambda r: r.eigenvalue)
        # it is a genuine eigenpair, at the concave end of the spectrum
        assert eigen_residual(tensor, best.eigenvalue,
                              best.eigenvector) < 1e-8
        assert best.eigenvalue < min(convex_lams)
        # for positive-weight odeco the minima sit below every weight
        assert best.eigenvalue < min(weights)

    def test_projected_shift_signs(self, odeco4):
        tensor, basis, _ = odeco4
        x = basis[0]
        assert projected_shift(tensor, x, 1e-6, "max") >= 0.0
        assert projected_shift(tensor, x, 1e-6, "min") <= 0.0


class TestAutoRouting:
    def test_batch_routes_to_fleet(self):
        assert choose_method(3, 4, batch=True, num_starts=32) == "sshopm"

    def test_min_spectrum_routes_to_geap(self):
        assert choose_method(4, 6, num_starts=1, spectrum="min") == "geap"

    def test_small_dense_routes_to_qrst(self):
        assert choose_method(3, 4, num_starts=4) == "qrst"

    def test_large_dense_routes_to_sshopm(self):
        assert choose_method(4, 12, num_starts=4) == "sshopm"

    def test_many_starts_prefer_sshopm(self):
        assert choose_method(3, 4, num_starts=64) == "sshopm"

    def test_facade_records_resolved_method(self):
        A = random_symmetric_tensor(3, 4, rng=0)
        report = repro.solve(A, method="auto", tol=1e-10)
        assert report.request.method == "qrst"
        assert report.solver == "qrst"
        batch = random_symmetric_batch(2, 3, 4, rng=0)
        report = repro.solve(batch, starts=4, alpha=2.0, rng=1,
                             method="auto")
        assert report.request.method == "sshopm"
        assert report.solver == "fleet_solve"


class TestChaosFaults:
    """Both new solvers behave under the chaos fault plan: structured
    failures, no silent garbage, unaffected neighbors."""

    def test_geap_guards_catch_injected_nans(self):
        A = random_symmetric_tensor(3, 3, rng=4)
        broken = nan_injecting_pair(get_kernels("precomputed", 3, 3))
        with pytest.raises(SolveFailure) as exc:
            geap(A, rng=0, kernels=broken, guards=True, max_iters=50)
        assert exc.value.solver == "geap"

    def test_geap_retry_recovers_from_bad_kernels(self):
        A = random_symmetric_tensor(3, 3, rng=4)
        good = get_kernels("precomputed", 3, 3)
        attempts = []

        def flaky(attempt):
            attempts.append(attempt)
            pair = nan_injecting_pair(good) if attempt == 0 else good
            return geap(A, rng=attempt, kernels=pair, guards=True,
                        max_iters=300, tol=1e-10)

        from repro.resilience.retry import run_with_retry

        outcome = run_with_retry(flaky, RetryPolicy(max_attempts=3),
                                 solver="geap", rng=0)
        assert outcome.result.converged
        assert attempts == [0, 1]
        assert outcome.failures[0].reason == "nonfinite"

    def test_qrst_batch_isolates_crashed_tensor(self):
        batch = random_symmetric_batch(3, 3, 4, rng=6)
        plan = FaultPlan(seed=0, crashes={1: 1})
        res = qrst_batch(batch, num_starts=4, tol=1e-10, faults=plan)
        assert res.failed[1].all()
        assert not res.failed[0].any() and not res.failed[2].any()
        assert res.converged[0].any() and res.converged[2].any()

    def test_qrst_rejects_oversized_dense(self):
        A = random_symmetric_tensor(3, 4, rng=0)
        with pytest.raises(ValueError, match="dense"):
            qrst(A, max_dense=8)


class TestNonFiniteTensor:
    """A tensor holding NaN fails only its own GEAP lanes at every ``n``:
    ``eigvalsh`` raises on a non-finite matrix of size 3 or more (the
    tangent restriction from ``n = 4`` on), so the restriction reports
    NaN eigenvalues instead of calling it."""

    OPTS = dict(num_starts=4, rng=5, adaptive="geap", tol=1e-10,
                max_iters=300)

    @pytest.fixture(scope="class")
    def batches(self):
        clean = random_symmetric_batch(4, 4, 5, rng=11)
        values = clean.values.copy()
        values[2, 3] = np.nan
        return (SymmetricTensorBatch(values, 4, 5),
                SymmetricTensorBatch(np.delete(clean.values, 2, axis=0), 4, 5))

    def test_geap_fleet_fails_only_that_tensor(self, batches):
        from repro.engine import fleet_solve

        poisoned, clean = batches
        res = fleet_solve(poisoned, **self.OPTS)
        ref = fleet_solve(clean, **self.OPTS)
        assert res.failed[2].all() and not res.converged[2].any()
        for name in ("eigenvalues", "eigenvectors", "converged",
                     "iterations", "failed", "shifts"):
            assert np.array_equal(getattr(res, name)[[0, 1, 3]],
                                  getattr(ref, name)), name
        report = repro.solve(poisoned, method="geap", starts=4, rng=5)
        assert report.result.failed[2].all()

    def test_single_start_and_label(self, batches):
        from repro.core import classify_eigenpair

        tensor = batches[0][2]
        res = geap(tensor, rng=1)
        assert not res.converged
        x = np.full(5, 1 / np.sqrt(5))
        assert classify_eigenpair(tensor, 1.0, x) == "unstable"
        assert np.isnan(projected_shift(tensor, x, 1e-6))


class TestCancellation:
    def test_geap_stop_hook(self):
        A = random_symmetric_tensor(3, 4, rng=8)
        res = geap(A, rng=0, max_iters=500, stop=lambda: True)
        assert not res.converged
        assert res.iterations <= 1

    def test_qrst_stop_hook(self):
        A = random_symmetric_tensor(3, 4, rng=8)
        res = qrst(A, stop=lambda: True)
        assert res.stopped

    def test_facade_deadline_reaches_geap(self):
        A = random_symmetric_tensor(3, 4, rng=8)
        report = repro.solve(A, method="geap", max_iters=500,
                             deadline=time.time() - 1.0)
        assert not report.result.converged


class TestServeJobsCarryMethod:
    def test_spec_roundtrip_and_validation(self):
        from repro.serve.jobs import BadSpec, JobSpec

        doc = {"tensors": {"kind": "random", "count": 2, "m": 3, "n": 4,
                           "seed": 0}}
        assert JobSpec.from_doc(dict(doc)).method == "sshopm"
        spec = JobSpec.from_doc({**doc, "method": "qrst"})
        assert spec.method == "qrst"
        assert spec.to_doc()["method"] == "qrst"
        with pytest.raises(BadSpec, match="method"):
            JobSpec.from_doc({**doc, "method": "auto"})
        with pytest.raises(BadSpec, match="method"):
            JobSpec.from_doc({**doc, "method": "bogus"})
