"""Unit tests for the resilience layer: guards, retry, checkpoints, RNG
streams, and their wiring into the solvers.

The end-to-end fault-injection scenarios live in ``tests/test_chaos.py``;
this file pins down each component's contract in isolation.
"""

import json
import os

import numpy as np
import pytest

from repro.core.config import SolveConfig
from repro.solvers.adaptive import adaptive_sshopm
from repro.solvers.geap import geap
from repro.engine.fleet import fleet_solve
from repro.solvers.sshopm import sshopm, suggested_shift
from repro.instrument.metrics import use_registry
from repro.resilience import (
    CKPT_SCHEMA,
    FaultPlan,
    GuardConfig,
    IterationGuard,
    RetryExhausted,
    RetryPolicy,
    SolveFailure,
    check_resumable,
    escalate_shift,
    nan_injecting_pair,
    new_checkpoint,
    read_checkpoint,
    resolve_guards,
    run_with_retry,
    tensor_fingerprint,
    write_checkpoint,
)
from repro.kernels.dispatch import get_kernels
from repro.symtensor.random import random_symmetric_batch, random_symmetric_tensor
from repro.symtensor.storage import SymmetricTensor
from repro.util.rng import spawn_rng


# ---------------------------------------------------------------------------
# guards


def test_resolve_guards_normalization():
    assert resolve_guards(None) is None
    assert resolve_guards(False) is None
    assert resolve_guards(True) == GuardConfig()
    cfg = GuardConfig(oscillation_window=4)
    assert resolve_guards(cfg) is cfg
    with pytest.raises(TypeError):
        resolve_guards("yes")


def test_guard_nonfinite_lambda():
    g = IterationGuard(GuardConfig(), solver="t", tol=1e-12)
    g.note_start(1.0, np.ones(3))
    g.check(1, 1.5, np.ones(3))
    with pytest.raises(SolveFailure) as exc:
        g.check(2, float("nan"), np.ones(3))
    assert exc.value.reason == "nonfinite"
    # the failure carries the last *finite* state
    assert exc.value.last_lambda == 1.5
    assert exc.value.iteration == 2
    np.testing.assert_array_equal(exc.value.last_iterate, np.ones(3))


def test_guard_nonfinite_iterate():
    g = IterationGuard(GuardConfig(), solver="t", tol=1e-12)
    g.note_start(1.0, np.ones(3))
    bad = np.array([1.0, np.inf, 0.0])
    with pytest.raises(SolveFailure) as exc:
        g.check(1, 1.0, bad)
    assert exc.value.reason == "nonfinite"


def test_guard_collapse_and_nonfinite_norm():
    g = IterationGuard(GuardConfig(), solver="t", tol=1e-12)
    with pytest.raises(SolveFailure) as exc:
        g.check_update(1, 0.0)
    assert exc.value.reason == "collapse"
    g2 = IterationGuard(GuardConfig(), solver="t", tol=1e-12)
    with pytest.raises(SolveFailure) as exc:
        g2.check_update(1, float("inf"))
    assert exc.value.reason == "nonfinite"


def test_guard_oscillation_detected():
    g = IterationGuard(GuardConfig(oscillation_window=6, stall_window=0),
                       solver="t", tol=1e-12)
    g.note_start(0.0, np.ones(2))
    lam = 0.0
    with pytest.raises(SolveFailure) as exc:
        for k in range(1, 40):
            lam = 1.0 if lam == 0.0 else 0.0  # period-2 cycle
            g.check(k, lam, np.ones(2))
    assert exc.value.reason == "oscillation"
    # caught within ~the window, not after burning the whole budget
    assert exc.value.iteration <= 8


def test_guard_no_false_positive_on_monotone_convergence():
    g = IterationGuard(GuardConfig(oscillation_window=4, stall_window=10),
                       solver="t", tol=1e-12)
    g.note_start(0.0, np.ones(2))
    lam = 0.0
    for k in range(1, 200):
        lam = lam + 2.0 ** (-k)  # geometric, monotone
        g.check(k, lam, np.ones(2))  # must not raise


def test_guard_stall_detected():
    g = IterationGuard(GuardConfig(oscillation_window=0, stall_window=5,
                                   stall_slack=1.0),
                       solver="t", tol=1e-12)
    g.note_start(0.0, np.ones(2))
    with pytest.raises(SolveFailure) as exc:
        lam = 0.0
        for k in range(1, 100):
            # fixed-size steps, alternating sign pattern broken so the
            # oscillation guard (disabled anyway) is not what fires
            lam += 0.125 if k % 3 else 0.25
            g.check(k, lam, np.ones(2))
    assert exc.value.reason == "stall"


def test_guard_converging_run_does_not_stall():
    tensor_free_deltas = [0.5 * 0.8**k for k in range(120)]
    g = IterationGuard(GuardConfig(oscillation_window=0, stall_window=10),
                       solver="t", tol=1e-12)
    g.note_start(0.0, np.ones(2))
    lam = 0.0
    for k, d in enumerate(tensor_free_deltas, start=1):
        lam += d
        g.check(k, lam, np.ones(2))


# ---------------------------------------------------------------------------
# guard wiring in the solvers


def test_sshopm_guard_raises_on_nan_tensor():
    bad = SymmetricTensor(np.full(15, np.nan), 4, 3)
    with pytest.raises(SolveFailure) as exc:
        sshopm(bad, alpha=1.0, rng=0, guards=True, telemetry=False)
    assert exc.value.reason == "nonfinite"
    assert exc.value.solver == "sshopm"


@pytest.mark.parametrize("solve", [
    lambda t, **kw: sshopm(t, alpha=1.0, **kw),
    adaptive_sshopm,
    geap,
], ids=["sshopm", "adaptive_sshopm", "geap"])
def test_sshopm_legacy_behavior_without_guards(solve):
    # the historical contract: NaN tensors terminate unconverged, no raise
    # (the adaptive rules' eigensolvers see a NaN Hessian)
    bad = SymmetricTensor(np.full(15, np.nan), 4, 3)
    res = solve(bad, rng=0, telemetry=False)
    assert not res.converged


def test_sshopm_guard_config_via_solveconfig():
    bad = SymmetricTensor(np.full(15, np.nan), 4, 3)
    cfg = SolveConfig(guards=True)
    with pytest.raises(SolveFailure):
        sshopm(bad, alpha=1.0, rng=0, config=cfg, telemetry=False)


def test_sshopm_guard_failure_records_metric():
    bad = SymmetricTensor(np.full(15, np.nan), 4, 3)
    with use_registry() as reg:
        with pytest.raises(SolveFailure):
            sshopm(bad, alpha=1.0, rng=0, guards=True, telemetry=False)
    snap = reg.snapshot()
    names = {m["name"] for m in snap["metrics"]}
    assert "repro_solver_failures_total" in names


def test_sshopm_guard_clean_run_unaffected(rng):
    t = random_symmetric_tensor(4, 3, rng=rng)
    alpha = suggested_shift(t)
    plain = sshopm(t, alpha=alpha, rng=1, telemetry=False)
    guarded = sshopm(t, alpha=alpha, rng=1, guards=True, telemetry=False)
    assert plain.eigenvalue == guarded.eigenvalue
    np.testing.assert_array_equal(plain.eigenvector, guarded.eigenvector)
    assert plain.iterations == guarded.iterations


def test_adaptive_guard_raises_on_nan_tensor():
    bad = SymmetricTensor(np.full(15, np.nan), 4, 3)
    with pytest.raises(SolveFailure) as exc:
        adaptive_sshopm(bad, rng=0, guards=True, telemetry=False)
    assert exc.value.reason == "nonfinite"
    assert exc.value.solver == "adaptive_sshopm"


def test_adaptive_guard_clean_run_unaffected(rng):
    t = random_symmetric_tensor(4, 3, rng=rng)
    plain = adaptive_sshopm(t, rng=1, telemetry=False)
    guarded = adaptive_sshopm(t, rng=1, guards=True, telemetry=False)
    assert plain.eigenvalue == guarded.eigenvalue
    assert plain.iterations == guarded.iterations


def test_multistart_failed_mask_and_total_collapse(rng):
    batch = random_symmetric_batch(3, 4, 3, rng=rng)
    res = fleet_solve(batch, num_starts=6, alpha=2.0, rng=1,
                      telemetry=False)
    assert res.failed is not None
    assert res.failed.shape == res.eigenvalues.shape
    assert not res.failed.any()

    nan_batch = random_symmetric_batch(2, 4, 3, rng=rng)
    nan_batch.values[:] = np.nan
    # without guards: legacy silent behavior, but the mask reports the dead lanes
    res_bad = fleet_solve(nan_batch, num_starts=4, alpha=2.0, rng=1,
                          telemetry=False)
    assert res_bad.failed.all()
    # with guards: total collapse is a structured failure
    with pytest.raises(SolveFailure) as exc:
        fleet_solve(nan_batch, num_starts=4, alpha=2.0, rng=1,
                    guards=True, telemetry=False)
    assert exc.value.reason == "collapse"


# ---------------------------------------------------------------------------
# retry


def test_escalate_shift_schedule():
    assert escalate_shift(0.5, 0, safe_shift=10.0) == 0.5  # first attempt as asked
    assert escalate_shift(0.5, 1, safe_shift=10.0) == 10.0  # jump to provable
    assert escalate_shift(0.5, 2, safe_shift=10.0) == 30.0  # then grow 3x
    assert escalate_shift(-0.5, 1, safe_shift=10.0) == -10.0  # sign preserved
    assert escalate_shift(0.0, 1) == 1.0  # fallback floor


def test_retry_recovers_after_failures():
    calls = []

    def attempt(a):
        calls.append(a)
        if a < 2:
            raise SolveFailure("oscillation", solver="t")
        return "ok"

    out = run_with_retry(attempt, RetryPolicy(max_attempts=3), solver="t", rng=0)
    assert out.result == "ok"
    assert out.attempts == 3
    assert [f.reason for f in out.failures] == ["oscillation", "oscillation"]
    assert calls == [0, 1, 2]


def test_retry_exhaustion_raises_with_history():
    def attempt(a):
        raise SolveFailure("nonfinite", solver="t", iteration=a + 1)

    with pytest.raises(RetryExhausted) as exc:
        run_with_retry(attempt, RetryPolicy(max_attempts=2), solver="t", rng=0)
    assert exc.value.attempts == 2
    assert len(exc.value.failures) == 2
    assert exc.value.reason == "nonfinite"
    assert isinstance(exc.value, SolveFailure)  # catchable as the base type


def test_retry_respects_retry_on_filter():
    calls = []

    def attempt(a):
        calls.append(a)
        raise SolveFailure("stall", solver="t")

    policy = RetryPolicy(max_attempts=5, retry_on=("nonfinite",))
    with pytest.raises(RetryExhausted):
        run_with_retry(attempt, policy, solver="t", rng=0)
    assert calls == [0]  # non-retryable: no second attempt


def test_retry_backoff_is_seeded_and_jittered():
    policy = RetryPolicy(max_attempts=4, backoff_base=0.1, backoff_factor=2.0,
                         backoff_jitter=0.5)
    a = [policy.backoff_seconds(k, np.random.default_rng(7)) for k in range(3)]
    b = [policy.backoff_seconds(k, np.random.default_rng(7)) for k in range(3)]
    assert a == b  # deterministic given the rng
    assert 0.1 <= a[0] <= 0.15  # base * (1 + jitter * U[0,1])
    assert 0.2 <= a[1] <= 0.3

    slept = []

    def attempt(a_):
        if a_ < 2:
            raise SolveFailure("stall", solver="t")
        return "ok"

    run_with_retry(attempt, policy, solver="t", rng=np.random.default_rng(7),
                   sleep=slept.append)
    assert len(slept) == 2 and all(s > 0 for s in slept)


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(shift_growth=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_base=-1.0)


def test_retry_records_attempt_metric():
    def attempt(a):
        if a == 0:
            raise SolveFailure("oscillation", solver="t")
        return "ok"

    with use_registry() as reg:
        run_with_retry(attempt, RetryPolicy(max_attempts=2), solver="t", rng=0)
    names = {m["name"] for m in reg.snapshot()["metrics"]}
    assert "repro_retry_attempts_total" in names


# ---------------------------------------------------------------------------
# spawn_rng determinism (the satellite fixing worker-count reproducibility)


def test_spawn_rng_streams_are_stable_and_independent():
    a = spawn_rng(42, 3, 0).standard_normal(4)
    b = spawn_rng(42, 3, 0).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    c = spawn_rng(42, 3, 1).standard_normal(4)
    d = spawn_rng(42, 4, 0).standard_normal(4)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_spawn_rng_independent_of_call_order():
    first_then_second = [spawn_rng(0, i).uniform() for i in (0, 1)]
    second_then_first = [spawn_rng(0, i).uniform() for i in (1, 0)][::-1]
    assert first_then_second == second_then_first


# ---------------------------------------------------------------------------
# checkpoints


def _mk_state(t):
    return new_checkpoint(fingerprint=tensor_fingerprint(t), num_starts=8,
                          seed=3, alpha=2.0, tol=1e-12, max_iters=500)


def test_checkpoint_roundtrip(tmp_path, rng):
    t = random_symmetric_tensor(4, 3, rng=rng)
    state = _mk_state(t)
    state["starts"]["0"] = {"eigenvalue": 1.25}
    path = tmp_path / "ck.json"
    write_checkpoint(path, state)
    loaded = read_checkpoint(path)
    assert loaded == state
    assert loaded["schema"] == CKPT_SCHEMA
    check_resumable(loaded, fingerprint=tensor_fingerprint(t), num_starts=8,
                    seed=3, alpha=2.0, tol=1e-12, max_iters=500)


def test_checkpoint_is_one_line_of_json(tmp_path, rng):
    # one json.dumps call without indent: the form CPython's C encoder takes
    t = random_symmetric_tensor(4, 3, rng=rng)
    state = _mk_state(t)
    state["starts"]["0"] = {"eigenvalue": 1.25, "eigenvector": [0.6, 0.8, 0.0]}
    path = tmp_path / "ck.json"
    write_checkpoint(path, state)
    assert path.read_text() == json.dumps(state) + "\n"


def test_checkpoint_rejects_wrong_params(tmp_path, rng):
    t = random_symmetric_tensor(4, 3, rng=rng)
    path = tmp_path / "ck.json"
    write_checkpoint(path, _mk_state(t))
    loaded = read_checkpoint(path)
    with pytest.raises(ValueError, match="alpha"):
        check_resumable(loaded, fingerprint=tensor_fingerprint(t), num_starts=8,
                        seed=3, alpha=5.0, tol=1e-12, max_iters=500)
    other = random_symmetric_tensor(4, 3, rng=np.random.default_rng(99))
    with pytest.raises(ValueError, match="fingerprint|tensor"):
        check_resumable(loaded, fingerprint=tensor_fingerprint(other),
                        num_starts=8, seed=3, alpha=2.0, tol=1e-12, max_iters=500)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "ck.json"
    path.write_text("{ not json")
    with pytest.raises(ValueError, match="truncated|JSON|json"):
        read_checkpoint(path)
    path.write_text(json.dumps({"schema": "repro-ckpt/999", "run": {}, "starts": {}}))
    with pytest.raises(ValueError, match="schema"):
        read_checkpoint(path)
    path.write_text(json.dumps({"schema": CKPT_SCHEMA}))
    with pytest.raises(ValueError):
        read_checkpoint(path)


def test_checkpoint_rejects_oversized(tmp_path):
    path = tmp_path / "ck.json"
    path.write_text("x" * 4096)
    with pytest.raises(ValueError, match="bytes.*limit"):
        read_checkpoint(path, max_bytes=1024)


def test_checkpoint_write_is_atomic(tmp_path, rng):
    t = random_symmetric_tensor(4, 3, rng=rng)
    path = tmp_path / "ck.json"
    write_checkpoint(path, _mk_state(t))
    before = path.read_text()
    # unserializable state must not clobber the existing good checkpoint
    bad = _mk_state(t)
    bad["starts"]["0"] = {"x": object()}
    with pytest.raises(TypeError):
        write_checkpoint(path, bad)
    assert path.read_text() == before
    assert [p for p in os.listdir(tmp_path)] == ["ck.json"]  # no temp litter


def test_tensor_fingerprint_sensitivity(rng):
    t = random_symmetric_tensor(4, 3, rng=rng)
    fp = tensor_fingerprint(t)
    assert fp == tensor_fingerprint(t)
    t2 = t.copy()
    t2.values[0] += 1e-9
    assert tensor_fingerprint(t2) != fp


# ---------------------------------------------------------------------------
# fault plan basics (full scenarios in test_chaos.py)


def test_nan_injecting_pair_shapes(rng):
    t = random_symmetric_tensor(4, 3, rng=rng)
    pair = nan_injecting_pair(get_kernels("precomputed", 4, 3))
    x = np.ones(3) / np.sqrt(3)
    assert np.isnan(pair.ax_m(t, x))
    y = pair.ax_m1(t, x)
    assert y.shape == (3,) and np.isnan(y).all()


def test_fault_plan_is_deterministic(rng):
    t = random_symmetric_tensor(4, 3, rng=rng)
    plan_a = FaultPlan(seed=5, corrupt={2: 3})
    plan_b = FaultPlan(seed=5, corrupt={2: 3})
    ta, tb = plan_a.tensor_for(2, t), plan_b.tensor_for(2, t)
    np.testing.assert_array_equal(np.isnan(ta.values), np.isnan(tb.values))
    assert np.isnan(ta.values).sum() == 3
    assert plan_a.tensor_for(0, t) is t  # unscheduled starts untouched
