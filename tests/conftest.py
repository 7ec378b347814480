"""Shared fixtures and hypothesis configuration for the test suite."""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# CI-friendly hypothesis defaults: modest example counts, no deadline (the
# kernels under test intentionally include slow spec-faithful loops).
settings.register_profile(
    "repro",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")

# (m, n) sizes exercised by cross-variant agreement tests: matrix case,
# odd/even orders, n < m and n > m, and the paper's application size (4, 3).
SMALL_SIZES = [(2, 2), (2, 5), (3, 2), (3, 3), (3, 4), (4, 3), (4, 5), (5, 2), (5, 3), (6, 2)]


def own_segments(*pids):
    """Live ``repro-fleet-*`` shared-memory segments created by this test
    process or by one of ``pids`` (children it started).

    Segment names carry their creator's pid
    (``repro-fleet-<pid>-<nonce>-<tag>``), so leak checks built on this
    ignore process-tier solves that other processes on the host run.
    """
    from repro.parallel.shm import SEGMENT_PREFIX, active_segments

    mine = {str(pid) for pid in (os.getpid(), *pids)}
    return [name for name in active_segments()
            if name[len(SEGMENT_PREFIX) + 1:].split("-", 1)[0] in mine]


@pytest.fixture(scope="session")
def _plan_cache_root(tmp_path_factory):
    return tmp_path_factory.mktemp("plan-cache")


@pytest.fixture(autouse=True)
def _hermetic_plan_cache(_plan_cache_root, monkeypatch):
    """Keep the persistent kernel-plan cache out of ``~/.cache`` during
    tests: entries land in a session tmpdir (still exercising the disk
    path), and tests needing full isolation override the env again."""
    monkeypatch.setenv("REPRO_PLAN_CACHE_DIR", str(_plan_cache_root))


@pytest.fixture
def rng():
    return np.random.default_rng(20110516)  # IPDPS 2011 conference date


@pytest.fixture(params=SMALL_SIZES, ids=lambda p: f"m{p[0]}n{p[1]}")
def size(request):
    return request.param
