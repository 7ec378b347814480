"""Shift-choice ablation — Section V-A's convergence/speed tradeoff.

The paper: "choosing an appropriate shift for real data will balance a
tradeoff between guarantees of convergence and time-to-completion", and
uses alpha = 0 for its synthetic set.  This bench quantifies that tradeoff
on the phantom workload: convergence rate and iteration counts for
alpha = 0, a moderate fixed shift, the conservative provable shift, and the
adaptive (GEAP-style) shift.
"""

import numpy as np
import pytest

from benchmarks.conftest import format_table, report
from repro.solvers.adaptive import adaptive_sshopm
from repro.engine.fleet import fleet_solve
from repro.solvers.sshopm import suggested_shift
from repro.mri.phantom import make_phantom


@pytest.mark.benchmark(group="ablation-shift-report")
def test_shift_tradeoff(benchmark):
    phantom = make_phantom(rows=8, cols=8, num_gradients=24, rng=21)
    tensors = phantom.tensors
    conservative = float(np.median([suggested_shift(tensors[t]) for t in range(len(tensors))]))

    def run_config(alpha):
        res = fleet_solve(tensors, num_starts=32, alpha=alpha, rng=22,
                          tol=1e-10, max_iters=2000)
        conv = res.converged.mean()
        iters = res.iterations[res.converged].mean() if res.converged.any() else np.nan
        return conv, iters

    def build():
        rows = []
        for label, alpha in [
            ("alpha = 0 (paper)", 0.0),
            ("alpha = 1 (moderate)", 1.0),
            (f"alpha = {conservative:.1f} (provable)", conservative),
        ]:
            conv, iters = run_config(alpha)
            rows.append([label, f"{conv:7.1%}", f"{iters:8.1f}"])
        # adaptive shift, sequential per (tensor, start) on a subsample
        iters_list, conv_count, total = [], 0, 0
        for t in range(0, len(tensors), 8):
            for seed in range(4):
                r = adaptive_sshopm(tensors[t], rng=1000 + seed, tol=1e-10,
                                    max_iters=2000)
                total += 1
                if r.converged:
                    conv_count += 1
                    iters_list.append(r.iterations)
        rows.append(["adaptive (GEAP-style)", f"{conv_count / total:7.1%}",
                     f"{np.mean(iters_list):8.1f}"])
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)

    # the provable shift converges everywhere but slowly; adaptive converges
    # everywhere and much faster
    conservative_conv = float(rows[2][1].strip("% "))
    conservative_iters = float(rows[2][2])
    adaptive_conv = float(rows[3][1].strip("% "))
    adaptive_iters = float(rows[3][2])
    # (the conservative shift is provably convergent but so slow that a few
    # lanes may still be short of tol at the iteration cap — that slowness
    # is precisely the tradeoff being measured)
    assert conservative_conv >= 95.0
    assert adaptive_conv >= 99.0
    assert adaptive_iters < conservative_iters

    report(
        "ablation_shift",
        format_table(
            "Section V-A tradeoff: shift choice vs convergence and speed\n"
            "(64 phantom tensors x 32 starts; iterations among converged)",
            ["shift", "converged", "avg iters"],
            rows,
        ),
    )
