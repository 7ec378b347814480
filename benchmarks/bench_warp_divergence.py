"""SIMT divergence ablation — convergence variance costs warp cycles.

The paper's mapping runs one SS-HOPM instance per thread; threads in a
warp execute in lockstep, so a warp is busy until its slowest lane
converges.  Using the *measured* per-(tensor, start) iteration counts from
the phantom workload, this bench quantifies the SIMT efficiency loss and
its effect on the modeled GPU runtime — detail the paper's aggregate
numbers fold in implicitly.
"""

import numpy as np
import pytest

from benchmarks.conftest import format_table, report
from repro.engine.fleet import fleet_solve
from repro.gpu.perfmodel import predict_sshopm
from repro.gpu.warps import divergence_adjusted_iterations, warp_profile


@pytest.mark.benchmark(group="warp-divergence")
def test_warp_divergence_report(benchmark, paper_workload):
    phantom, starts = paper_workload

    def build():
        res = fleet_solve(
            phantom.tensors, starts=starts, alpha=0.0, tol=1e-6, max_iters=200,
            dtype=np.float32,
        )
        iters = np.maximum(res.iterations, 1)
        prof = warp_profile(iters, warp_size=32)
        mean_based = predict_sshopm(
            num_tensors=len(phantom.tensors),
            iterations=float(iters.mean()),
        )
        warp_based = predict_sshopm(
            num_tensors=len(phantom.tensors),
            iterations=divergence_adjusted_iterations(iters),
        )
        return prof, mean_based, warp_based

    prof, mean_based, warp_based = benchmark.pedantic(build, rounds=1, iterations=1)

    assert 0.0 < prof.simt_efficiency <= 1.0
    # divergence can only slow the launch down relative to the lane mean
    assert warp_based.seconds >= mean_based.seconds * 0.999
    slowdown = warp_based.seconds / mean_based.seconds
    # the slowdown roughly tracks the inverse SIMT efficiency (wave
    # quantization and per-block tails add a little on top)
    assert slowdown < 1.2 / prof.simt_efficiency

    rows = [
        ["mean iterations / lane", f"{prof.mean_iterations:.1f}"],
        ["max iterations / lane", prof.max_iterations],
        ["SIMT warp efficiency", f"{prof.simt_efficiency:.3f}"],
        ["modeled ms (lane-mean iterations)", f"{mean_based.seconds * 1e3:.3f}"],
        ["modeled ms (warp-accurate)", f"{warp_based.seconds * 1e3:.3f}"],
        ["divergence slowdown", f"{slowdown:.3f}x"],
    ]
    report(
        "warp_divergence",
        format_table(
            "SIMT divergence on the phantom workload (measured iteration "
            "counts, 1024 blocks x 128 lanes, warp size 32)",
            ["metric", "value"],
            rows,
        ),
    )
