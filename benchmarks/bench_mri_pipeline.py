"""Application benchmark — the full DW-MRI fiber-detection pipeline on the
1024-voxel phantom (the paper's Section IV/V workload, end to end).

Times each stage (acquisition synthesis + fit, eigen-solve, extraction) and
reports detection accuracy against ground truth — the paper's statement
that the synthetic set "yielded correct results" with alpha = 0, made
quantitative.
"""

import numpy as np
import pytest

from benchmarks.conftest import format_table, report, save_trace_report
from repro.engine.fleet import fleet_solve
from repro.instrument import recording
from repro.mri.fibers import extract_fibers_batch
from repro.mri.metrics import evaluate_detection
from repro.mri.phantom import make_phantom


@pytest.mark.benchmark(group="mri-stages")
def test_bench_phantom_build(benchmark):
    """Acquisition synthesis + batched least-squares tensor fit."""
    benchmark.pedantic(
        lambda: make_phantom(rows=32, cols=32, num_gradients=24, rng=7),
        rounds=1, iterations=1,
    )


@pytest.mark.benchmark(group="mri-stages")
def test_bench_eigensolve_stage(benchmark, paper_workload):
    """The SS-HOPM stage alone (what the paper offloads to the GPU)."""
    phantom, starts = paper_workload

    def run():
        return fleet_solve(phantom.tensors, starts=starts, alpha=0.0,
                           tol=1e-6, max_iters=60, dtype=np.float32,
                           variant="unrolled")

    res = benchmark.pedantic(run, rounds=1, iterations=1)
    assert res.converged.mean() > 0.9


@pytest.mark.benchmark(group="mri-report")
def test_full_pipeline_accuracy(benchmark):
    """End-to-end detection quality on a noisy paper-sized phantom.

    Runs under a recorder: the per-stage wall times and flop totals come
    from the instrumentation spans (persisted as a JSON trace alongside
    the text report) rather than ad-hoc ``perf_counter`` bracketing.
    """
    traced = {}

    def run():
        with recording(meta={"benchmark": "mri_pipeline"}) as rec:
            with rec.span("pipeline"):
                with rec.span("phantom_build"):
                    phantom = make_phantom(rows=16, cols=16, num_gradients=32,
                                           noise_sigma=0.02, rng=11)
                fibers = extract_fibers_batch(phantom.tensors, num_starts=64,
                                              rng=12)
                with rec.span("score"):
                    rep = evaluate_detection([f.directions for f in fibers],
                                             phantom.true_directions)
        traced["rec"] = rec
        return phantom, rep

    phantom, rep = benchmark.pedantic(run, rounds=1, iterations=1)
    rec = traced["rec"]
    save_trace_report("mri_pipeline_trace", rec)
    solve = rec.find("pipeline/extract_fibers_batch/fleet_solve")
    assert solve is not None and solve.total("flops") > 0
    assert rep.correct_count_fraction > 0.9
    assert rep.mean_angular_error_deg < 5.0

    rows = [
        ["voxels", rep.voxels],
        ["correct fiber-count fraction", f"{rep.correct_count_fraction:.3f}"],
        ["mean angular error (deg)", f"{rep.mean_angular_error_deg:.2f}"],
        ["matched fibers", rep.matched],
        ["false positives", rep.false_positives],
        ["missed fibers", rep.misses],
    ]
    for count, (vox, ok, err) in rep.by_fiber_count.items():
        rows.append([f"{count}-fiber voxels (n={vox})",
                     f"count-correct {ok}/{vox}, err {err:.2f} deg"])
    report(
        "mri_pipeline_accuracy",
        format_table(
            "DW-MRI pipeline (16x16 phantom, 2% noise, 64 starts, alpha=0):\n"
            "paper qualitative claim: 'alpha = 0 ... yielded correct results"
            " for the tensors in this synthetic set'",
            ["metric", "value"],
            rows,
        ),
    )
