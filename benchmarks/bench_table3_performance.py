"""Table III — performance of the eight implementations on the 1024-tensor
workload (m=4, n=3, V=128, single precision, alpha=0).

Two layers, matching DESIGN.md's substitution policy:

* **modeled rows** — the paper's eight configurations (CPU 1/4/8 cores x
  {general, unrolled} and GPU x {general, unrolled}) predicted by the
  calibrated device models, fed with the iteration counts *measured* on the
  synthetic phantom workload.  Printed against the paper's numbers in
  Table III(a)/(b)/(c) layout.
* **measured rows** — real wall-clock of this repository's Python kernel
  variants on the same workload (per-pair timing for the interpreted
  loops, full-workload timing for the batched backends), demonstrating the
  general->unrolled->batched progression on the host actually running.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import format_table, report
from repro.engine.fleet import fleet_solve
from repro.solvers.sshopm import sshopm
from repro.gpu.kernelspec import sshopm_launch
from repro.gpu.perfmodel import predict_sshopm
from repro.parallel.cpumodel import predict_cpu_sshopm

PAPER = {
    # Table III(a) GFLOPS / (b) ms / (c) relative
    ("cpu1", "general"): (0.24, 2451, 1.00),
    ("cpu4", "general"): (0.86, 691, 3.55),
    ("cpu8", "general"): (1.73, 344, 7.14),
    ("gpu", "general"): (17.00, 35, 70.23),
    ("cpu1", "unrolled"): (2.05, 289, 1.00),
    ("cpu4", "unrolled"): (7.07, 84, 3.45),
    ("cpu8", "unrolled"): (9.67, 61, 4.72),
    ("gpu", "unrolled"): (317.83, 1.9, 155.07),
}


def _useful_flops(avg_iters, T=1024, V=128):
    launch = sshopm_launch(4, 3, num_starts=V, variant="unrolled")
    return T * V * avg_iters * launch.flops_per_thread_iter


@pytest.mark.benchmark(group="table3-report")
def test_regenerate_table3_model(benchmark, measured_iterations):
    """The eight modeled configurations vs the paper's Table III."""
    avg_iters, per_tensor = measured_iterations
    total_flops = _useful_flops(avg_iters)

    def build():
        rows = []
        preds = {}
        for variant in ("general", "unrolled"):
            for cores, key in ((1, "cpu1"), (4, "cpu4"), (8, "cpu8")):
                p = predict_cpu_sshopm(total_flops, variant=variant, cores=cores)
                preds[(key, variant)] = (p.gflops, p.seconds * 1e3)
            g = predict_sshopm(
                m=4, n=3, num_tensors=1024, num_starts=128,
                iterations=per_tensor, variant=variant,
            )
            preds[("gpu", variant)] = (g.gflops, g.seconds * 1e3)
        for variant in ("general", "unrolled"):
            seq_ms = preds[("cpu1", variant)][1]
            for key in ("cpu1", "cpu4", "cpu8", "gpu"):
                gflops, ms = preds[(key, variant)]
                paper_gflops, paper_ms, paper_rel = PAPER[(key, variant)]
                rows.append([
                    f"{key:5s} {variant:8s}",
                    f"{gflops:8.2f}", f"{paper_gflops:8.2f}",
                    f"{ms:9.1f}", f"{paper_ms:9.1f}",
                    f"{seq_ms / ms:7.2f}", f"{paper_rel:7.2f}",
                ])
        return rows, preds

    rows, preds = benchmark.pedantic(build, rounds=1, iterations=1)

    # shape assertions: who wins and by roughly what factor
    assert preds[("gpu", "unrolled")][0] > 250  # ~318 GFLOPS
    speedup = preds[("gpu", "general")][1] / preds[("gpu", "unrolled")][1]
    assert 15 < speedup < 22  # paper: 18.70x
    cpu_unroll = preds[("cpu1", "general")][1] / preds[("cpu1", "unrolled")][1]
    assert 7 < cpu_unroll < 10  # paper: 8.47x
    assert preds[("gpu", "unrolled")][1] < preds[("cpu8", "unrolled")][1]

    report(
        "table3_performance_model",
        format_table(
            f"Table III (modeled, iterations measured on phantom: "
            f"avg {measured_iterations[0]:.1f}/pair)\n"
            "columns: model GFLOPS | paper GFLOPS | model ms | paper ms | "
            "model rel. speedup | paper rel. speedup",
            ["config", "GF", "GF(paper)", "ms", "ms(paper)", "rel", "rel(paper)"],
            rows,
        ),
    )


# ---------------------------------------------------------------------------
# Measured rows: real wall-clock of the Python variants on this host.
# ---------------------------------------------------------------------------

_MEASURED: dict[str, float] = {}  # variant -> seconds for full workload


def _per_pair_seconds(variant, tensor, start, iters=25):
    t0 = time.perf_counter()
    sshopm(tensor, x0=start, alpha=0.0, tol=0.0, max_iters=iters, kernels=variant)
    return (time.perf_counter() - t0) / iters


@pytest.mark.benchmark(group="table3-measured-perpair")
@pytest.mark.parametrize("variant", ["compressed", "precomputed", "unrolled", "unrolled_cse"])
def test_bench_per_pair_variants(benchmark, paper_workload, variant):
    """Per-(tensor, start) SS-HOPM iteration cost of the interpreted
    per-tensor kernel variants (extrapolated to the full workload in the
    report)."""
    phantom, starts = paper_workload
    tensor = phantom.tensors[0]

    def run():
        return sshopm(tensor, x0=starts[0], alpha=0.0, tol=0.0, max_iters=10,
                      kernels=variant)

    benchmark(run)
    per_iter = benchmark.stats["mean"] / 10
    _MEASURED[variant] = per_iter  # seconds per pair-iteration


@pytest.mark.benchmark(group="table3-measured-batched")
@pytest.mark.parametrize("backend", ["batched", "batched_unrolled"])
def test_bench_full_workload_batched(benchmark, paper_workload, backend):
    """Full 1024 x 128 workload with the vectorized backends (the
    functional GPU analog), single precision as in the paper."""
    phantom, starts = paper_workload

    def run():
        return fleet_solve(
            phantom.tensors, starts=starts, alpha=0.0, tol=1e-6, max_iters=60,
            variant=backend, dtype=np.float32,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=1)
    _MEASURED[backend] = benchmark.stats["mean"]
    assert result.converged.mean() > 0.9


@pytest.mark.benchmark(group="table3-report")
def test_report_measured_rows(benchmark, paper_workload, measured_iterations):
    """Assemble the measured-variants report (depends on the benches above
    having populated _MEASURED)."""
    avg_iters, _ = measured_iterations
    pairs = 1024 * 128

    def build():
        rows = []
        base = _MEASURED.get("compressed")
        for variant in ("compressed", "precomputed", "unrolled", "unrolled_cse"):
            per_iter = _MEASURED.get(variant)
            if per_iter is None:
                continue
            full = per_iter * pairs * avg_iters
            rows.append([
                variant, f"{per_iter * 1e6:10.1f}", f"{full:10.1f}",
                f"{base / per_iter:7.2f}" if base else "",
            ])
        for backend in ("batched", "batched_unrolled"):
            secs = _MEASURED.get(backend)
            if secs is None:
                continue
            rows.append([backend, "-", f"{secs:10.3f}", ""])
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    if rows:
        report(
            "table3_performance_measured",
            format_table(
                "Table III (measured on this host, Python): per-pair "
                "iteration cost, extrapolated full-workload seconds "
                "(1024 tensors x 128 starts), speedup over the general "
                "(Figures 2-3) implementation",
                ["variant", "us/pair-iter", "full-sec", "speedup"],
                rows,
            ),
        )
