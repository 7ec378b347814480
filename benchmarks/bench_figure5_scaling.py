"""Figure 5 — performance vs number of tensors (unrolled implementations).

The paper plots GFLOPS (log y) against subsets of the 1024-tensor set for
CPU 1/4/8 cores and the GPU, all with loop unrolling and 128 starting
vectors.  Key shape: CPU lines are flat (throughput independent of T), the
GPU line ramps roughly linearly while SMs fill and saturates near 318
GFLOPS once T exceeds ~50-100 blocks.

This bench regenerates the series from the device models (fed with measured
iteration counts), asserts the shape, and also measures the real host
throughput of the batched backend across the same sweep.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import format_table, report
from repro.engine.fleet import fleet_solve
from repro.gpu.kernelspec import sshopm_launch
from repro.gpu.perfmodel import predict_sshopm
from repro.parallel.cpumodel import predict_cpu_sshopm

SWEEP = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]


@pytest.mark.benchmark(group="figure5-report")
def test_regenerate_figure5(benchmark, measured_iterations):
    avg_iters, per_tensor = measured_iterations
    launch = sshopm_launch(4, 3, num_starts=128, variant="unrolled")

    def build():
        rows = []
        series = {"gpu": [], "cpu1": [], "cpu4": [], "cpu8": []}
        for T in SWEEP:
            flops = T * 128 * avg_iters * launch.flops_per_thread_iter
            gpu = predict_sshopm(
                m=4, n=3, num_tensors=T, num_starts=128,
                iterations=per_tensor[:T], variant="unrolled",
            ).gflops
            cpu = {c: predict_cpu_sshopm(flops, variant="unrolled", cores=c).gflops
                   for c in (1, 4, 8)}
            series["gpu"].append(gpu)
            for c in (1, 4, 8):
                series[f"cpu{c}"].append(cpu[c])
            rows.append([T, f"{cpu[1]:7.2f}", f"{cpu[4]:7.2f}",
                         f"{cpu[8]:7.2f}", f"{gpu:8.1f}"])
        return rows, series

    rows, series = benchmark.pedantic(build, rounds=1, iterations=1)

    gpu = np.array(series["gpu"])
    # CPU series flat (model: rate independent of T)
    for key in ("cpu1", "cpu4", "cpu8"):
        s = np.array(series[key])
        assert np.allclose(s, s[0], rtol=1e-6)
    # GPU ramps: near-linear at the small end
    assert gpu[2] / gpu[0] > 3.0  # T=8 vs T=2
    # saturates at the large end near the Table III rate
    assert abs(gpu[-1] - gpu[-2]) / gpu[-1] < 0.12
    assert gpu[-1] > 250
    # crossover: GPU beats 8-core CPU somewhere in the sweep, not at T=2
    cpu8 = np.array(series["cpu8"])
    assert gpu[0] < 8 * cpu8[0]
    assert gpu[-1] > 10 * cpu8[-1]

    from repro.util.asciiplot import ascii_plot

    ts = np.array(SWEEP, dtype=float)
    plot = ascii_plot(
        {
            "gpu": (ts, np.array(series["gpu"])),
            "8-core": (ts, np.array(series["cpu8"])),
            "4-core": (ts, np.array(series["cpu4"])),
            "1-core": (ts, np.array(series["cpu1"])),
        },
        width=60,
        height=16,
        logx=True,
        logy=True,
        xlabel="tensors",
        ylabel="GFLOPS",
    )
    report(
        "figure5_scaling",
        format_table(
            "Figure 5 (modeled): GFLOPS vs number of tensors, unrolled "
            "kernels, V=128 (paper: CPU lines flat at 2.05/7.07/9.67; GPU "
            "ramps to ~318)",
            ["T", "cpu1", "cpu4", "cpu8", "gpu"],
            rows,
        )
        + "\n\n" + plot,
    )


@pytest.mark.benchmark(group="figure5-host")
@pytest.mark.parametrize("T", [64, 256, 1024])
def test_bench_host_batched_scaling(benchmark, paper_workload, T):
    """Real host throughput of the batched backend over subsets of the
    1024-tensor set (the host analog of the GPU curve: throughput grows
    with T as vectorization amortizes per-sweep overheads)."""
    phantom, starts = paper_workload
    subset = phantom.tensors.subset(T)

    def run():
        return fleet_solve(subset, starts=starts, alpha=0.0, tol=1e-6,
                           max_iters=30, variant="unrolled", dtype=np.float32)

    benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=1)


@pytest.mark.benchmark(group="figure5-report")
def test_report_host_scaling(benchmark, paper_workload):
    """Measured host pair-throughput across the sweep (single shot each)."""
    phantom, starts = paper_workload

    def build():
        rows = []
        for T in (4, 64, 256, 1024):
            subset = phantom.tensors.subset(T)
            t0 = time.perf_counter()
            res = fleet_solve(subset, starts=starts, alpha=0.0, tol=1e-6,
                              max_iters=30, variant="unrolled",
                              dtype=np.float32)
            dt = time.perf_counter() - t0
            sweeps = res.sweeps
            pair_iters = T * 128 * sweeps
            rows.append([T, f"{dt*1e3:9.1f}", f"{pair_iters/dt/1e6:10.2f}"])
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    # throughput grows with T (vectorization amortization), mirroring the
    # GPU's fill-the-device ramp
    rates = [float(r[2]) for r in rows]
    assert rates[-1] > 1.3 * rates[0]
    report(
        "figure5_host_measured",
        format_table(
            "Figure 5 (measured, this host): batched_unrolled backend, "
            "lockstep pair-iterations per second vs subset size",
            ["T", "ms", "Mpair-iter/s"],
            rows,
        ),
    )
