"""What ``get_plan(m, n, "auto")`` picks, against the batched variants
timed apart from the race that picked it.

:func:`repro.kernels.autotune.plan_race` races every batched (variant ×
codegen backend) pair once per shape on the fleet's ``A x^{m-1}`` call and
answers ``"auto"`` from its record.  For Table II's grid (m = 3..6, n =
2..8) plus (4,12), (4,16) and (4,24) this runs the race in an empty plan
cache, then times every batched variant on the numpy backend at the
race's lane count, with lane values held lanes-last the way the fleet
engine holds them and the variants' samples alternating as
``bench_kernel_lanes.py`` does.  It records the median milliseconds per
call of each variant, the variant ``"auto"`` resolves to, that variant's
time over the fastest variant's, and the race's own seconds.  A generated
variant past the unroll guard is not built (``-``).  It records numbers
and asserts nothing about speed.

Run with ``make kernel-bench``; writes ``results/plan_race.txt``.
"""

import os

import numpy as np

from benchmarks.bench_kernel_lanes import _per_call_seconds
from benchmarks.conftest import format_table, report
from repro.kernels.autotune import plan_race
from repro.kernels.codegen import _CODEGEN_VARIANTS
from repro.kernels.plan import _VARIANTS, clear_plan_cache, get_plan
from repro.kernels.unrolled import MAX_UNROLLED_ENTRIES
from repro.util.combinatorics import num_unique_entries

SHAPES = ([(m, n) for m in range(3, 7) for n in range(2, 9)]
          + [(4, 12), (4, 16), (4, 24)])


def test_plan_race_table(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_PLAN_CACHE_DIR", str(tmp_path))
    clear_plan_cache()
    rng = np.random.default_rng(1)
    rows = []
    for m, n in SHAPES:
        record = plan_race(m, n)
        picked = get_plan(m, n, "auto").variant
        lanes = record["lanes"]
        unique = num_unique_entries(m, n)
        values = rng.normal(size=(unique, lanes)).T  # lanes-last
        x = rng.normal(size=(lanes, n))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        variants = [v for v in _VARIANTS if not (
            v in _CODEGEN_VARIANTS and unique > MAX_UNROLLED_ENTRIES)]
        samples = _per_call_seconds({
            v: (lambda plan=get_plan(m, n, v): plan.ax_m1(values, x))
            for v in variants})
        ms = {v: 1e3 * float(np.median(s)) for v, s in samples.items()}
        rows.append([f"m={m} n={n}", lanes,
                     *(f"{ms[v]:.3f}" if v in ms else "-" for v in _VARIANTS),
                     picked, f"{ms[picked] / min(ms.values()):.2f}",
                     f"{record['seconds']:.2f}"])
    report(
        "plan_race",
        format_table(
            'get_plan(m, n, "auto") against each batched variant\'s '
            "ax_m1 per call (ms, numpy backend, lanes-last float64 values; "
            f"median of alternating samples; {os.cpu_count()} CPUs, numpy "
            f"{np.__version__})",
            ["shape", "lanes", *_VARIANTS, "auto", "auto/best", "race s"],
            rows,
        ),
    )
