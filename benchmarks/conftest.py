"""Shared infrastructure for the reproduction benchmarks.

Each benchmark module regenerates one table or figure of the paper.  Beyond
pytest-benchmark's own timing table, modules register formatted paper-style
report tables via :func:`report`; a terminal-summary hook prints them at the
end of the run (so ``pytest benchmarks/ --benchmark-only | tee ...``
captures the same rows/series the paper reports).  Reports are also written
to ``benchmarks/results/*.txt``.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
_REPORTS: list[tuple[str, str]] = []


def report(name: str, text: str) -> None:
    """Register a paper-style report table for end-of-run printing and
    write it to ``benchmarks/results/<name>.txt``."""
    _REPORTS.append((name, text))
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def save_trace_report(name: str, recorder) -> None:
    """Persist a :class:`repro.instrument.Recorder` next to the text
    reports: the JSON trace to ``results/<name>.trace.json`` and its span
    table through :func:`report`."""
    RESULTS_DIR.mkdir(exist_ok=True)
    recorder.save_trace(RESULTS_DIR / f"{name}.trace.json")
    report(name, recorder.report())


def format_table(title: str, headers: list[str], rows: list[list], widths=None) -> str:
    """Fixed-width text table."""
    if widths is None:
        widths = []
        for c, h in enumerate(headers):
            w = len(str(h))
            for r in rows:
                w = max(w, len(str(r[c])))
            widths.append(w + 2)
    lines = [title, "=" * len(title)]
    lines.append("".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("".join("-" * (w - 1) + " " for w in widths))
    for r in rows:
        lines.append("".join(str(c).ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    tr = terminalreporter
    tr.section("paper reproduction reports")
    for name, text in _REPORTS:
        tr.write_line("")
        for line in text.splitlines():
            tr.write_line(line)
    tr.write_line("")
    tr.write_line(f"(also written to {RESULTS_DIR}/)")


@pytest.fixture(scope="session")
def paper_workload():
    """The paper's test workload: 1024 order-4 dim-3 tensors (synthetic
    phantom), 128 shared starting vectors, alpha = 0 (Section V-A)."""
    from repro.util.rng import starting_vectors
    from repro.mri.phantom import make_phantom

    phantom = make_phantom(rows=32, cols=32, num_gradients=24, noise_sigma=0.01, rng=1024)
    starts = starting_vectors(128, 3, scheme="random", rng=2050)
    return phantom, starts


@pytest.fixture(scope="session")
def measured_iterations(paper_workload):
    """Average SS-HOPM iteration count on the paper workload (feeds the
    device models so modeled runtimes reflect the real convergence
    behaviour of the test set)."""
    from repro.engine.fleet import fleet_solve

    phantom, starts = paper_workload
    res = fleet_solve(
        phantom.tensors, starts=starts, alpha=0.0, tol=1e-6, max_iters=200,
        dtype=np.float32,
    )
    per_tensor = res.iterations.mean(axis=1)
    return float(per_tensor.mean()), per_tensor
