"""repro — reproduction of Ballard, Kolda & Plantenga,
"Efficiently Computing Tensor Eigenvalues on a GPU" (IPDPS-W 2011).

Subpackages
-----------
``repro.symtensor``
    Compressed symmetric tensor storage (Section III-A): index classes,
    lexicographic enumeration, single and batched containers.
``repro.kernels``
    ``A x^m`` / ``A x^{m-1}`` in every variant the paper benchmarks:
    dense reference, spec-faithful compressed loops, precomputed tables,
    code-generated unrolled, and batched vectorized.
``repro.core``
    Eigenpair extraction, deduplication and stability classification
    (the solver iterations live in ``repro.solvers``, the multistart
    engine in ``repro.engine``).
``repro.solvers``
    The solver zoo: SS-HOPM (fixed and adaptive shift), GEAP
    (per-iteration adaptive shift), QRST (tensor QR with deflation), and
    the method names behind ``repro.solve(method=...)``.
``repro.engine``
    The fleet solve engine: whole-workload batched scheduling with lane
    retirement, active-set compaction, and plan-cached kernels.
``repro.gpu``
    Simulated CUDA substrate: device specs, occupancy, event-driven grid
    execution, calibrated performance model (substitutes for the Tesla
    C2050 — see DESIGN.md).
``repro.parallel``
    CPU partitioning, the thread/process fleet tiers, and the calibrated
    OpenMP scaling model.
``repro.mri``
    The DW-MRI fiber-detection application: synthetic phantom, tensor
    fitting, fiber extraction, metrics.
``repro.instrument``
    Structured tracing and metrics: span recorder, flop/byte counters,
    JSON traces (``repro ... --trace out.json``).
``repro.serve``
    The crash-tolerant eigensolver daemon (``repro serve``): bounded
    admission, per-request deadlines, a circuit breaker around the
    process-fleet tier, and checkpointing SIGTERM drain with
    bit-for-bit ``--resume-dir`` restart (see ``docs/serve.md``).

Quick start
-----------
>>> import repro
>>> from repro.symtensor import random_symmetric_tensor
>>> from repro.core import suggested_shift
>>> A = random_symmetric_tensor(4, 3, rng=0)
>>> report = repro.solve(A, starts=64, alpha=suggested_shift(A), rng=1)
>>> pairs = report.eigenpairs(A)[0]  # doctest: +SKIP

``repro.solve`` routes by request shape (one tensor / a batch, one start
/ many, ``workers=``) and by ``method=`` (``"sshopm"`` / ``"geap"`` /
``"qrst"`` / ``"auto"``; see ``docs/solvers.md``); see ``docs/api.md``.
"""

def _read_version() -> str:
    """Single-source the version from pyproject.toml (src layout: the file
    sits two levels above this package), falling back to installed package
    metadata so an installed wheel without the source tree still reports
    correctly."""
    from pathlib import Path

    pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
    try:
        text = pyproject.read_text()
    except OSError:
        text = ""
    if text:
        try:
            import tomllib

            version = tomllib.loads(text).get("project", {}).get("version")
            if version:
                return version
        except Exception:
            pass
        import re

        match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
        if match:
            return match.group(1)
    try:
        from importlib.metadata import version as _pkg_version

        return _pkg_version("repro")
    except Exception:
        return "0+unknown"


__version__ = _read_version()

from repro import core, engine, gpu, instrument, kernels, mri, parallel, solvers, symtensor, util
from repro.facade import SolveReport, SolveRequest, solve
from repro.solvers import available_methods

__all__ = [
    "SolveReport",
    "SolveRequest",
    "available_methods",
    "core",
    "engine",
    "gpu",
    "instrument",
    "kernels",
    "mri",
    "parallel",
    "solve",
    "solvers",
    "symtensor",
    "util",
    "__version__",
]
