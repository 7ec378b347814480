"""The solver zoo: every eigensolver behind ``repro.solve(method=...)``.

Built-in methods (see ``docs/solvers.md`` for the selection guide):

``sshopm``
    The paper's shifted symmetric higher-order power method — one fixed
    shift, vectorized multistart/fleet/batch execution.  The default.
``geap``
    Adaptive shift from the projected-Hessian eigenvalues each iteration
    (Kolda–Mayo); convex *and* concave modes, so it reaches local minima
    SS-HOPM's convex iteration cannot.
``qrst``
    QR algorithm for symmetric tensors with deflation (Batselier–Wong);
    deterministic, recovers several eigenpairs in one run on small dense
    tensors.
``auto``
    Routing pseudo-method: :func:`~repro.solvers.registry.choose_method`
    picks one of the above from the problem shape and spectrum target.

Third-party solvers register through :func:`register_solver`; the
facade (and the CLI through it) routes through :func:`get_solver`.  The
serve plane runs only ``sshopm``, ``geap`` and ``qrst`` and refuses any
other method.
"""

from __future__ import annotations

from repro.solvers.registry import (
    AUTO_RULES,
    SolverEntry,
    UnknownMethodError,
    available_methods,
    choose_method,
    get_solver,
    register_solver,
)
from repro.solvers.sshopm import SSHOPMResult, sshopm, suggested_shift
from repro.solvers.adaptive import adaptive_sshopm
from repro.solvers.geap import geap, projected_shift
from repro.solvers.qrst import QRST_DENSE_LIMIT, QRSTResult, qrst, qrst_batch

__all__ = [
    "AUTO_RULES",
    "QRST_DENSE_LIMIT",
    "QRSTResult",
    "SSHOPMResult",
    "SolverEntry",
    "UnknownMethodError",
    "adaptive_sshopm",
    "available_methods",
    "choose_method",
    "geap",
    "get_solver",
    "projected_shift",
    "qrst",
    "qrst_batch",
    "register_solver",
    "sshopm",
    "suggested_shift",
]


register_solver("sshopm", SolverEntry(
    name="sshopm",
    summary="fixed-shift symmetric higher-order power method (the paper's "
            "solver); batch requests ride the vectorized fleet engine",
    single=sshopm,
    modes=("max", "min"),
))

register_solver("geap", SolverEntry(
    name="geap",
    summary="adaptive projected-Hessian shift per iteration (Kolda-Mayo "
            "GEAP); convex and concave modes",
    single=geap,
    modes=("max", "min"),
))

register_solver("qrst", SolverEntry(
    name="qrst",
    summary="tensor QR iteration with deflation (Batselier-Wong QRST); "
            "deterministic, several eigenpairs per run, small dense "
            "tensors only",
    single=qrst,
    batch=qrst_batch,
    modes=("extreme",),
    deterministic=True,
))
