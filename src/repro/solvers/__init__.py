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

:data:`METHODS` names the three; :func:`repro.solve`, the CLI's
``--method`` flags and serve job specs accept only those (and ``auto``
where routing happens at call time).
"""

from __future__ import annotations

from repro.solvers.registry import (
    AUTO_RULES,
    METHODS,
    UnknownMethodError,
    available_methods,
    choose_method,
)
from repro.solvers.sshopm import SSHOPMResult, sshopm, suggested_shift
from repro.solvers.adaptive import adaptive_sshopm
from repro.solvers.geap import geap, projected_shift
from repro.solvers.qrst import QRST_DENSE_LIMIT, QRSTResult, qrst, qrst_batch

__all__ = [
    "AUTO_RULES",
    "METHODS",
    "QRST_DENSE_LIMIT",
    "QRSTResult",
    "SSHOPMResult",
    "UnknownMethodError",
    "adaptive_sshopm",
    "available_methods",
    "choose_method",
    "geap",
    "projected_shift",
    "qrst",
    "qrst_batch",
    "sshopm",
    "suggested_shift",
]

