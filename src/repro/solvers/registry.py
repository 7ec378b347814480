"""The method names behind ``repro.solve(method=...)``.

:data:`METHODS` lists the three built-in solvers; :func:`repro.solve`
routes each of them by the shape of the request (see ``docs/api.md``),
and ``method="auto"`` picks a name via :func:`choose_method` first.
Serve job specs and the CLI's ``--method`` flags accept the same names.
"""

from __future__ import annotations

__all__ = [
    "AUTO_RULES",
    "METHODS",
    "UnknownMethodError",
    "available_methods",
    "choose_method",
]

#: The built-in solver methods: the paper's fixed-shift SS-HOPM, GEAP's
#: adaptive projected-Hessian shift, and QRST's tensor QR with deflation.
METHODS = ("sshopm", "geap", "qrst")


class UnknownMethodError(ValueError):
    """A ``method=`` name that is neither in :data:`METHODS` nor ``"auto"``."""

    def __init__(self, name: str):
        super().__init__(
            f"unknown solver method {name!r}; available: "
            + ", ".join(available_methods())
        )
        self.name = name


def available_methods() -> tuple[str, ...]:
    """The method names (sorted), plus the ``"auto"`` router."""
    return tuple(sorted(METHODS)) + ("auto",)


#: The ``method="auto"`` heuristic table, fed by
#: ``benchmarks/bench_methods.py`` on the 64-tensor reference workload
#: (see ``docs/solvers.md`` for the measured numbers behind each rule).
#: Rules are checked in order; the first hit wins.
AUTO_RULES: tuple[tuple[str, str], ...] = (
    ("batch", "sshopm"),        # fleet lanes amortize kernels across T*V pairs
    ("spectrum=min", "geap"),   # concave mode needs an adaptive negative shift
    ("small-dense", "qrst"),    # one deterministic run sweeps several pairs
    ("default", "sshopm"),
)

#: Dense-size ceiling for the ``small-dense -> qrst`` rule: QRST works on
#: the dense tensor, so it only wins while ``n**m`` stays cache-sized.
AUTO_QRST_DENSE_LIMIT = 4096


def choose_method(
    m: int,
    n: int,
    *,
    batch: bool = False,
    num_starts: int = 1,
    spectrum: str = "max",
) -> str:
    """Resolve ``method="auto"`` by problem shape and spectrum target.

    The rules (in :data:`AUTO_RULES` order):

    1. Batch workloads route to ``sshopm`` — the fleet engine's
       vectorized lanes dominate per-eigenpair wall time there.
    2. ``spectrum="min"`` routes to ``geap`` — its concave mode reaches
       local minima SS-HOPM's convex shift never converges to.
    3. A single tensor whose dense form is small (``n**m`` at most
       :data:`AUTO_QRST_DENSE_LIMIT`) with few requested starts routes
       to ``qrst`` — one deterministic deflation run recovers several
       eigenpairs without a multistart sweep.
    4. Everything else is ``sshopm``.
    """
    if batch:
        return "sshopm"
    if spectrum == "min":
        return "geap"
    if n ** m <= AUTO_QRST_DENSE_LIMIT and num_starts <= 8:
        return "qrst"
    return "sshopm"
