"""Convergence-theory bench — predicted vs measured rates across shifts.

Quantifies Section V-A's "tradeoff between guarantees of convergence and
time-to-completion" from first principles: for the principal eigenpair of
application-sized tensors, the linearized multiplier
``rho(alpha) = max_i |mu_i + alpha| / |lambda + alpha|`` predicts both the
iteration counts and their growth with the shift.  The bench checks the
prediction against measured SS-HOPM runs.
"""

import numpy as np
import pytest

from benchmarks.conftest import format_table, report
from repro.solvers.sshopm import sshopm, suggested_shift
from repro.core.solve import find_eigenpairs
from repro.core.theory import analyze_fixed_point, estimate_rate, minimal_attracting_shift
from repro.symtensor.random import random_symmetric_tensor
from repro.util.rng import random_unit_vector


@pytest.mark.benchmark(group="theory-report")
def test_rate_prediction_sweep(benchmark):
    tensor = random_symmetric_tensor(4, 3, rng=77)
    pairs = find_eigenpairs(tensor, num_starts=128, alpha=suggested_shift(tensor),
                            rng=78, tol=1e-14, max_iters=6000)
    principal = pairs[0]
    a_min = minimal_attracting_shift(tensor, principal.eigenvalue,
                                     principal.eigenvector)
    conservative = suggested_shift(tensor)
    shifts = [a_min + 0.5, 2.0 * a_min + 1.0, conservative / 4, conservative]

    def build():
        rows = []
        for alpha in shifts:
            ana = analyze_fixed_point(tensor, principal.eigenvalue,
                                      principal.eigenvector, alpha)
            x0 = principal.eigenvector + 0.05 * random_unit_vector(3, rng=79)
            res = sshopm(tensor, x0=x0, alpha=alpha, tol=1e-14, max_iters=50000)
            measured = estimate_rate(res.lambda_history)
            rows.append([
                f"{alpha:9.3f}",
                f"{ana.rate:7.4f}",
                f"{ana.rate**2:7.4f}",
                f"{measured:7.4f}" if np.isfinite(measured) else "n/a",
                res.iterations,
            ])
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)

    # predicted lambda-rate (rho^2) matches measurement where defined
    for row in rows:
        if row[3] != "n/a":
            assert abs(float(row[2]) - float(row[3])) < 0.08, row
    # iteration counts grow with the shift (the Section V-A tradeoff)
    iters = [row[4] for row in rows]
    assert iters[-1] > iters[0]

    report(
        "convergence_theory",
        format_table(
            "Shift vs convergence rate at the principal eigenpair "
            "(m=4, n=3; predicted multiplier rho, lambda-rate rho^2, "
            "measured lambda-rate, iterations to |dlambda| < 1e-14)",
            ["alpha", "rho", "rho^2", "measured", "iters"],
            rows,
        ),
    )
