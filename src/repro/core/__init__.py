"""The paper's primary contribution: SS-HOPM and eigenpair extraction.

The solver iterations live in :mod:`repro.solvers` and the multistart
engine in :mod:`repro.engine`; the solver names below are re-exported so
``from repro.core import sshopm`` keeps working.
"""

from repro.solvers.adaptive import adaptive_sshopm
from repro.core.config import SolveConfig
from repro.core.basins import (
    BasinMap,
    basin_map,
    render_basin_map,
    starts_needed_estimate,
)
from repro.core.exact import eigen_polynomial_n2, exact_eigenpairs_n2
from repro.core.eigenpairs import (
    Eigenpair,
    canonicalize_sign,
    classify_eigenpair,
    dedupe_eigenpairs,
    eigen_residual,
    hessian_matrix,
    projected_hessian_eigenvalues,
)
from repro.core.refine import NewtonResult, newton_refine, refine_pairs
from repro.core.results import FleetResult, ResultProtocol
from repro.core.solve import find_eigenpairs, find_eigenpairs_batch
from repro.solvers.sshopm import SSHOPMResult, sshopm, suggested_shift
from repro.core.theory import (
    ConvergenceAnalysis,
    analyze_fixed_point,
    estimate_rate,
    is_attracting,
    minimal_attracting_shift,
)

__all__ = [
    "adaptive_sshopm",
    "SolveConfig",
    "BasinMap",
    "basin_map",
    "render_basin_map",
    "starts_needed_estimate",
    "eigen_polynomial_n2",
    "exact_eigenpairs_n2",
    "Eigenpair",
    "canonicalize_sign",
    "classify_eigenpair",
    "dedupe_eigenpairs",
    "eigen_residual",
    "hessian_matrix",
    "projected_hessian_eigenvalues",
    "FleetResult",
    "ResultProtocol",
    "NewtonResult",
    "newton_refine",
    "refine_pairs",
    "find_eigenpairs",
    "find_eigenpairs_batch",
    "SSHOPMResult",
    "sshopm",
    "suggested_shift",
    "ConvergenceAnalysis",
    "analyze_fixed_point",
    "estimate_rate",
    "is_attracting",
    "minimal_attracting_shift",
]
