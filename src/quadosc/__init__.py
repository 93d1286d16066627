"""Exact ground-state series for the 2D oscillator with an x^2 y^2 coupling.

The potential g^2 (x^2 + b^2 y^2) / 2 + g^2 mu x^2 y^2 admits a semiclassical
expansion of the ground state built from a single classical trajectory.  This
package computes that expansion exactly, in several equivalent formulations,
and verifies the results against an independent oscillator-basis recursion
and a finite-difference eigensolver, inverse iteration on a banded Cholesky
factor.
"""

from .algebra import GradedPoly
from .errors import (
    ConvergenceFailure,
    OddParity,
    QuadoscError,
    ResonantDenominator,
    SingularInverse,
)
from .greens import (
    apply_flow_inverse,
    diffusion_step,
    resolvent_sum,
    solve_green,
)
from .hierarchy import (
    SeriesSolution,
    default_depth,
    solve_levels,
)
from .oracle import (
    GridSpec,
    SpectralEstimate,
    compare_methods,
    extrapolated_ground_energy,
    fd_ground_state,
    rs_corrections,
    rs_series,
)
from .perturbation import (
    DEFAULT_WINDOW,
    NormalForm,
    canonical_window,
    normal_form_diff,
    solve_exponential,
    solve_polynomial,
)
from .trajectory import PotentialSpec, standard_spec

__version__ = "0.1.0"

__all__ = [
    "ConvergenceFailure",
    "DEFAULT_WINDOW",
    "GradedPoly",
    "GridSpec",
    "NormalForm",
    "OddParity",
    "PotentialSpec",
    "QuadoscError",
    "ResonantDenominator",
    "SeriesSolution",
    "SingularInverse",
    "SpectralEstimate",
    "apply_flow_inverse",
    "canonical_window",
    "compare_methods",
    "default_depth",
    "diffusion_step",
    "extrapolated_ground_energy",
    "fd_ground_state",
    "normal_form_diff",
    "resolvent_sum",
    "rs_corrections",
    "rs_series",
    "solve_exponential",
    "solve_green",
    "solve_levels",
    "solve_polynomial",
    "standard_spec",
]
