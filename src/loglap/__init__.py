"""Galerkin spectra and closed-form eigenvalue bounds for the logarithmic Laplacian.

The package splits into small layers: mathematical and dimension constants
with the numerical error (`constants`), the two scalar root equations, each
solved for a 1-D array of targets (`roots`), domain geometry with the collar
ramp test function on an (n, N) array of points (`geometry`),
piecewise-constant Galerkin assembly (`discretize`), eigensolves and
spectral diagnostics (`spectrum`), the closed-form bound formulas
(`bounds`), and a CLI harness (`cli`).
"""

from .bounds import (
    BallProfile,
    BoundReport,
    counting_envelope,
    log_moment_check,
    lower_bound_eigenvalue,
    lower_bound_smallest,
    lower_bound_sum,
    upper_bound_smallest_large,
    upper_bound_smallest_small,
    upper_bound_sum,
)
from .constants import DimensionConstants, NumericsError, dimension_constants
from .discretize import (
    Grid,
    QuadFormMatrix,
    assemble_form,
    build_grid,
    offset_form,
    plane_wave_symbol_1d,
    rayleigh_quotient,
)
from .geometry import Domain, TestFunctionSpec, ball, box, interval
from .roots import RootResult, solve_log_ratio, solve_r_ln_r
from .spectrum import (
    Spectrum,
    eig_symmetric,
    envelope_samples,
    spectrum_from_values,
    weyl_diagnostics,
)

__version__ = "0.1.0"

__all__ = [
    "BallProfile",
    "BoundReport",
    "DimensionConstants",
    "Domain",
    "Grid",
    "NumericsError",
    "QuadFormMatrix",
    "RootResult",
    "Spectrum",
    "TestFunctionSpec",
    "__version__",
    "assemble_form",
    "ball",
    "box",
    "build_grid",
    "counting_envelope",
    "dimension_constants",
    "eig_symmetric",
    "envelope_samples",
    "interval",
    "log_moment_check",
    "lower_bound_eigenvalue",
    "lower_bound_smallest",
    "lower_bound_sum",
    "offset_form",
    "plane_wave_symbol_1d",
    "rayleigh_quotient",
    "solve_log_ratio",
    "solve_r_ln_r",
    "spectrum_from_values",
    "upper_bound_smallest_large",
    "upper_bound_smallest_small",
    "upper_bound_sum",
    "weyl_diagnostics",
]
