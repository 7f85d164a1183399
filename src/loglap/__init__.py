"""Galerkin spectra and closed-form eigenvalue bounds for the logarithmic Laplacian.

The package splits into small layers: mathematical and dimension constants
with the numerical error (`constants`), the two scalar root equations, each
solved for a 1-D array of targets (`roots`), domain geometry with the collar
ramp test function on an (n, N) array of points (`geometry`),
piecewise-constant Galerkin assembly (`discretize`), eigensolves and
spectral diagnostics (`spectrum`), the closed-form bound formulas
(`bounds`), and a CLI harness (`cli`).  The package exports the names in
the library modules' `__all__`, which list them once.
"""

from . import bounds, constants, discretize, geometry, roots, spectrum
from .bounds import *
from .constants import *
from .discretize import *
from .geometry import *
from .roots import *
from .spectrum import *

__version__ = "0.1.0"

__all__ = [name for module in (bounds, constants, discretize, geometry, roots, spectrum)
           for name in module.__all__] + ["__version__"]
