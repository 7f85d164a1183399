"""Dimension-dependent constants of the logarithmic Laplacian.

For dimension N the operator acts as

    L u(x) = c_N * int ( u(x) 1_{|x-y|<=1} - u(y) ) / |x-y|^N dy + rho_N u(x),

with Fourier symbol 2 ln|xi|.  This module evaluates the kernel constant
c_N, the unit-sphere measure, the zero-order shift rho_N, and the two
coefficients that drive the volume-based eigenvalue bounds.

Only Gamma and digamma at N/2 enter, so both are closed forms: Gamma from
``math.gamma``, and digamma from its finite sums at integers and half
integers (Abramowitz & Stegun 6.3.2-6.3.4).

The module also holds the three literals (Euler-Mascheroni, Catalan,
Ti2(1/2)) that enter these closed forms and those of ``discretize``, and
``NumericsError``, what a numerical routine raises when it misses its
accuracy or iteration contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["DimensionConstants", "NumericsError", "dimension_constants"]

# Euler-Mascheroni constant, 20 significant digits.  Kept as a literal so it
# is never recomputed at runtime.
EULER_GAMMA = 0.57721566490153286061

# Catalan's constant, 20 significant digits.  Shows up in the closed form of
# the square-cell self-interaction integral (see discretize).
CATALAN = 0.91596559417721901505

# Inverse tangent integral Ti2(1/2) = integral_0^(1/2) atan(t)/t dt, 20
# significant digits.  Enters the closed forms of the touching square-cell
# pair integrals (see discretize).
TI2_HALF = 0.48722235829452235711


class NumericsError(RuntimeError):
    """A numerical routine failed to meet its accuracy/iteration contract."""


@dataclass(frozen=True)
class DimensionConstants:
    """The closed-form constants for one space dimension.

    Attributes
    ----------
    dim:
        Space dimension N >= 1.
    kernel_constant:
        Prefactor of the singular integral, pi^{-N/2} Gamma(N/2).
    sphere_measure:
        Surface measure of the unit sphere, 2 pi^{N/2} / Gamma(N/2).
        Satisfies kernel_constant * sphere_measure = 2 identically.
    zero_order_shift:
        Additive zero-order constant, 2 ln 2 + psi(N/2) - gamma.
    volume_coefficient:
        Coefficient of |Omega| in the eigenvalue lower bounds,
        2 * sphere_measure / (N^2 (2 pi)^N).
    counting_coefficient:
        Coefficient in the eigenvalue-sum upper bound,
        2 (2 pi)^N N / sphere_measure.
    """

    dim: int
    kernel_constant: float
    sphere_measure: float
    zero_order_shift: float
    volume_coefficient: float
    counting_coefficient: float


def dimension_constants(dim: int) -> DimensionConstants:
    """Evaluate all dimension constants for an integer dimension in [1, 10]."""
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ValueError(f"dimension must be an integer, got {dim!r}")
    if not 1 <= dim <= 10:
        # Everything downstream runs in dimensions 1 and 2; `constants --dim`
        # and the verify suite cover 1..10, the range the tests check.
        raise ValueError(f"dimension must be in [1, 10], got {dim}")
    half = dim / 2.0
    gamma_half = math.gamma(half)
    kernel = math.pi ** (-half) * gamma_half
    sphere = 2.0 * math.pi**half / gamma_half
    m = dim // 2
    if dim % 2 == 0:
        # psi(m) = -gamma + sum_{j<m} 1/j
        psi = math.fsum([-EULER_GAMMA, *(1.0 / j for j in range(1, m))])
        shift = 2.0 * math.log(2.0) + psi - EULER_GAMMA
    else:
        # psi(m + 1/2) = -gamma - 2 ln 2 + sum_{j<=m} 2/(2j-1): the 2 ln 2 cancels
        shift = math.fsum([-2.0 * EULER_GAMMA, *(2.0 / (2 * j - 1) for j in range(1, m + 1))])
    vol_coef = 2.0 * sphere / (dim**2 * (2.0 * math.pi) ** dim)
    count_coef = 2.0 * (2.0 * math.pi) ** dim * dim / sphere
    return DimensionConstants(
        dim=dim,
        kernel_constant=kernel,
        sphere_measure=sphere,
        zero_order_shift=shift,
        volume_coefficient=vol_coef,
        counting_coefficient=count_coef,
    )
