"""Special functions used throughout the package.

Everything here is a thin, validated wrapper around scipy.special.  The
wrappers exist so the rest of the package has a single import point with
pinned domain conventions (strictly positive arguments, real output) and
documented accuracy.
"""

from __future__ import annotations

import math

from scipy import special as _sp

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


def ln_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0."""
    if not (x > 0.0) or not math.isfinite(x):
        raise ValueError(f"ln_gamma requires x > 0, got {x!r}")
    return float(_sp.gammaln(x))


def digamma(x: float) -> float:
    """Logarithmic derivative of Gamma, x > 0."""
    if not (x > 0.0) or not math.isfinite(x):
        raise ValueError(f"digamma requires x > 0, got {x!r}")
    return float(_sp.psi(x))


def cosint(t: float) -> float:
    """Cosine integral Ci(t) for t > 0.

    Ci(t) = gamma + ln t + integral_0^t (cos u - 1)/u du.
    """
    if not (t > 0.0) or not math.isfinite(t):
        raise ValueError(f"cosint requires t > 0, got {t!r}")
    _, ci = _sp.sici(t)
    return float(ci)
