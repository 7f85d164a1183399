"""Special functions used throughout the package.

Everything here is plain ``math``: validated functions with pinned domain
conventions (strictly positive, finite arguments, real output), each within
1e-15 * max(1, |f|) of scipy.special on [1e-3, 1e3].
"""

from __future__ import annotations

import math

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


# B_2 / 2, B_4 / 4, ..., B_16 / 16: the coefficients of the digamma tail
# psi(x) ~ ln x - 1/(2x) - sum B_2j / (2j x^2j).
_DIGAMMA_TAIL = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12,
                 -3617 / 8160)

# Below this argument ln_gamma takes the log of math.gamma, within 6e-16 of
# the exact value there; libm's lgamma is off by up to 1.4e-15 near x = 2.7.
_LN_GAMMA_VIA_GAMMA_MAX = 10.0

# Up to this argument the cosine integral sums its power series, above it
# evaluates the continued fraction of E1(it) bottom-up from this depth.  The
# fraction converges slowest at the switch, where it needs 61 levels; from
# 80 the result is within 3e-16 of the exact value for every t above.
# Top-down (Lentz) evaluation accumulates rounding: up to 2e-15 near t = 2.
_COSINT_SERIES_MAX = 3.0
_COSINT_FRACTION_DEPTH = 80


def ln_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0."""
    if not (x > 0.0) or not math.isfinite(x):
        raise ValueError(f"ln_gamma requires x > 0, got {x!r}")
    if x < _LN_GAMMA_VIA_GAMMA_MAX:
        return math.log(math.gamma(x))
    return math.lgamma(x)


def digamma(x: float) -> float:
    """Logarithmic derivative of Gamma, x > 0.

    The recurrence psi(x) = psi(x + 1) - 1/x shifts the argument to at least
    16, where eight terms of the asymptotic tail leave under 1e-19.  Integers
    below 16 take the harmonic sum psi(n) = 1 + 1/2 + ... + 1/(n-1) - gamma,
    which avoids the rounding of ln 16 (up to 2e-16).
    """
    if not (x > 0.0) or not math.isfinite(x):
        raise ValueError(f"digamma requires x > 0, got {x!r}")
    if x < 16.0 and x == math.floor(x):
        return math.fsum([-EULER_GAMMA, *(1.0 / i for i in range(1, int(x)))])
    terms = []
    while x < 16.0:
        terms.append(-1.0 / x)
        x += 1.0
    inv2 = 1.0 / (x * x)
    power = inv2
    for c in _DIGAMMA_TAIL:
        terms.append(-c * power)
        power *= inv2
    return math.fsum([math.log(x), -0.5 / x, *terms])


def cosint(t: float) -> float:
    """Cosine integral Ci(t) for t > 0.

    Ci(t) = gamma + ln t + integral_0^t (cos u - 1)/u du, summed as the power
    series gamma + ln t + sum_j (-t^2)^j / (2j (2j)!) for small t; above,
    Ci(t) = -Re E1(it), with E1 by its continued fraction.
    """
    if not (t > 0.0) or not math.isfinite(t):
        raise ValueError(f"cosint requires t > 0, got {t!r}")
    if t <= _COSINT_SERIES_MAX:
        terms = [EULER_GAMMA, math.log(t)]
        term = 1.0  # (-t^2)^j / (2j)!
        j = 1
        while True:
            term *= -t * t / ((2 * j - 1) * (2 * j))
            terms.append(term / (2 * j))
            if abs(term) < 1e-18:
                return math.fsum(terms)
            j += 1
    # E1(it) = exp(-it) / (1 + it - 1^2 / (3 + it - 2^2 / (5 + it - ...))),
    # evaluated from the bottom up
    z = complex(1.0, t)
    tail = 0j
    for i in range(_COSINT_FRACTION_DEPTH, 0, -1):
        tail = -float(i * i) / (z + 2 * i + tail)
    return -(complex(math.cos(t), -math.sin(t)) / (z + tail)).real
