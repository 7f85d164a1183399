"""Mathematical constants and the cosine integral.

The three literals (Euler-Mascheroni, Catalan, Ti2(1/2)) enter the closed
forms of ``constants`` and ``discretize``.  ``cosint`` is plain ``math``,
validated (strictly positive, finite argument, real output) and within
1e-15 * max(1, |Ci|) of scipy.special on [1e-3, 1e3].
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


# Up to this argument the cosine integral sums its power series, above it
# evaluates the continued fraction of E1(it) bottom-up from this depth.  The
# fraction converges slowest at the switch, where it needs 61 levels; from
# 80 the result is within 3e-16 of the exact value for every t above.
# Top-down (Lentz) evaluation accumulates rounding: up to 2e-15 near t = 2.
_COSINT_SERIES_MAX = 3.0
_COSINT_FRACTION_DEPTH = 80


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
