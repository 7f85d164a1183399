"""Mathematical constants and the package's numerical error.

The three literals (Euler-Mascheroni, Catalan, Ti2(1/2)) enter the closed
forms of ``constants`` and ``discretize``.  ``NumericsError`` is what a
numerical routine raises when it misses its accuracy or iteration contract.
"""

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
