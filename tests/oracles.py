"""Independent reference computations for the test suite.

Everything here takes a different route than the package.  digamma comes
from the recurrence and the Bernoulli tail and ln Gamma from libm, where
``loglap.constants`` takes the finite sums at N/2 and ``math.gamma``.
Eigenvalues come from a characteristic-polynomial solve, the kernel pair
integrals from 1D quadrature of reduced (correlation) forms, in mpmath where
double precision would cancel, and the foliation constant from the level
sets of the signed distance, where ``loglap.geometry`` has a closed form.
Slower and cruder than the production code, but fair as cross-checks.
"""

import math

import mpmath
import numpy as np
from scipy.integrate import quad

# B_2 .. B_14, used by the digamma tail below.
_BERNOULLI = [
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
]


def digamma_ref(x):
    """psi(x) for x > 0 via upward recurrence and the asymptotic tail."""
    if x <= 0.0:
        raise ValueError("reference digamma wants x > 0")
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    # psi(x) ~ ln x - 1/(2x) - sum B_{2k} / (2k x^{2k});  x >= 10 puts the
    # first dropped term (B_16 term) below 1e-16.
    inv2 = 1.0 / (x * x)
    tail = 0.0
    power = inv2
    for k, b in enumerate(_BERNOULLI, start=1):
        tail += b / (2.0 * k) * power
        power *= inv2
    return acc + math.log(x) - 0.5 / x - tail


def ln_gamma_ref(x):
    # libm, not scipy -- a genuinely separate implementation.
    return math.lgamma(x)


def eigvals_charpoly(matrix):
    """All eigenvalues of a small symmetric matrix via its characteristic polynomial.

    Faddeev-LeVerrier for the coefficients, then a companion-matrix root
    solve.  Only sane for tiny well-conditioned matrices, which is exactly
    what the tests feed it.
    """
    a = np.asarray(matrix, dtype=float)
    n = a.shape[0]
    coeffs = np.empty(n + 1)
    coeffs[0] = 1.0
    work = np.eye(n)
    for k in range(1, n + 1):
        work = a @ work
        c = -np.trace(work) / k
        coeffs[k] = c
        work = work + c * np.eye(n)
    roots = np.roots(coeffs)
    return np.sort(roots.real)


# ---------------------------------------------------------------------------
# kernel pair integrals, reduced to 1D correlation form
# ---------------------------------------------------------------------------
#
# For two cells of side h the kernel integral becomes an integral of the
# indicator correlation (a tent per axis) against the kernel.  The 1D case
# is a single tent; in 2D one axis is integrated in closed form and the
# other handed to adaptive quadrature (scipy in double precision, or mpmath
# at 32 digits for the separated offsets at every distance).


def pair_integral_1d(m, h):
    """Integral of 1/|x-y| over two cells of length h, centers m*h apart (m >= 1)."""
    d = m * h

    def f(s):
        return (h - abs(s - d)) / s if s > 0.0 else 1.0

    left = quad(f, d - h, d, epsabs=1e-14, epsrel=1e-13, limit=200)
    right = quad(f, d, d + h, epsabs=1e-14, epsrel=1e-13, limit=200)
    return left[0] + right[0]


def diagonal_inner_1d(h):
    """Integral over a length-h cell of int over B_1(x) minus the cell of 1/|x-y|."""
    value, _ = quad(
        lambda x: -math.log(x) - math.log(h - x),
        0.0,
        h,
        epsabs=1e-14,
        epsrel=1e-13,
        limit=200,
    )
    return value


def edge_pair_2d(h):
    """Integral of |x-y|^(-2) over two side-h squares sharing an edge."""

    def f(s):
        if s == 0.0:
            return h * math.pi / 2.0
        return min(s, 2.0 * h - s) * (
            (h / s) * math.atan(h / s) - 0.5 * math.log1p((h / s) ** 2)
        )

    v1 = quad(f, 0.0, h, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    v2 = quad(f, h, 2.0 * h, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    return 2.0 * (v1 + v2)


def corner_pair_2d(h):
    """Integral of |x-y|^(-2) over two side-h squares sharing a corner."""

    def g(s):
        a = 0.5 * math.log((s * s + h * h) / (s * s))
        b = (2.0 * h / s) * (math.atan(2.0 * h / s) - math.atan(h / s)) - 0.5 * math.log(
            (s * s + 4.0 * h * h) / (s * s + h * h)
        )
        return a + b

    def f(s):
        return min(s, 2.0 * h - s) * g(s) if s > 0.0 else 0.0

    v1 = quad(f, 0.0, h, epsabs=1e-14, epsrel=1e-13, limit=400)[0]
    v2 = quad(f, h, 2.0 * h, epsabs=1e-14, epsrel=1e-13, limit=400)[0]
    return v1 + v2


def separated_pair_2d(h, a, b):
    """Integral of |x-y|^(-2) over side-h squares with center offset (a*h, b*h).

    Double precision throughout: the antiderivative differences cancel like
    eps*m^2 at offset m (1.2e-8 relative at (0, 255)), so this is a reference
    only at near offsets.  :func:`separated_pair_unit_2d_mp` serves far ones.
    """
    c1, c2 = a * h, b * h

    def inner(u):
        # the v-axis tent against 1/(u^2+v^2), antidifferentiated exactly
        def anti(lin_a, lin_b, lo, hi):
            return (lin_a / u) * (math.atan(hi / u) - math.atan(lo / u)) + 0.5 * lin_b * math.log(
                (u * u + hi * hi) / (u * u + lo * lo)
            )

        return anti(h - c2, 1.0, c2 - h, c2) + anti(h + c2, -1.0, c2, c2 + h)

    def f(u):
        return (h - abs(u - c1)) * inner(u)

    v1 = quad(f, c1 - h, c1, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    v2 = quad(f, c1, c1 + h, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    return v1 + v2


def separated_pair_unit_2d_mp(a, b, digits=32):
    """Integral of |x-y|^(-2) over unit squares at lattice offset (a, b), max >= 2.

    Reduced to the difference variable: the integral over [-1, 1]^2 of
    (1 - |s|)(1 - |t|) / ((a + s)^2 + (b + t)^2).  The t-integral is done in
    closed form, each atan difference folded into one atan so nothing cancels
    near u = a + s = 0, and the s-integral by tanh-sinh quadrature on each
    half-axis, all at ``digits`` significant digits.  Returns a float.
    """
    a, b = sorted((abs(a), abs(b)))
    if b < 2:
        raise ValueError("separated offsets need max(|a|, |b|) >= 2")
    with mpmath.workdps(digits):
        b = mpmath.mpf(b)

        def atan_over_u(u, c):  # atan(u / c) / u, continuous at u = 0
            return mpmath.atan(u / c) / u if u else 1 / c

        def inner(u):
            # int (1 - |t|) / (u^2 + (b + t)^2) dt over [-1, 1], b >= 2
            u2 = u * u
            return (
                (b + 1) * atan_over_u(u, u2 + b * (b + 1))
                - (b - 1) * atan_over_u(u, u2 + b * (b - 1))
                + mpmath.log((u2 + b * b) ** 2 / ((u2 + (b + 1) ** 2) * (u2 + (b - 1) ** 2))) / 2
            )

        value = mpmath.quad(lambda s: (1 - abs(s)) * inner(a + s), [-1, 0, 1])
        return float(value)


def diagonal_inner_2d(h, angular=2048, levels=16, gauss_n=8):
    """Integral over a side-h square of int over B_1(x) minus the cell of |x-y|^(-2).

    Polar form: for each x in the cell the inner integral is
    -int over angles of ln(distance from x to the cell wall), done with a
    midpoint angular rule; the outer integral over the cell is a tensor
    Gauss rule on panels graded dyadically into the walls, where the
    integrand has its log singularity.  Converges to ~1e-8 relative at the
    defaults, which is plenty for the comparisons made with it.
    """
    theta = (np.arange(angular) + 0.5) * 2.0 * math.pi / angular
    ct, st = np.cos(theta), np.sin(theta)
    cuts = np.unique(
        np.concatenate(
            [
                [0.0],
                h * 2.0 ** -np.arange(levels, 0, -1),
                h - h * 2.0 ** -np.arange(levels, 0, -1),
                [h],
            ]
        )
    )
    gx, gw = np.polynomial.legendre.leggauss(gauss_n)
    xs, ws = [], []
    for a, b in zip(cuts[:-1], cuts[1:]):
        xs.append(0.5 * (b - a) * gx + 0.5 * (a + b))
        ws.append(0.5 * (b - a) * gw)
    xs = np.concatenate(xs)
    ws = np.concatenate(ws)
    total = 0.0
    for xi, wi in zip(xs, ws):
        with np.errstate(divide="ignore"):
            tx = np.where(ct > 0, (h - xi) / ct, np.where(ct < 0, -xi / ct, np.inf))
            ty = np.where(
                st[None, :] > 0,
                (h - xs[:, None]) / st[None, :],
                np.where(st[None, :] < 0, -xs[:, None] / st[None, :], np.inf),
            )
        wall = np.minimum(tx[None, :], ty)
        inner = -np.log(wall).mean(axis=1) * 2.0 * math.pi
        total += wi * float(np.dot(ws, inner))
    return total


def inner_sheet(dom, nu):
    """H^{N-1} of the level set of ``dom``'s signed distance at depth nu >= 0.

    At nu = 0 it is the limit from inside.  mpmath at its working precision.
    """
    nu, rin = mpmath.mpf(nu), mpmath.mpf(dom.inradius)
    if dom.dim == 1:
        return mpmath.mpf(2 if nu < rin else 1 if nu == rin else 0)
    if dom.kind == "ball":
        return 2 * mpmath.pi * (dom.radius - nu) if nu < rin else mpmath.mpf(0)
    s1, s2 = (mpmath.mpf(float(s)) for s in dom.sides)
    if nu < rin:
        return 2 * (s1 + s2) - 8 * nu  # the perimeter of the shrunken rectangle
    return abs(s1 - s2) if nu == rin else mpmath.mpf(0)  # the leftover segment


def outer_sheet(dom, nu):
    """H^{N-1} of the level set of a 2D ``dom`` at signed distance -nu <= 0.

    At nu = 0 it is the limit from outside.  mpmath at its working precision.
    """
    nu = mpmath.mpf(nu)
    if dom.kind == "ball":
        return 2 * mpmath.pi * (dom.radius + nu)
    s1, s2 = (mpmath.mpf(float(s)) for s in dom.sides)
    return 2 * (s1 + s2) + 2 * mpmath.pi * nu  # four sides and a quarter circle per corner


def foliation_c0(dom, samples=33):
    """The least c0 >= 1 with R^{N-1}/c0 <= m <= c0 R^{N-1} for every sheet measure
    m on the depth window, as the maximum over ``samples`` depths of it (both
    ends included) in 40-digit mpmath, rounded to the nearest float.

    R is the inradius.  From R = 2 on the window is the inner sheet on
    [0, 1/2]; below it, the inner plus the outer sheet on [0, R/4], with the
    boundary alone at nu = 0 and their limits from either side beyond it.
    """
    with mpmath.workdps(40):
        rin = mpmath.mpf(dom.inradius)
        scale = rin ** (dom.dim - 1)
        if dom.inradius >= 2.0:
            measures = [inner_sheet(dom, nu) for nu in mpmath.linspace(0, 0.5, samples)]
        else:
            measures = [inner_sheet(dom, 0)] + [
                inner_sheet(dom, nu) + outer_sheet(dom, nu)
                for nu in mpmath.linspace(0, rin / 4, samples)
            ]
        c0 = max([mpmath.mpf(1)] + [max(m / scale, scale / m) for m in measures])
    with mpmath.workprec(53):
        return float(+c0)  # unary plus rounds to nearest at 53 bits


# Frozen values of the 2D pair integrals at h = 0.25, produced by the
# functions above (quadrature error estimates were all below 1e-15).
# Keeping literals guards the oracles themselves against regressions.
FROZEN_PAIR_2D = {
    (0, 1): 0.115641327862826,
    (1, 1): 0.0409156055622993,
    (0, 2): 0.0170658710850977,
    (1, 2): 0.0134557421343435,
    (2, 2): 0.00817311181270788,
    (0, 3): 0.00721276306879608,
}
FROZEN_PAIR_2D_H = 0.25
