"""Special functions: pinned values, identities, scipy.special and independent oracles."""

import math

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from loglap.specfun import (
    CATALAN,
    EULER_GAMMA,
    TI2_HALF,
    cosint,
    digamma,
    ln_gamma,
)
from oracles import cosint_ref, digamma_ref, ln_gamma_ref


def test_ln_gamma_pinned_values():
    assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-12)
    assert ln_gamma(5.0) == pytest.approx(math.log(24.0), abs=1e-12)


def test_digamma_pinned_values():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)
    assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-12)
    assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-12)


def test_cosint_pinned_values():
    assert cosint(1.0) == pytest.approx(0.3374039229009681, abs=1e-10)
    assert cosint(10.0) == pytest.approx(-0.0454564330044554, abs=1e-10)
    # small-argument behavior: gamma + ln t dominates, the integral is O(t^2)
    assert cosint(0.01) == pytest.approx(EULER_GAMMA + math.log(0.01), abs=1e-4)
    assert cosint(0.01) == pytest.approx(cosint_ref(0.01), abs=1e-10)


def test_domain_errors():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            ln_gamma(bad)
        with pytest.raises(ValueError):
            digamma(bad)
        with pytest.raises(ValueError):
            cosint(bad)


def test_recurrences():
    # psi(x+1) - psi(x) = 1/x and lnGamma(x+1) - lnGamma(x) = ln x
    for x in np.arange(0.5, 20.5, 0.5):
        x = float(x)
        assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 1e-11
        assert abs(ln_gamma(x + 1.0) - ln_gamma(x) - math.log(x)) <= 1e-11


def test_cosint_derivative():
    # Ci'(t) = cos(t)/t, checked by central differences
    step = 1e-5
    for t in (0.5, 1.0, 2.0, 5.0, 10.0):
        approx = (cosint(t + step) - cosint(t - step)) / (2.0 * step)
        assert abs(approx - math.cos(t) / t) <= 1e-6


def test_digamma_against_series_oracle():
    worst = 0.0
    for x in np.geomspace(0.5, 50.0, 200):
        worst = max(worst, abs(digamma(float(x)) - digamma_ref(float(x))))
    assert worst <= 1e-12


def test_ln_gamma_against_libm():
    for x in np.geomspace(0.5, 50.0, 200):
        assert abs(ln_gamma(float(x)) - ln_gamma_ref(float(x))) <= 1e-12


def test_cosint_against_quadrature_oracle():
    worst = 0.0
    for t in np.geomspace(0.01, 1000.0, 300):
        worst = max(worst, abs(cosint(float(t)) - cosint_ref(float(t))))
    assert worst <= 1e-10


@pytest.mark.parametrize("ours, theirs", [
    (digamma, special.psi),
    (ln_gamma, special.gammaln),
    (cosint, lambda t: special.sici(t)[1]),
], ids=["digamma", "ln_gamma", "cosint"])
def test_against_scipy_special(ours, theirs):
    # the stdlib implementations agree with scipy.special to rounding
    for x in np.geomspace(1e-3, 1e3, 2001):
        want = float(theirs(x))
        assert abs(ours(float(x)) - want) <= 1e-15 * max(1.0, abs(want)), x


def test_constants_literals():
    # the constants are stored to 20 digits; spot-check against math/identities
    assert EULER_GAMMA == pytest.approx(0.5772156649015329, abs=1e-16)
    assert CATALAN == pytest.approx(0.915965594177219, abs=1e-15)
    # inverse tangent integral Ti2(1/2) by direct quadrature of its definition
    ti2 = quad(lambda t: math.atan(t) / t, 0.0, 0.5, epsabs=0.0, epsrel=1e-13)[0]
    assert TI2_HALF == pytest.approx(ti2, rel=1e-15)
