"""The cosine integral and the literals: pinned values, identities, scipy.special and oracles."""

import math

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from loglap.specfun import CATALAN, EULER_GAMMA, TI2_HALF, cosint
from oracles import cosint_ref


def test_cosint_pinned_values():
    assert cosint(1.0) == pytest.approx(0.3374039229009681, abs=1e-10)
    assert cosint(10.0) == pytest.approx(-0.0454564330044554, abs=1e-10)
    # small-argument behavior: gamma + ln t dominates, the integral is O(t^2)
    assert cosint(0.01) == pytest.approx(EULER_GAMMA + math.log(0.01), abs=1e-4)
    assert cosint(0.01) == pytest.approx(cosint_ref(0.01), abs=1e-10)


def test_domain_errors():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            cosint(bad)


def test_cosint_derivative():
    # Ci'(t) = cos(t)/t, checked by central differences
    step = 1e-5
    for t in (0.5, 1.0, 2.0, 5.0, 10.0):
        approx = (cosint(t + step) - cosint(t - step)) / (2.0 * step)
        assert abs(approx - math.cos(t) / t) <= 1e-6


def test_cosint_against_quadrature_oracle():
    worst = 0.0
    for t in np.geomspace(0.01, 1000.0, 300):
        worst = max(worst, abs(cosint(float(t)) - cosint_ref(float(t))))
    assert worst <= 1e-10


@pytest.mark.parametrize("ours, theirs", [
    (cosint, lambda t: special.sici(t)[1]),
], ids=["cosint"])
def test_against_scipy_special(ours, theirs):
    # the stdlib implementation agrees with scipy.special to rounding
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
