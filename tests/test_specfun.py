"""The literals against math and the identities that define them."""

import math

import pytest
from scipy.integrate import quad

from loglap.specfun import CATALAN, EULER_GAMMA, TI2_HALF


def test_constants_literals():
    # the constants are stored to 20 digits; spot-check against math/identities
    assert EULER_GAMMA == pytest.approx(0.5772156649015329, abs=1e-16)
    assert CATALAN == pytest.approx(0.915965594177219, abs=1e-15)
    # inverse tangent integral Ti2(1/2) by direct quadrature of its definition
    ti2 = quad(lambda t: math.atan(t) / t, 0.0, 0.5, epsabs=0.0, epsrel=1e-13)[0]
    assert TI2_HALF == pytest.approx(ti2, rel=1e-15)
