"""Dimension-dependent constants: pinned values and cross-dimension identities."""

import math

import mpmath
import pytest
from scipy.integrate import quad

from loglap.constants import CATALAN, EULER_GAMMA, TI2_HALF, DimensionConstants, dimension_constants
from oracles import digamma_ref, ln_gamma_ref


def test_dimension_one():
    c = dimension_constants(1)
    assert c.dim == 1
    assert c.sphere_measure == pytest.approx(2.0, rel=1e-14)
    assert c.kernel_constant == pytest.approx(1.0, rel=1e-14)
    assert c.zero_order_shift == pytest.approx(-2.0 * EULER_GAMMA, abs=1e-12)
    assert c.zero_order_shift == pytest.approx(-1.1544313298030453, abs=1e-10)
    assert c.volume_coefficient == pytest.approx(2.0 / math.pi, rel=1e-12)
    assert c.counting_coefficient == pytest.approx(2.0 * math.pi, rel=1e-12)


def test_dimension_two():
    c = dimension_constants(2)
    assert c.sphere_measure == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert c.kernel_constant == pytest.approx(1.0 / math.pi, rel=1e-14)
    assert c.zero_order_shift == pytest.approx(
        2.0 * math.log(2.0) - 2.0 * EULER_GAMMA, abs=1e-12
    )
    assert c.volume_coefficient == pytest.approx(1.0 / (4.0 * math.pi), abs=1e-12)
    assert c.counting_coefficient == pytest.approx(8.0 * math.pi, rel=1e-12)


# dimension_constants(1) and (2) as computed with scipy.special's gammaln and
# psi, which the stdlib special functions replaced
SCIPY_SPECIAL_VALUES = {
    1: {"kernel_constant": 0.9999999999999999, "sphere_measure": 2.0,
        "zero_order_shift": -1.154431329803066, "volume_coefficient": 0.6366197723675814,
        "counting_coefficient": 6.283185307179586},
    2: {"kernel_constant": 0.3183098861837907, "sphere_measure": 6.283185307179586,
        "zero_order_shift": 0.23186303131682484, "volume_coefficient": 0.07957747154594767,
        "counting_coefficient": 25.132741228718345},
}


@pytest.mark.parametrize("dim", [1, 2])
def test_constants_match_the_scipy_special_values(dim):
    c = dimension_constants(dim)
    for name, want in SCIPY_SPECIAL_VALUES[dim].items():
        assert abs(getattr(c, name) - want) <= 2 * math.ulp(want), name


def test_product_identity_all_dimensions():
    # kernel constant times sphere measure is 2 in every dimension
    for n in range(1, 11):
        c = dimension_constants(n)
        assert abs(c.kernel_constant * c.sphere_measure - 2.0) <= 1e-12


def test_fields_against_independent_formulas():
    for n in range(1, 11):
        c = dimension_constants(n)
        omega = 2.0 * math.pi ** (n / 2.0) / math.exp(ln_gamma_ref(n / 2.0))
        assert c.sphere_measure == pytest.approx(omega, rel=1e-12)
        assert c.zero_order_shift == pytest.approx(
            2.0 * math.log(2.0) + digamma_ref(n / 2.0) - EULER_GAMMA, abs=1e-12
        )
        assert c.volume_coefficient == pytest.approx(
            2.0 * omega / (n**2 * (2.0 * math.pi) ** n), rel=1e-12
        )
        assert c.counting_coefficient == pytest.approx(
            2.0 * (2.0 * math.pi) ** n * n / omega, rel=1e-12
        )
        assert c.volume_coefficient > 0.0
        assert c.counting_coefficient > 0.0


def test_shift_against_mpmath():
    # rho_N = 2 ln 2 + psi(N/2) - gamma at 50 digits; rho_2 is 2 ulp off
    for n in range(1, 11):
        with mpmath.workdps(50):
            exact = 2 * mpmath.log(2) + mpmath.digamma(mpmath.mpf(n) / 2) - mpmath.euler
        want = float(exact)
        assert abs(dimension_constants(n).zero_order_shift - want) <= 2 * math.ulp(want), n


def test_shift_in_one_dimension_is_exactly_minus_two_gamma():
    # psi(1/2) = -gamma - 2 ln 2, so the shift's 2 ln 2 cancels without rounding
    assert dimension_constants(1).zero_order_shift == -2.0 * EULER_GAMMA


def test_shift_increasing_in_dimension():
    shifts = [dimension_constants(n).zero_order_shift for n in range(1, 11)]
    assert all(b > a for a, b in zip(shifts, shifts[1:]))


def test_dimension_cap():
    for bad in (0, -1, 11, 100):
        with pytest.raises(ValueError):
            dimension_constants(bad)


def test_frozen_dataclass():
    c = dimension_constants(2)
    assert isinstance(c, DimensionConstants)
    with pytest.raises(Exception):
        c.dim = 3


def test_constants_literals():
    # the constants are stored to 20 digits; spot-check against math/identities
    assert EULER_GAMMA == pytest.approx(0.5772156649015329, abs=1e-16)
    assert CATALAN == pytest.approx(0.915965594177219, abs=1e-15)
    # inverse tangent integral Ti2(1/2) by direct quadrature of its definition
    ti2 = quad(lambda t: math.atan(t) / t, 0.0, 0.5, epsabs=0.0, epsrel=1e-13)[0]
    assert TI2_HALF == pytest.approx(ti2, rel=1e-15)
