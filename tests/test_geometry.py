"""Domains: signed distance, foliations, the collar ramp, foliation constants."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from loglap.discretize import build_grid
from loglap.geometry import Domain, TestFunctionSpec, ball, box, interval
from oracles import foliation_c0, inner_sheet, outer_sheet


def test_signed_distance_examples():
    b2 = ball((0.0, 0.0), 2.0)
    assert b2.signed_distance(np.array([[1.5, 0.0], [3.0, 0.0]])) == pytest.approx(
        [0.5, -1.0], abs=1e-14)
    iv = interval(-1.0, 1.0)
    assert iv.signed_distance(np.array([[0.0], [1.0], [2.5]])) == pytest.approx(
        [1.0, 0.0, -1.5], abs=1e-14)
    bx = box((0.0, 0.0), (2.0, 1.0))
    assert bx.signed_distance(np.array([[1.0, 0.5], [3.0, 2.0], [1.0, -0.25]])) == pytest.approx(
        [0.5, -math.sqrt(2.0), -0.25], abs=1e-14)


def test_signed_distance_lipschitz():
    rng = np.random.default_rng(3)
    domains = [
        interval(-1.0, 1.0),
        box((-0.5, -1.0), (1.5, 2.5)),
        ball((0.25, -0.5), 1.5),
    ]
    for dom in domains:
        pts = rng.uniform(-4.0, 4.0, size=(10_000, 2, dom.dim))
        x, y = pts[:, 0, :], pts[:, 1, :]
        dx = dom.signed_distance(x)
        dy = dom.signed_distance(y)
        gap = np.linalg.norm(x - y, axis=1)
        assert np.all(np.abs(dx - dy) <= gap + 1e-12)


def test_signed_distance_vector_shapes():
    # one value per row of an (n, N) array; a single point, a grid of
    # points and points of the wrong dimension are refused
    dom = ball((0.0, 0.0), 1.0)
    out = dom.signed_distance(np.zeros((12, 2)))
    assert out.shape == (12,)
    assert np.allclose(out, 1.0)
    for bad in ((0.0, 0.0), np.zeros((3, 4, 2)), np.zeros((12, 1))):
        with pytest.raises(ValueError, match=r"\(n, 2\) array"):
            dom.signed_distance(bad)
    for bad in (0.5, np.zeros(3)):
        with pytest.raises(ValueError, match=r"\(n, 1\) array"):
            interval(0.0, 1.0).signed_distance(bad)


def test_basic_measures():
    iv = interval(-1.0, 1.0)
    assert iv.dim == 1
    assert iv.volume == pytest.approx(2.0)
    assert iv.inradius == pytest.approx(1.0)
    assert iv.boundary_measure == 2.0
    b = ball((0.0, 0.0), 3.0)
    assert b.dim == 2
    assert b.volume == pytest.approx(9.0 * math.pi, rel=1e-14)
    assert b.circumradius == 3.0
    assert b.boundary_measure == pytest.approx(6.0 * math.pi, rel=1e-14)
    bx = box((0.0, 0.0), (2.0, 1.0))
    assert bx.dim == 2
    assert bx.volume == pytest.approx(2.0)
    assert bx.inradius == pytest.approx(0.5)
    assert bx.circumradius == pytest.approx(math.hypot(1.0, 0.5), rel=1e-14)
    assert bx.boundary_measure == pytest.approx(6.0)


def test_ball_corners_are_plain_floats():
    # the corners show in messages and reprs, where np.float64(...) did
    b = ball((0.5, -0.25), 1.3)
    assert b.lo == (0.5 - 1.3, -0.25 - 1.3) and b.hi == (0.5 + 1.3, -0.25 + 1.3)
    assert all(type(v) is float for v in b.lo + b.hi)
    assert "np." not in repr(build_grid(b, 0.25))


def _both_sheets(dom, nu):
    """The sheets on both sides at depth nu, the boundary counted once at nu = 0."""
    if nu == 0.0:
        return dom.boundary_measure
    return float(inner_sheet(dom, nu) + outer_sheet(dom, nu))


def test_foliation_measure_examples():
    # the level-set oracle that the closed-form c0 is held against
    b4 = ball((0.0, 0.0), 4.0)
    assert float(inner_sheet(b4, 0.5)) == pytest.approx(2.0 * math.pi * 3.5, rel=1e-12)
    iv = interval(-1.0, 1.0)
    assert inner_sheet(iv, 0.3) == 2.0
    b1 = ball((0.0, 0.0), 1.0)
    assert _both_sheets(b1, 0.25) == pytest.approx(4.0 * math.pi, rel=1e-12)
    # at depth zero both sheets reach the boundary from either side
    assert _both_sheets(b1, 0.0) == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert float(inner_sheet(b1, 0.0)) == float(outer_sheet(b1, 0.0)) == b1.boundary_measure
    # inner sheet vanishes past the inradius
    assert inner_sheet(b1, 1.5) == 0.0
    assert float(outer_sheet(b1, 1.5)) == pytest.approx(2.0 * math.pi * 2.5, rel=1e-12)


def test_box_inner_sheet():
    bx = box((0.0, 0.0), (2.0, 1.0))
    # rectangle perimeter shrinks by 8*nu until the short axis collapses
    assert float(inner_sheet(bx, 0.25)) == pytest.approx(6.0 - 2.0, rel=1e-12)
    assert float(inner_sheet(bx, 0.5)) == pytest.approx(1.0)  # the leftover segment
    assert inner_sheet(bx, 0.7) == 0.0


def test_coarea_consistency():
    # volume of the collar equals the integral of the inner sheet measure
    g, w = np.polynomial.legendre.leggauss(64)
    for dom, sigma, collar in [
        (ball((0.0, 0.0), 1.0), 0.5, math.pi * (1.0 - 0.5**2)),
        (ball((1.0, -2.0), 3.0), 1.2, math.pi * (3.0**2 - 1.8**2)),
        (box((0.0, 0.0), (1.0, 2.0)), 0.3, 1.0 * 2.0 - 0.4 * 1.4),
        (interval(-1.0, 1.0), 0.25, 2.0 * 0.25),
    ]:
        nus = 0.5 * sigma * (g + 1.0)
        sheets = np.array([float(inner_sheet(dom, float(nu))) for nu in nus])
        integral = 0.5 * sigma * float(w @ sheets)
        assert integral == pytest.approx(collar, abs=1e-8)


def test_minimal_c0_examples():
    # |dOmega| / R from inradius 2 on, twice that below
    assert ball((0.0, 0.0), 4.0).minimal_c0() == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert ball((0.0, 0.0), 0.1).minimal_c0() == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert box((0.0, 0.0), (0.5, 0.5)).minimal_c0() == 16.0
    assert box((0.0, 0.0), (4.0, 6.0)).minimal_c0() == 10.0
    # independent of the radius in each regime
    for radii in ((2.0, 4.0, 8.0), (0.01, 0.5, 1.999)):
        vals = {ball((0.0, 0.0), r).minimal_c0() for r in radii}
        assert max(vals) - min(vals) <= 1e-14


def test_minimal_c0_two_sided_inequality():
    for dom, nu_hi in [
        (ball((0.0, 0.0), 4.0), 0.5 - 1e-9),
        (ball((0.0, 0.0), 0.1), 0.1 / 4.0),
        (box((0.0, 0.0), (0.2, 0.2)), 0.1 / 4.0),
        (box((1.0, -2.0), (4.0, 5.0)), 0.5 - 1e-9),
    ]:
        c0 = dom.minimal_c0()
        assert c0 >= 1.0
        rin = dom.inradius
        scale = rin ** (dom.dim - 1)
        for nu in [*np.linspace(0.0, nu_hi, 100), 1e-12]:
            nu = float(nu)
            m = float(inner_sheet(dom, nu)) if rin >= 2.0 else _both_sheets(dom, nu)
            assert m <= c0 * scale * (1.0 + 1e-9)
            assert m >= scale / c0 * (1.0 - 1e-9)


_RADII = st.floats(min_value=math.exp(-6.0), max_value=math.exp(5.0))
_POINTS = st.tuples(*[st.floats(min_value=-10.0, max_value=10.0)] * 2)


@st.composite
def _sandwiched_domains(draw):
    r = draw(_RADII)
    point = draw(st.one_of(st.just((0.0, 0.0)), _POINTS))  # a ball's center, a box's corner
    if draw(st.booleans()):
        return ball(point, r)
    # a box lies between the balls of radii R and 2R iff its long side is
    # at most sqrt(3) times its short side 2R
    aspect = draw(st.floats(min_value=1.0, max_value=math.sqrt(3.0) * (1.0 - 1e-12)))
    long_side = 2.0 * r * aspect
    sides = (2.0 * r, long_side) if draw(st.booleans()) else (long_side, 2.0 * r)
    return box(point, sides)


@settings(max_examples=300, deadline=None)
@given(_sandwiched_domains())
def test_minimal_c0_is_the_window_maximum_of_the_level_sets(dom):
    # the closed form against the maximum of the sheet measures over the
    # depth window, evaluated in 40-digit arithmetic
    assume(dom.sandwiched)
    ref = foliation_c0(dom)
    assert abs(dom.minimal_c0() - ref) <= math.ulp(ref)


@pytest.mark.parametrize("radius", [1.999, 2.0])
def test_minimal_c0_at_the_regime_boundary(radius):
    # inradius 2 already belongs to the large regime
    for dom in (ball((0.0, 0.0), radius), box((0.0, 0.0), (2.0 * radius, 3.0 * radius))):
        ref = foliation_c0(dom)
        assert abs(dom.minimal_c0() - ref) <= math.ulp(ref)


def test_minimal_c0_undefined():
    # no foliation constant in 1D or outside the R/2R sandwich
    assert interval(-1.0, 1.0).minimal_c0() is None
    assert box((0.0, 0.0), (1.0, 10.0)).minimal_c0() is None


def test_test_function_examples():
    iv = interval(-1.0, 1.0)
    spec = TestFunctionSpec(sigma=0.25)
    w = iv.test_function(spec, np.array([[0.9], [0.0], [1.2]]))
    assert w[0] == pytest.approx(0.4, abs=1e-14)
    assert w[1] == 1.0
    assert w[2] == 0.0


@pytest.mark.parametrize("dom", [interval(-1.0, 1.3), box((0.2, -1.0), (2.0, 1.5)),
                                 ball((0.3, -0.1), 1.7)], ids=["interval", "box", "ball"])
def test_test_function_on_many_points_matches_single_points(dom):
    # bounds --sigma evaluates all cell centers in one call; each value is
    # the one a call on that point alone gives, bit for bit
    spec = TestFunctionSpec(sigma=0.3)
    centers = build_grid(dom, 0.05).centers
    one_call = dom.test_function(spec, centers)
    assert one_call.shape == (centers.shape[0],)
    assert np.array_equal(one_call, [dom.test_function(spec, x[np.newaxis])[0] for x in centers])


def test_test_function_lipschitz():
    rng = np.random.default_rng(5)
    dom = ball((0.0, 0.0), 1.5)
    spec = TestFunctionSpec(sigma=0.4)
    pts = rng.uniform(-2.0, 2.0, size=(5000, 2, 2))
    wx = dom.test_function(spec, pts[:, 0, :])
    wy = dom.test_function(spec, pts[:, 1, :])
    gap = np.linalg.norm(pts[:, 0, :] - pts[:, 1, :], axis=1)
    assert np.all(np.abs(wx - wy) <= gap / spec.sigma + 1e-12)
    assert np.all((wx >= 0.0) & (wx <= 1.0))


def test_test_function_spec_validation():
    for sigma in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            TestFunctionSpec(sigma=sigma)


def test_constructor_validation():
    with pytest.raises(ValueError):
        interval(1.0, 1.0)
    with pytest.raises(ValueError):
        interval(2.0, -1.0)
    with pytest.raises(ValueError):
        box((0.0, 0.0), (1.0, 0.0))
    with pytest.raises(ValueError):
        box((0.0,), (1.0, 1.0))
    with pytest.raises(ValueError):
        ball((0.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        ball((0.0, 0.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        interval(0.0, math.inf)
    # a ball is 2D; a 1D ball is an interval
    for center in (0.0, (0.0,)):
        with pytest.raises(ValueError, match="2D point"):
            ball(center, 1.0)
    assert isinstance(ball((0.0, 0.0), 1.0), Domain)
