"""Domains: signed distance, foliations, the collar ramp, foliation constants."""

import math

import numpy as np
import pytest

from loglap.discretize import build_grid
from loglap.geometry import Domain, TestFunctionSpec, ball, box, interval


def test_signed_distance_examples():
    b2 = ball((0.0, 0.0), 2.0)
    assert b2.signed_distance((1.5, 0.0)) == pytest.approx(0.5, abs=1e-14)
    assert b2.signed_distance((3.0, 0.0)) == pytest.approx(-1.0, abs=1e-14)
    iv = interval(-1.0, 1.0)
    assert iv.signed_distance(0.0) == pytest.approx(1.0, abs=1e-14)
    assert iv.signed_distance(1.0) == pytest.approx(0.0, abs=1e-14)
    assert iv.signed_distance(2.5) == pytest.approx(-1.5, abs=1e-14)
    bx = box((0.0, 0.0), (2.0, 1.0))
    assert bx.signed_distance((1.0, 0.5)) == pytest.approx(0.5, abs=1e-14)
    assert bx.signed_distance((3.0, 2.0)) == pytest.approx(-math.sqrt(2.0), abs=1e-14)
    assert bx.signed_distance((1.0, -0.25)) == pytest.approx(-0.25, abs=1e-14)


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
        dx = np.asarray(dom.signed_distance(x))
        dy = np.asarray(dom.signed_distance(y))
        gap = np.linalg.norm(x - y, axis=1)
        assert np.all(np.abs(dx - dy) <= gap + 1e-12)


def test_signed_distance_vector_shapes():
    dom = ball((0.0, 0.0), 1.0)
    grid = np.zeros((3, 4, 2))
    out = dom.signed_distance(grid)
    assert out.shape == (3, 4)
    assert np.allclose(out, 1.0)
    assert isinstance(dom.signed_distance((0.0, 0.0)), float)


def test_basic_measures():
    iv = interval(-1.0, 1.0)
    assert iv.volume == pytest.approx(2.0)
    assert iv.inradius == pytest.approx(1.0)
    assert iv.boundary_measure == 2.0
    b = ball((0.0, 0.0), 3.0)
    assert b.volume == pytest.approx(9.0 * math.pi, rel=1e-14)
    assert b.circumradius == 3.0
    assert b.boundary_measure == pytest.approx(6.0 * math.pi, rel=1e-14)
    bx = box((0.0, 0.0), (2.0, 1.0))
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
    return dom.boundary_measure if nu == 0.0 else dom._inner_sheet(nu) + dom._outer_sheet(nu)


def test_foliation_measure_examples():
    b4 = ball((0.0, 0.0), 4.0)
    assert b4._inner_sheet(0.5) == pytest.approx(2.0 * math.pi * 3.5, rel=1e-12)
    iv = interval(-1.0, 1.0)
    assert iv._inner_sheet(0.3) == 2.0
    b1 = ball((0.0, 0.0), 1.0)
    assert _both_sheets(b1, 0.25) == pytest.approx(4.0 * math.pi, rel=1e-12)
    # at depth zero both sheets reach the boundary from either side
    assert _both_sheets(b1, 0.0) == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert b1._inner_sheet(0.0) == b1._outer_sheet(0.0) == b1.boundary_measure
    # inner sheet vanishes past the inradius
    assert b1._inner_sheet(1.5) == 0.0
    assert b1._outer_sheet(1.5) == pytest.approx(2.0 * math.pi * 2.5, rel=1e-12)


def test_box_inner_sheet():
    bx = box((0.0, 0.0), (2.0, 1.0))
    # rectangle perimeter shrinks by 8*nu until the short axis collapses
    assert bx._inner_sheet(0.25) == pytest.approx(6.0 - 2.0, rel=1e-12)
    assert bx._inner_sheet(0.5) == pytest.approx(1.0)  # the leftover segment
    assert bx._inner_sheet(0.7) == 0.0


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
        sheets = np.array([dom._inner_sheet(float(nu)) for nu in nus])
        integral = 0.5 * sigma * float(w @ sheets)
        assert integral == pytest.approx(collar, abs=1e-8)


def test_minimal_c0_examples():
    assert ball((0.0, 0.0), 4.0).minimal_c0("large") == pytest.approx(2.0 * math.pi, rel=1e-9)
    assert ball((0.0, 0.0), 0.1).minimal_c0("small") == pytest.approx(4.0 * math.pi, rel=1e-9)
    # independent of the radius once comfortably above the depth window
    vals = {ball((0.0, 0.0), r).minimal_c0("large") for r in (2.0, 4.0, 8.0)}
    assert max(vals) - min(vals) <= 1e-9


def test_minimal_c0_two_sided_inequality():
    for dom, regime, nu_hi in [
        (ball((0.0, 0.0), 4.0), "large", 0.5 - 1e-9),
        (ball((0.0, 0.0), 0.1), "small", 0.1 / 4.0),
        (box((0.0, 0.0), (0.2, 0.2)), "small", 0.05 / 4.0),
    ]:
        c0 = dom.minimal_c0(regime)
        assert c0 >= 1.0
        rin = dom.inradius
        scale = rin ** (dom.dim - 1)
        for nu in [*np.linspace(0.0, nu_hi, 100), 1e-12]:
            nu = float(nu)
            m = dom._inner_sheet(nu) if regime == "large" else _both_sheets(dom, nu)
            assert m <= c0 * scale * (1.0 + 1e-9)
            assert m >= scale / c0 * (1.0 - 1e-9)


def test_minimal_c0_errors():
    with pytest.raises(ValueError):
        interval(-1.0, 1.0).minimal_c0("large")
    with pytest.raises(ValueError):
        ball((0.0, 0.0), 4.0).minimal_c0("medium")
    with pytest.raises(ValueError):
        ball((0.0, 0.0), 0.4).minimal_c0("large")  # inradius below the depth window
    with pytest.raises(ValueError):
        box((0.0, 0.0), (1.0, 10.0)).minimal_c0("large")  # not ball-sandwiched


def test_test_function_examples():
    iv = interval(-1.0, 1.0)
    spec = TestFunctionSpec(sigma=0.25)
    assert iv.test_function(spec, 0.9) == pytest.approx(0.4, abs=1e-14)
    assert iv.test_function(spec, 0.0) == 1.0
    assert iv.test_function(spec, 1.2) == 0.0


@pytest.mark.parametrize("dom", [interval(-1.0, 1.3), box((0.2, -1.0), (2.0, 1.5)),
                                 ball((0.3, -0.1), 1.7)], ids=["interval", "box", "ball"])
def test_test_function_on_many_points_matches_single_points(dom):
    # bounds --sigma evaluates all cell centers in one call; each value is
    # the one a single-point call gives, bit for bit
    spec = TestFunctionSpec(sigma=0.3)
    centers = build_grid(dom, 0.05).centers
    one_call = dom.test_function(spec, centers)
    assert one_call.shape == (centers.shape[0],)
    assert np.array_equal(one_call, [dom.test_function(spec, tuple(x)) for x in centers])


def test_test_function_lipschitz():
    rng = np.random.default_rng(5)
    dom = ball((0.0, 0.0), 1.5)
    spec = TestFunctionSpec(sigma=0.4)
    pts = rng.uniform(-2.0, 2.0, size=(5000, 2, 2))
    wx = np.asarray(dom.test_function(spec, pts[:, 0, :]))
    wy = np.asarray(dom.test_function(spec, pts[:, 1, :]))
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
    assert isinstance(ball(0.0, 1.0), Domain)
    assert ball(0.0, 1.0).dim == 1
