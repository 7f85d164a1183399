"""Root solvers for the two increasing scalar maps, with envelope checks."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from loglap.roots import LOG_RATIO_THRESHOLD, RootResult, solve_log_ratio, solve_r_ln_r

E = math.e


def test_r_ln_r_fixed_points():
    assert solve_r_ln_r(E).root == pytest.approx(E, rel=1e-12)
    assert solve_r_ln_r(0.0).root == pytest.approx(1.0, rel=1e-12)
    res = solve_r_ln_r(-1.0 / E)
    assert res.root == 1.0 / E  # exact short-circuit, no iterations
    assert res.iterations == 0


def test_r_ln_r_example_with_band():
    c = 2.0 * E
    res = solve_r_ln_r(c)
    assert res.root == pytest.approx(3.954, abs=2e-3)
    low, high = c / math.log(c), c / (math.log(c) - math.log(math.log(c)))
    assert low == pytest.approx(3.211, abs=1e-3)
    assert high == pytest.approx(4.661, abs=1e-3)
    assert low <= res.root <= high


def test_r_ln_r_domain_error():
    with pytest.raises(ValueError):
        solve_r_ln_r(-1.0 / E - 1e-9)
    with pytest.raises(ValueError):
        solve_r_ln_r(math.nan)


def test_r_ln_r_sweep():
    # 1000 log-spaced targets across the whole admissible range.  The
    # absolute residual floor is one ulp of the target, which crosses 1e-10
    # near c ~ 5e5, so the tolerance is the max of the two.
    for off in np.geomspace(1e-9, 1e6 + 1.0 / E, 1000):
        c = -1.0 / E + float(off)
        res = solve_r_ln_r(c)
        assert isinstance(res, RootResult)
        assert abs(res.residual) <= max(1e-10, 4.0 * math.ulp(abs(c)))
        assert res.root >= 1.0 / E - 1e-15
        assert res.envelope_low - 1e-12 <= res.root <= res.envelope_high + 1e-12
        assert res.root <= 1.0 + c + 1e-12
        if c <= 0.0:
            assert res.root >= 1.0 + (E - 1.0) * c - 1e-12
        elif c <= E:
            # chord bound: r ln r is convex, so on [1, e] it sits below the
            # line through (1, 0) and (e, e)
            assert res.root >= 1.0 + (E - 1.0) / E * c - 1e-12
        if c >= E:
            lc = math.log(c)
            assert c / lc - 1e-9 <= res.root <= c / (lc - math.log(lc)) + 1e-9
        assert res.iterations <= 200


def test_r_ln_r_against_brentq():
    targets = np.geomspace(1e-3, 1e5, 50)
    res = solve_r_ln_r(targets)
    for c, root, low, high in zip(targets.tolist(), res.root, res.envelope_low, res.envelope_high):
        ref = brentq(
            lambda r: r * math.log(r) - c,
            max(1.0 / E, 0.5 * low),
            2.0 * high,
            xtol=1e-14,
            rtol=8.9e-16,
        )
        assert root == pytest.approx(ref, rel=1e-9)


def test_r_ln_r_closes_the_bracket_from_both_sides():
    # Newton meets the root of the convex r ln r from above and never moves
    # the bracket's lower end; the step to the next float below, where a
    # Newton step rounds to nothing, closes it, so every target here takes
    # at most 8 steps, where bisecting to two ulps takes up to 53.  The slope
    # ln r + 1 is below 1 on these roots, so a residual within two of the
    # root's ulps is a root within about one ulp
    targets = np.linspace(-0.3, -0.01, 291)
    res = solve_r_ln_r(targets)
    assert res.steps.max() <= 8
    assert np.all(np.abs(res.residual) <= 2.0 * np.spacing(res.root))


def test_r_ln_r_monotone_in_target():
    rng = np.random.default_rng(7)
    for _ in range(100):
        c1, c2 = np.sort(rng.uniform(-1.0 / E, 100.0, size=2))
        if c2 - c1 < 1e-9:
            continue
        assert solve_r_ln_r(float(c1)).root < solve_r_ln_r(float(c2)).root


def test_log_ratio_threshold_value():
    assert LOG_RATIO_THRESHOLD == pytest.approx(math.exp(E) / (E - 1.0), rel=1e-15)
    assert LOG_RATIO_THRESHOLD == pytest.approx(8.8194, abs=1e-4)


def test_log_ratio_examples():
    res = solve_log_ratio(10.0)
    assert res.root == pytest.approx(18.455, abs=5e-3)
    assert res.envelope_low == pytest.approx(14.686, abs=1e-3)
    assert res.envelope_high == pytest.approx(10.0 * math.log(10.0), rel=1e-12)
    assert res.envelope_low <= res.root < res.envelope_high

    res = solve_log_ratio(100.0)
    lo = 100.0 * (math.log(100.0) - math.log(math.log(100.0)))
    hi = 100.0 * math.log(100.0)
    assert lo == pytest.approx(307.79, abs=0.01)
    assert hi == pytest.approx(460.52, abs=0.01)
    assert lo <= res.root < hi


def test_log_ratio_branch_start():
    # just above the least admissible target, the root sits at the start
    # of the increasing branch, r = e^e
    res = solve_log_ratio(LOG_RATIO_THRESHOLD * (1.0 + 1e-9))
    assert res.root == pytest.approx(math.exp(E), rel=1e-6)


def test_log_ratio_domain_error():
    for bad in (LOG_RATIO_THRESHOLD, 8.8, 0.0, -3.0, math.inf):
        with pytest.raises(ValueError):
            solve_log_ratio(bad)


def test_log_ratio_sweep():
    t = np.geomspace(8.8301, 1e6, 1000)
    res = solve_log_ratio(t)
    assert np.all(np.abs(res.residual) <= 1e-9 * t)
    assert np.all((res.envelope_low - 1e-9 <= res.root) & (res.root < res.envelope_high))
    ratio = res.root / (np.log(res.root) - np.log(np.log(res.root)))
    assert ratio == pytest.approx(t, rel=1e-12)


def test_log_ratio_monotone_in_target():
    rng = np.random.default_rng(11)
    for _ in range(100):
        t1, t2 = np.sort(rng.uniform(8.9, 1e4, size=2))
        if t2 - t1 < 1e-6:
            continue
        assert solve_log_ratio(float(t1)).root < solve_log_ratio(float(t2)).root


def test_log_ratio_near_the_largest_float():
    # t ln t = 1.406e308 is finite, but the midpoint of the bracket is not
    # when taken as 0.5 (lo + hi)
    t = 2e305
    res = solve_log_ratio(t)
    assert np.isfinite(res.root).all() and np.isfinite(res.residual).all()
    assert abs(res.residual) <= 1e-9 * t
    assert res.envelope_low <= res.root < res.envelope_high
    # from about 2.5e305 on, t ln t itself overflows: no finite bracket
    with pytest.raises(ValueError, match=r"t ln t overflows.*1e\+306"):
        solve_log_ratio(1e306)
    with pytest.raises(ValueError, match=r"t ln t overflows.*1e\+306"):
        solve_log_ratio(np.array([10.0, 1e306]))


# Points where the solvers change branch or precision: the left end -1/e of
# the first map, its envelopes' switches at 0 and e, the end of the verify
# suite's sweep, the least target of the second map, and a huge target.
_SPECIAL_TARGETS = (-1.0 / E, 0.0, E, 1e6, LOG_RATIO_THRESHOLD, 1e300)

_near_special = st.one_of(
    st.sampled_from(_SPECIAL_TARGETS),
    st.sampled_from(_SPECIAL_TARGETS).flatmap(
        lambda p: st.floats(p - 1e-3 * max(1.0, abs(p)), p + 1e-3 * max(1.0, abs(p)))),
    st.floats(-1.0 / E, 1e300),
)
_FIELDS = ("target", "root", "residual", "envelope_low", "envelope_high", "steps")


@settings(max_examples=60, deadline=None)
@given(st.lists(_near_special, max_size=12))
def test_array_solve_equals_each_target_solved_alone(targets):
    for solve, admissible in ((solve_r_ln_r, lambda c: c >= -1.0 / E),
                              (solve_log_ratio, lambda t: t > LOG_RATIO_THRESHOLD)):
        kept = [x for x in targets if admissible(x)]
        res = solve(np.array(kept, dtype=float))
        alone = [solve(np.array([x])) for x in kept]
        for name in _FIELDS:
            got = getattr(res, name)
            assert got.shape == (len(kept),)
            assert all(getattr(one, name).shape == (1,) for one in alone)
            want = np.array([getattr(one, name)[0] for one in alone], dtype=got.dtype)
            assert got.tobytes() == want.tobytes(), name
        assert type(res.iterations) is int
        assert res.iterations == sum(one.iterations for one in alone)
        assert all(one.steps[0] == one.iterations for one in alone)
        json.dumps(0 + res.iterations)


def test_array_solve_names_the_refused_target():
    with pytest.raises(ValueError, match="finite, got nan"):
        solve_r_ln_r(np.array([0.0, math.nan, 1.0]))
    with pytest.raises(ValueError, match=r"-1/e .*got -0\.5"):
        solve_r_ln_r(np.array([1.0, 2.0, -0.5]))
    with pytest.raises(ValueError, match="finite, got inf"):
        solve_log_ratio(np.array([10.0, math.inf]))
    with pytest.raises(ValueError, match=r"exceed e\^e/\(e-1\).*got 8\.5"):
        solve_log_ratio(np.array([10.0, 100.0, 8.5]))
    with pytest.raises(ValueError, match="1-D"):
        solve_log_ratio(np.full((2, 2), 10.0))
