"""Closed-form eigenvalue bounds, moment inequalities, envelope trends."""

import dataclasses
import json
import math

import numpy as np
import pytest

from loglap.bounds import (
    BallProfile,
    BoundReport,
    counting_envelope,
    log_moment_check,
    lower_bound_eigenvalue,
    lower_bound_smallest,
    lower_bound_sum,
    upper_bound_smallest_large,
    upper_bound_smallest_small,
    upper_bound_sum,
)
from loglap.constants import dimension_constants
from loglap.spectrum import spectrum_from_values

E = math.e
C1 = dimension_constants(1)
C2 = dimension_constants(2)


# ------------------------------------------------ lower bounds (volume)


def test_lower_smallest_volume_term():
    rep = lower_bound_smallest(C1, 2.0)
    assert rep.values["volume_term"] == pytest.approx(-4.0 / math.pi, rel=1e-14)
    assert rep.admissible["volume_term"] is True


def test_lower_smallest_positivity_threshold():
    # threshold 2/(e*N*d): pi/e for N=1
    assert lower_bound_smallest(C1, 1.0).admissible["positivity"] is True
    assert math.pi / E == pytest.approx(1.1557, abs=1e-4)
    assert lower_bound_smallest(C1, 1.2).admissible["positivity"] is False


def test_lower_smallest_refined_value():
    rep = lower_bound_smallest(C1, 0.05)
    x = 2.0 / (E * 1.0 * C1.volume_coefficient * 0.05)
    assert x == pytest.approx(23.1145, abs=1e-3)
    expect = 2.0 * (math.log(x) - math.log(math.log(x)))
    assert rep.values["refined"] == pytest.approx(expect, rel=1e-12)
    assert rep.values["refined"] == pytest.approx(3.992, abs=1e-3)
    assert rep.admissible["refined"] is True
    # above the log-log threshold the refined value is withheld
    wide = lower_bound_smallest(C1, 0.1)
    assert wide.admissible["refined"] is False
    assert "refined" not in wide.values


def test_lower_smallest_validation():
    for bad in (0.0, -1.0, math.inf):
        with pytest.raises(ValueError):
            lower_bound_smallest(C1, bad)


def test_lower_sum_parts():
    rep = lower_bound_sum(C1, 2.0, 2)
    assert rep.values["volume_term"] == pytest.approx(-4.0 / math.pi, rel=1e-14)
    # positivity needs k > e*N*d*V/2 = 2e/pi for N=1, V=2
    assert 2.0 * E / math.pi == pytest.approx(1.7306, abs=1e-4)
    assert rep.admissible["positivity"] is True
    assert lower_bound_sum(C1, 2.0, 1).admissible["positivity"] is False


def test_lower_sum_refined_pinned():
    rep = lower_bound_sum(C1, 2.0, 30)
    base = E * 1.0 * C1.volume_coefficient * 2.0
    expect = (2.0 * 30.0 / 1.0) * (
        math.log(30.0) + math.log(2.0 / base) - math.log(math.log(60.0 / base))
    )
    assert rep.values["refined"] == pytest.approx(expect, rel=1e-12)
    assert rep.values["refined"] == pytest.approx(108.269, abs=1e-3)
    assert rep.admissible["refined"] is True
    # admissibility cutoff sits between k=26 and k=27 for this volume
    assert rep.context["refined_threshold"] == pytest.approx(26.22, abs=5e-3)
    assert lower_bound_sum(C1, 2.0, 26).admissible["refined"] is False
    assert lower_bound_sum(C1, 2.0, 27).admissible["refined"] is True


def test_lower_eigenvalue_is_sum_over_k():
    for k in (27, 30, 40, 100, 1000):
        per = lower_bound_eigenvalue(C1, 2.0, k).values["refined"]
        total = lower_bound_sum(C1, 2.0, k).values["refined"]
        assert per * k == total  # exact, same expression
    assert lower_bound_eigenvalue(C1, 2.0, 30).values["refined"] == pytest.approx(
        3.609, abs=1e-3
    )
    assert lower_bound_eigenvalue(C1, 2.0, 2).admissible["positivity"] is True
    shallow = lower_bound_eigenvalue(C1, 2.0, 5)
    assert shallow.admissible["refined"] is False
    assert "refined" not in shallow.values


def test_lower_sum_monotone_in_k():
    prev = -math.inf
    for k in range(27, 271):
        val = lower_bound_sum(C1, 2.0, k).values["refined"]
        assert val >= prev
        prev = val


def test_lower_sum_validation():
    with pytest.raises(ValueError):
        lower_bound_sum(C1, 2.0, 0)
    with pytest.raises(ValueError):
        lower_bound_eigenvalue(C1, -1.0, 3)
    for bound in (lower_bound_sum, lower_bound_eigenvalue, upper_bound_sum):
        for k in (2.5, 3.0, "3", None):
            with pytest.raises(ValueError, match="k must be a positive integer"):
                bound(C2, 1.0, k)
        assert bound(C2, 1.0, np.int64(3)).context["k"] == 3  # numpy integers pass


# ---------------------------------------------- upper bounds (inradius)


def test_upper_large_statement_pinned():
    c0 = 2.0 * math.pi
    rep = upper_bound_smallest_large(C2, 4.0, c0)
    om, rho = C2.sphere_measure, C2.zero_order_shift
    z1 = rho + om * math.log(2.0) + (4.0 * c0 / 4.0) * (1.0 + c0 / (2.0 * om * 4.0))
    expect = om * math.log(0.25) + z1
    assert rep.values["upper_bound"] == pytest.approx(expect, rel=1e-12)
    assert rep.values["upper_bound"] == pytest.approx(2.9453, abs=1e-3)
    assert rep.values["z1"] == pytest.approx(z1, rel=1e-12)
    assert rep.admissible["upper_bound"] is True
    assert rep.context["variant"] == "statement"


def test_upper_large_proof_pinned():
    rep = upper_bound_smallest_large(C2, 4.0, 2.0 * math.pi, variant="proof")
    assert rep.values["upper_bound"] == pytest.approx(3.7305, abs=1e-3)
    # proof inner term is N times the statement's and never smaller
    for r in (2.0, 4.0, 8.0, 32.0):
        st = upper_bound_smallest_large(C2, r, 2.0 * math.pi).values["upper_bound"]
        pf = upper_bound_smallest_large(C2, r, 2.0 * math.pi, variant="proof").values[
            "upper_bound"
        ]
        assert pf >= st - 1e-14


def test_upper_large_corrected_variant():
    c0 = 2.0 * math.pi
    rep = upper_bound_smallest_large(C2, 8.0, c0, variant="corrected")
    om, rho = C2.sphere_measure, C2.zero_order_shift
    expect = (
        2.0 * math.log(1.0 / 8.0)
        + rho
        + 2.0 * math.log(2.0)
        + (4.0 * c0 / 8.0) * (1.0 + 2.0 * c0 / (2.0 * om * 8.0))
    )
    assert rep.values["upper_bound"] == pytest.approx(expect, rel=1e-12)
    # at R=2 the leading terms cancel identically against the proof variant
    pf = upper_bound_smallest_large(C2, 2.0, c0, variant="proof").values["upper_bound"]
    co = upper_bound_smallest_large(C2, 2.0, c0, variant="corrected").values["upper_bound"]
    assert co == pytest.approx(pf, rel=1e-14)
    # dilation consistency: doubling the radius drops the corrected bound by
    # 2 ln 2 up to the decaying collar term
    b8 = upper_bound_smallest_large(C2, 8.0, c0, variant="corrected").values["upper_bound"]
    b16 = upper_bound_smallest_large(C2, 16.0, c0, variant="corrected").values["upper_bound"]
    assert b8 - b16 == pytest.approx(2.0 * math.log(2.0), abs=2.0)


def test_upper_large_admissibility():
    assert upper_bound_smallest_large(C2, 1.5, 2.0 * math.pi).admissible["upper_bound"] is False
    assert upper_bound_smallest_large(C2, 2.0, 2.0 * math.pi).admissible["upper_bound"] is True
    # a large foliation constant pushes the radius threshold past 2
    rep = upper_bound_smallest_large(C2, 2.5, 10.0 * math.pi * 2.0)
    assert rep.context["radius_threshold"] > 2.0
    with pytest.raises(ValueError):
        upper_bound_smallest_large(C2, 4.0, 0.5)
    with pytest.raises(ValueError):
        upper_bound_smallest_large(C2, 4.0, 2.0 * math.pi, variant="hybrid")
    with pytest.raises(ValueError):
        upper_bound_smallest_large(C2, -4.0, 2.0 * math.pi)


def test_upper_large_report_serializes_numpy_c0():
    # a numpy c0 must not turn the admissibility flag into an unserializable np.bool_
    rep = upper_bound_smallest_large(C2, 4.0, np.float64(20.0))
    assert rep.admissible["upper_bound"] is True
    payload = json.loads(json.dumps(dataclasses.asdict(rep)))
    assert payload["admissible"]["upper_bound"] is True


def test_upper_small_pinned():
    c0 = 4.0 * math.pi
    rep = upper_bound_smallest_small(C2, 0.1, c0)
    c2_const = 81.0 * 2.0 * c0 / (2.0 * C2.sphere_measure) + 4.0 * math.log(2.0)
    assert rep.values["c2"] == pytest.approx(c2_const, rel=1e-12)
    assert rep.values["c2"] == pytest.approx(162.0 + 4.0 * math.log(2.0), rel=1e-12)
    expect = 4.0 * math.log(10.0) + 2.0 * c2_const + C2.zero_order_shift
    assert rep.values["upper_bound"] == pytest.approx(expect, rel=1e-12)
    assert rep.values["upper_bound"] == pytest.approx(338.99, abs=1e-2)
    assert upper_bound_smallest_small(C2, 0.2, c0).values["upper_bound"] == pytest.approx(
        336.21, abs=1e-2
    )
    assert rep.values["sigma"] == pytest.approx(0.025, rel=1e-12)


def test_upper_small_domain():
    with pytest.raises(ValueError):
        upper_bound_smallest_small(C2, 0.3, 4.0 * math.pi)
    with pytest.raises(ValueError):
        upper_bound_smallest_small(C2, 0.25, 4.0 * math.pi)
    with pytest.raises(ValueError):
        upper_bound_smallest_small(C2, 0.0, 4.0 * math.pi)


def test_upper_sum_pinned():
    rep = upper_bound_sum(C1, 2.0, 30)
    p, om = C1.counting_coefficient, C1.sphere_measure
    expect = 60.0 * (
        math.log(31.0)
        + math.log(p / 2.0)
        + om / math.sqrt(2.0) * math.log(math.log(p * 31.0 / 2.0))
    )
    assert rep.values["upper_bound"] == pytest.approx(expect, rel=1e-12)
    assert rep.values["upper_bound"] == pytest.approx(403.82, abs=5e-2)
    proof = upper_bound_sum(C1, 2.0, 30, variant="proof")
    assert proof.values["upper_bound"] > rep.values["upper_bound"]
    assert proof.values["upper_bound"] == pytest.approx(598.428, abs=1e-2)


def test_upper_sum_dominates_lower_sum():
    for k in (27, 30, 100, 500):
        up = upper_bound_sum(C1, 2.0, k).values["upper_bound"]
        low = lower_bound_sum(C1, 2.0, k).values["refined"]
        assert up >= low


def test_upper_sum_variant_ordering_sampled():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(1, 3))
        consts = dimension_constants(n)
        vol = float(rng.uniform(0.05, 20.0))
        k = int(rng.integers(2, 500))
        st = upper_bound_sum(consts, vol, k)
        pf = upper_bound_sum(consts, vol, k, variant="proof")
        if "upper_bound" in st.values and "upper_bound" in pf.values:
            assert pf.values["upper_bound"] >= st.values["upper_bound"] - 1e-12


def test_upper_sum_admissibility():
    assert upper_bound_sum(C1, 2.0, 1).admissible["upper_bound"] is False
    assert upper_bound_sum(C1, 2.0, 2).admissible["upper_bound"] is True
    # huge volume starves the iterated logarithm: no value at all
    rep = upper_bound_sum(C1, 1000.0, 1)
    assert rep.admissible["upper_bound"] is False
    assert "upper_bound" not in rep.values
    with pytest.raises(ValueError):
        upper_bound_sum(C1, 2.0, 30, variant="sketch")


def test_lower_vs_upper_coherence_on_radius_grid():
    # volume bound for the enclosing ball vs inradius bound: both sandwich
    # the same eigenvalue, so the ordering is forced
    for r in (2.0, 4.0, 8.0, 16.0, 32.0):
        vol = math.pi * (2.0 * r) ** 2
        low = lower_bound_smallest(C2, vol).values["volume_term"]
        up = upper_bound_smallest_large(C2, r, 2.0 * math.pi).values["upper_bound"]
        assert low <= up


# ------------------------------------------------- moment inequalities


def test_moment_equality_cases():
    # the three extremal profiles pin each inequality in turn
    rep = log_moment_check(C1, BallProfile(radius=1.0, height=1.0))
    assert rep.values["log_moment"] == pytest.approx(-4.0, rel=1e-12)
    assert abs(rep.values["slack_lower_moment"]) <= 1e-10

    rep = log_moment_check(C1, BallProfile(radius=E, height=1.0))
    assert rep.values["mass"] == pytest.approx(2.0 * E, rel=1e-12)
    assert abs(rep.values["log_moment"]) <= 1e-10
    assert abs(rep.values["slack_mass_affine"]) <= 1e-10

    rep = log_moment_check(C1, BallProfile(radius=E**2, height=1.0))
    assert rep.values["log_moment"] == pytest.approx(4.0 * E**2, rel=1e-12)
    assert rep.admissible["slack_mass_loglog"] is True
    assert abs(rep.values["slack_mass_loglog"]) <= 1e-10


def test_moment_random_profiles():
    rng = np.random.default_rng(101)
    for i in range(500):
        consts = C1 if i % 2 == 0 else C2
        profile = BallProfile(
            radius=float(rng.uniform(0.1, 10.0)),
            height=float(rng.uniform(1e-6, 5.0)),
        )
        rep = log_moment_check(consts, profile)
        assert rep.values["slack_lower_moment"] >= -1e-10
        assert rep.values["slack_mass_affine"] >= -1e-10
        if rep.admissible["slack_mass_loglog"]:
            assert rep.values["slack_mass_loglog"] >= -1e-10


def test_moment_profile_validation():
    with pytest.raises(ValueError):
        BallProfile(radius=0.0, height=1.0)
    with pytest.raises(ValueError):
        BallProfile(radius=1.0, height=-2.0)
    with pytest.raises(ValueError):
        BallProfile(radius=math.nan, height=1.0)
    for radius, height in ((math.inf, 1.0), (1.0, math.inf), (math.inf, math.inf),
                           (1.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            BallProfile(radius=radius, height=height)


# ------------------------------------------------------ envelope trends


def test_counting_envelope_trends():
    s = spectrum_from_values(2.0 * np.log(np.arange(1, 1001)))
    rep = counting_envelope(s, 0.25, C1)
    assert rep.verdicts["upper_decays"] is True
    assert rep.verdicts["lower_grows"] is True


def test_counting_envelope_critical_delta():
    # delta = 0 samples the critical exponent; the products stay bounded
    s = spectrum_from_values(2.0 * np.log(np.arange(1, 1001)))
    rep = counting_envelope(s, 0.0, C1)
    for v in rep.values.values():
        assert 0.1 <= v <= 3.0


def test_counting_envelope_validation():
    short = spectrum_from_values(2.0 * np.log(np.arange(1, 9)))
    with pytest.raises(ValueError):
        counting_envelope(short, 0.25, C1)
    s = spectrum_from_values(2.0 * np.log(np.arange(1, 101)))
    with pytest.raises(ValueError):
        counting_envelope(s, -0.1, C1)


# ------------------------------------------------------- serialization


def test_report_serializes():
    rep = lower_bound_sum(C1, 2.0, 30)
    assert isinstance(rep, BoundReport)
    # the path the CLI's bounds command takes
    payload = json.loads(json.dumps(dataclasses.asdict(rep)))
    assert set(payload) == {"context", "values", "admissible", "verdicts"}
    assert payload["values"]["refined"] == rep.values["refined"]
    assert payload["admissible"]["refined"] is True
