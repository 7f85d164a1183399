"""Closed-form spectral bounds with explicit admissibility flags.

Every formula here is elementary arithmetic in the dimension constants; the
value is computed unconditionally where defined, and an ``admissible`` flag
records whether the hypothesis of the corresponding estimate holds, so a
report never silently presents an out-of-range number as a bound.

Where a published estimate and the final line of its derivation disagree by
a constant factor, both versions are implemented and selected by
``variant`` ("statement" is the default, "proof" the derivation's form);
reports always name the variant used.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .constants import DimensionConstants
from .spectrum import Spectrum, envelope_samples

__all__ = [
    "BoundReport",
    "BallProfile",
    "lower_bound_smallest",
    "lower_bound_sum",
    "lower_bound_eigenvalue",
    "upper_bound_smallest_large",
    "upper_bound_smallest_small",
    "upper_bound_sum",
    "log_moment_check",
    "counting_envelope",
]

E = math.e


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Evaluated bound values plus per-part admissibility and optional verdicts."""

    context: dict
    values: dict
    admissible: dict
    verdicts: dict = field(default_factory=dict)


def _check_volume(volume: float, k: int = 1) -> None:
    if not (volume > 0.0) or not math.isfinite(volume):
        raise ValueError(f"volume must be positive and finite, got {volume!r}")
    if not (isinstance(k, numbers.Integral) and k >= 1):
        raise ValueError(f"k must be a positive integer, got {k!r}")


def lower_bound_smallest(constants: DimensionConstants, volume: float) -> BoundReport:
    """Lower bounds for the smallest eigenvalue from the domain volume alone.

    The volume term -d_N*|domain| always applies; the positivity flag and
    the refined log-log value kick in below explicit volume thresholds.
    """
    _check_volume(volume)
    n, d = constants.dim, constants.volume_coefficient
    positivity_threshold = 2.0 / (E * n * d)
    refined_threshold = 2.0 / (math.exp(E + 1.0) * n * d)
    values = {"volume_term": -d * volume}
    admissible = {"volume_term": True, "positivity": volume < positivity_threshold}
    admissible["refined"] = volume <= refined_threshold
    if admissible["refined"]:
        values["refined"] = _refined_per_eigenvalue(constants, volume, 1)
    return BoundReport(
        context={
            "dim": n,
            "volume": volume,
            "positivity_threshold": positivity_threshold,
            "refined_threshold": refined_threshold,
        },
        values=values,
        admissible=admissible,
    )


def _refined_per_eigenvalue(constants: DimensionConstants, volume: float, k: int) -> float:
    """Shared core (2/N)(ln k + ln(2/(e N d |domain|)) - ln ln(2k/(e N d |domain|)))."""
    n, d = constants.dim, constants.volume_coefficient
    base = E * n * d * volume
    return (2.0 / n) * (
        math.log(k) + math.log(2.0 / base) - math.log(math.log(2.0 * k / base))
    )


def _sum_context(constants: DimensionConstants, volume: float, k: int) -> dict:
    n, d = constants.dim, constants.volume_coefficient
    positivity_threshold = E * n * d * volume / 2.0
    return {
        "dim": n,
        "volume": volume,
        "k": k,
        "positivity_threshold": positivity_threshold,
        "min_positive_index": max(1, math.ceil(positivity_threshold - 1e-12)),
        "refined_threshold": math.exp(E + 1.0) * n * d * volume / 2.0,
    }


def lower_bound_sum(constants: DimensionConstants, volume: float, k: int) -> BoundReport:
    """Lower bounds for the sum of the first k eigenvalues.

    The k-independent volume term holds for every k; the refined value (the
    same per-eigenvalue expression times k, so the two operations agree
    exactly) needs k at or above the log-log threshold.
    """
    _check_volume(volume, k)
    ctx = _sum_context(constants, volume, k)
    values = {"volume_term": -constants.volume_coefficient * volume}
    admissible = {
        "volume_term": True,
        "positivity": k > ctx["positivity_threshold"],
        "refined": k >= ctx["refined_threshold"],
    }
    if admissible["refined"]:
        values["refined"] = k * _refined_per_eigenvalue(constants, volume, k)
    return BoundReport(context=ctx, values=values, admissible=admissible)


def lower_bound_eigenvalue(constants: DimensionConstants, volume: float, k: int) -> BoundReport:
    """Per-eigenvalue version of the sum bound (sum divided through by k)."""
    _check_volume(volume, k)
    ctx = _sum_context(constants, volume, k)
    values = {}
    admissible = {
        "positivity": k >= ctx["positivity_threshold"],
        "refined": k >= ctx["refined_threshold"],
    }
    if admissible["refined"]:
        values["refined"] = _refined_per_eigenvalue(constants, volume, k)
    return BoundReport(context=ctx, values=values, admissible=admissible)


def _check_c0(c0: float) -> None:
    if not (c0 >= 1.0) or not math.isfinite(c0):
        raise ValueError(f"foliation constant must be >= 1, got {c0!r}")


def upper_bound_smallest_large(
    constants: DimensionConstants, radius: float, c0: float, variant: str = "statement"
) -> BoundReport:
    """Upper bound with leading log term for domains sandwiched at inradius R >= 2.

    ``statement`` evaluates omega*ln(1/R) + z1(R) with
    z1 = shift + omega*ln 2 + (4 c0/R)(1 + c0/(2 omega R)); ``proof``
    carries an extra factor N inside z1's second-order term (the
    derivation's final line) and is never smaller.  Both inherit a leading
    coefficient omega that is too steep for N >= 2: dilating a domain by R
    shifts every eigenvalue by exactly -2 ln R (the operator's symbol is
    2 ln of the frequency), so any true upper bound has slope -2, not
    -omega.  The derivation in fact produces -c_N*omega*ln(R/2) = -2 ln(R/2)
    before the kernel constant gets dropped; ``corrected`` restores it:
    2*ln(1/R) + shift + 2*ln 2 + (4 c0/R)(1 + N c0/(2 omega R)).
    """
    if not (radius > 0.0) or not math.isfinite(radius):
        raise ValueError(f"radius must be positive and finite, got {radius!r}")
    _check_c0(c0)
    if variant not in ("statement", "proof", "corrected"):
        raise ValueError(f"unknown variant {variant!r}")
    n, om, rho = constants.dim, constants.sphere_measure, constants.zero_order_shift
    inner = c0 / (2.0 * om * radius)
    if variant in ("proof", "corrected"):
        inner *= n
    slope = 2.0 if variant == "corrected" else om
    z1 = rho + slope * math.log(2.0) + (4.0 * c0 / radius) * (1.0 + inner)
    threshold = max(2.0, n * c0 / (2.0 * om))
    return BoundReport(
        context={
            "dim": n,
            "radius": radius,
            "c0": c0,
            "variant": variant,
            "radius_threshold": threshold,
        },
        values={"upper_bound": slope * math.log(1.0 / radius) + z1, "z1": z1},
        admissible={"upper_bound": bool(radius >= threshold)},
    )


def upper_bound_smallest_small(constants: DimensionConstants, radius: float, c0: float) -> BoundReport:
    """Upper bound 4*ln(1/R) + (R-independent constant) for inradius R < 1/4.

    The constant is realized through the derivation's explicit chain
    (2*c2 + shift with c2 = 81*N*c0/(2*omega) + 4 ln 2); the collar width
    sigma used there is reported alongside.
    """
    if not (0.0 < radius < 0.25):
        raise ValueError(f"radius must lie in (0, 1/4), got {radius!r}")
    _check_c0(c0)
    n, om, rho = constants.dim, constants.sphere_measure, constants.zero_order_shift
    c2 = 81.0 * n * c0 / (2.0 * om) + 4.0 * math.log(2.0)
    sigma = min(radius / 4.0, 2.0 * radius * om / (n * c0))
    return BoundReport(
        context={"dim": n, "radius": radius, "c0": c0},
        values={
            "upper_bound": 4.0 * math.log(1.0 / radius) + 2.0 * c2 + rho,
            "c2": c2,
            "sigma": sigma,
        },
        admissible={"upper_bound": True},
    )


def upper_bound_sum(
    constants: DimensionConstants, volume: float, k: int, variant: str = "statement"
) -> BoundReport:
    """Upper bound for the sum of the first k eigenvalues via the counting coefficient.

    The ``proof`` variant doubles the volume-ratio arguments and the
    square-root coefficient (a factor the derivation loses when halving a
    spectral density); it strictly dominates the statement variant.
    """
    _check_volume(volume, k)
    if variant not in ("statement", "proof"):
        raise ValueError(f"unknown variant {variant!r}")
    n, om, p, d = (
        constants.dim,
        constants.sphere_measure,
        constants.counting_coefficient,
        constants.volume_coefficient,
    )
    factor = 2.0 if variant == "proof" else 1.0
    ratio = factor * p / volume
    coef = factor * om / math.sqrt(volume)
    loglog_arg = factor * p * (k + 1.0) / volume
    admissible = {"upper_bound": k > E * n * d * volume / 2.0}
    values = {}
    if loglog_arg > 1.0:
        values["upper_bound"] = (2.0 * k / n) * (
            math.log(k + 1.0) + math.log(ratio) + coef * math.log(math.log(loglog_arg))
        )
    else:  # argument too small for the iterated logarithm
        admissible["upper_bound"] = False
    return BoundReport(
        context={"dim": n, "volume": volume, "k": k, "variant": variant},
        values=values,
        admissible=admissible,
    )


@dataclass(frozen=True)
class BallProfile:
    """Indicator-type density: constant ``height`` on the centered ball of ``radius``."""

    radius: float
    height: float

    def __post_init__(self) -> None:
        if not (0.0 < self.radius < math.inf and 0.0 < self.height < math.inf):
            raise ValueError("ball profile needs positive finite radius and height")


def log_moment_check(constants: DimensionConstants, profile: BallProfile) -> BoundReport:
    """Check the mass / log-moment inequalities for a bounded density.

    For f with 0 <= f <= M1, mass m = integral of f and M2 = 2*integral of
    ln|z| f(z): (i) M2 >= -(2*omega/N^2)*M1 always, (ii) m is controlled by
    an affine expression in M1 and M2, and (iii) once M2/M1 clears an
    explicit threshold, m is controlled by M2 over a log-log factor.  Slack
    of each inequality is reported (zero at the extremal ball profiles).
    """
    n, om = constants.dim, constants.sphere_measure
    a, m1 = profile.radius, profile.height
    shell = om * a**n / n
    mass = m1 * shell
    m2 = 2.0 * m1 * shell * (math.log(a) - 1.0 / n)
    values = {
        "mass": mass,
        "log_moment": m2,
        "slack_lower_moment": m2 + (2.0 * om / n**2) * m1,
        "slack_mass_affine": (E * om / n) * m1 + (n / 2.0) * m2 - mass,
    }
    admissible = {
        "slack_lower_moment": True,
        "slack_mass_affine": True,
        "slack_mass_loglog": m2 / m1 >= 2.0 * E**2 * om / n**2,
    }
    if admissible["slack_mass_loglog"]:
        x = n**2 * m2 / (2.0 * E * m1 * om)
        bound = (n * m2 / 2.0) / (math.log(x) - math.log(math.log(x)))
        values["slack_mass_loglog"] = bound - mass
    return BoundReport(
        context={"dim": n, "height": m1, "profile": type(profile).__name__},
        values=values,
        admissible=admissible,
    )


def counting_envelope(spectrum: Spectrum, delta: float, constants: DimensionConstants) -> BoundReport:
    """Trend of count(t)*exp(-(N/2 +- delta)t) over the computed range.

    Quartile means over [lambda_2, lambda_max] stand in for the limits: the
    upper exponent's product should decay (last quartile below the first),
    the lower exponent's should grow.  delta = 0 is allowed and simply
    samples the critical exponent from both sides.
    """
    if spectrum.k < 10:
        raise ValueError(f"envelope trends need at least 10 eigenvalues, got {spectrum.k}")
    _, upper, lower = envelope_samples(spectrum, constants.dim, delta)
    q = upper.size // 4
    vals = {
        "upper_first_quartile_mean": float(np.mean(upper[:q])),
        "upper_last_quartile_mean": float(np.mean(upper[-q:])),
        "lower_first_quartile_mean": float(np.mean(lower[:q])),
        "lower_last_quartile_mean": float(np.mean(lower[-q:])),
    }
    return BoundReport(
        context={"dim": constants.dim, "delta": delta, "k": spectrum.k},
        values=vals,
        admissible={"trend": True},
        verdicts={
            "upper_decays": vals["upper_last_quartile_mean"] < vals["upper_first_quartile_mean"],
            "lower_grows": vals["lower_last_quartile_mean"] > vals["lower_first_quartile_mean"],
        },
    )
