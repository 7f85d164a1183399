"""Domains (1D intervals, 2D boxes and balls) and their boundary-layer geometry.

The spectral bounds need a small amount of exact geometry: signed distance
to the boundary, the foliation regularity constant c0 (the boundary measure
over the inradius, doubled below inradius 2), and the clamp ramp test
function of a boundary collar.  All of it is closed form for the three
supported shapes.

Point queries take an (n, N) array of n points in dimension N and return
one value per point.  Sign convention: ``signed_distance`` is positive
inside the domain, negative outside, zero on the boundary, and 1-Lipschitz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

__all__ = ["Domain", "TestFunctionSpec", "interval", "box", "ball"]

@dataclass(frozen=True)
class TestFunctionSpec:
    """Collar width of the ramp w(x) = clip(signed_distance(x)/sigma, 0, 1)."""

    sigma: float

    def __post_init__(self) -> None:
        if not (self.sigma > 0.0) or not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma!r}")


@dataclass(frozen=True)
class Domain:
    """An interval (dimension 1), or an axis-aligned box or a ball (dimension 2).

    Use the module-level constructors :func:`interval`, :func:`box`,
    :func:`ball` rather than instantiating directly.
    """

    kind: Literal["interval", "box", "ball"]
    lo: tuple[float, ...]  # bounding-box corner (min per axis)
    hi: tuple[float, ...]  # bounding-box corner (max per axis)
    radius: float = 0.0  # balls only

    # -- basic measures ------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def center(self) -> np.ndarray:
        return (np.asarray(self.lo) + np.asarray(self.hi)) / 2.0

    @property
    def sides(self) -> np.ndarray:
        return np.asarray(self.hi) - np.asarray(self.lo)

    @property
    def volume(self) -> float:
        if self.kind == "ball":
            return math.pi * self.radius**2
        return float(np.prod(self.sides))

    @property
    def inradius(self) -> float:
        if self.kind == "ball":
            return self.radius
        return float(np.min(self.sides)) / 2.0

    @property
    def circumradius(self) -> float:
        if self.kind == "ball":
            return self.radius
        return float(np.linalg.norm(self.sides / 2.0))

    @property
    def sandwiched(self) -> bool:
        """Whether the domain lies between the concentric balls of radii R and 2R."""
        return self.circumradius <= 2.0 * self.inradius + 1e-12

    @property
    def boundary_measure(self) -> float:
        """H^{N-1} of the boundary (count of endpoints in 1D)."""
        if self.dim == 1:
            return 2.0
        if self.kind == "ball":
            return 2.0 * math.pi * self.radius
        return 2.0 * float(np.sum(self.sides))

    # -- point queries ---------------------------------------------------

    def signed_distance(self, x: np.ndarray) -> np.ndarray:
        """Signed distance to the boundary of each row of an (n, N) point
        array: positive inside, 1-Lipschitz."""
        pts = np.asarray(x, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"points must be an (n, {self.dim}) array, got shape {pts.shape}")
        if self.kind == "ball":
            return self.radius - np.linalg.norm(pts - self.center, axis=1)
        margin_lo = pts - np.asarray(self.lo)
        margin_hi = np.asarray(self.hi) - pts
        inside = np.minimum(margin_lo, margin_hi).min(axis=1)
        excess = np.maximum(-np.minimum(margin_lo, margin_hi), 0.0)
        outside = np.linalg.norm(excess, axis=1)
        return np.where(outside > 0.0, -outside, inside)

    # -- foliation regularity constant ------------------------------------

    def minimal_c0(self) -> float | None:
        """Least c0 >= 1 with c0^{-1} R^{N-1} <= sheet measure <= c0 R^{N-1}.

        R is the inradius, and a sheet is a level set of the signed distance
        at depth nu inside the domain (inner sheet) or outside it (outer
        sheet).  From R = 2 on (the large-domain regime) the window is the
        inner sheet for nu in [0, 1/2), and c0 = |dOmega| / R.  Below it
        (the small regime) the window is the sum of both sheets for
        |nu| <= R/4, counting the boundary once at nu = 0, and
        c0 = 2 |dOmega| / R.  None where c0 is not defined: in dimension 1
        and for domains not sandwiched between the concentric balls of radii
        R and 2R.

        Proof.  On each window every sheet measure is linear in nu: a
        ball's sheets are the circles of radii R - nu and R + nu, and a box's
        inner sheet loses 8 nu of the perimeter while its outer sheet gains
        2 pi nu, a quarter circle per corner.  So each measure has its
        extremes at the ends of the window.  In the large regime the inner
        sheet falls from |dOmega| at nu = 0 to |dOmega| - pi (ball) or
        |dOmega| - 4 (box) at nu = 1/2.  As |dOmega| >= 2 pi R (ball) or 8R
        (box), it stays above R when R >= 2, and c0 = |dOmega| / R.  In the
        small regime the sum of the inner and outer limits is 2 |dOmega| at
        nu = 0.  At nu = R/4 that sum is 4 pi R = 2 |dOmega| for a ball, and
        2 |dOmega| - a (1 - pi/4) for an a x b box with a <= b, which is
        smaller.  No measure on the window falls below |dOmega| > R, so
        c0 = 2 |dOmega| / R.
        """
        if self.dim < 2 or not self.sandwiched:
            return None
        if self.inradius >= 2.0:
            return self.boundary_measure / self.inradius
        return 2.0 * self.boundary_measure / self.inradius

    # -- ramp test function -----------------------------------------------

    def test_function(self, spec: TestFunctionSpec, x: np.ndarray) -> np.ndarray:
        """Evaluate the collar ramp w(x) = clip(signed_distance(x)/sigma, 0, 1)
        at each row of an (n, N) point array.

        Vanishes outside the domain, equals 1 at depth >= sigma, and is
        (1/sigma)-Lipschitz.
        """
        return np.clip(self.signed_distance(x) / spec.sigma, 0.0, 1.0)


def _check_finite(name: str, *vals: float) -> None:
    for v in vals:
        if not math.isfinite(v):
            raise ValueError(f"{name} parameters must be finite")


def interval(a: float, b: float) -> Domain:
    """Open interval (a, b)."""
    _check_finite("interval", a, b)
    if not b > a:
        raise ValueError(f"interval needs b > a, got ({a!r}, {b!r})")
    return Domain(kind="interval", lo=(float(a),), hi=(float(b),))


def box(corner: tuple[float, float], sides: tuple[float, float]) -> Domain:
    """Axis-aligned open rectangle given by min corner and side lengths."""
    c = tuple(float(v) for v in corner)
    s = tuple(float(v) for v in sides)
    if len(c) != 2 or len(s) != 2:
        raise ValueError("box takes a 2D corner and 2 side lengths")
    _check_finite("box", *c, *s)
    if min(s) <= 0.0:
        raise ValueError(f"box sides must be positive, got {s!r}")
    return Domain(kind="box", lo=c, hi=(c[0] + s[0], c[1] + s[1]))


def ball(center: tuple[float, float], radius: float) -> Domain:
    """Open disc of the given 2D center and radius (a 1D ball is an interval)."""
    ctr = np.asarray(center, dtype=float)
    if ctr.shape != (2,):
        raise ValueError(f"ball center must be a 2D point, got {center!r}")
    _check_finite("ball", *ctr.tolist(), radius)
    if not radius > 0.0:
        raise ValueError(f"ball radius must be positive, got {radius!r}")
    r = float(radius)
    return Domain(kind="ball", lo=tuple((ctr - r).tolist()), hi=tuple((ctr + r).tolist()), radius=r)
