"""Domains (intervals, boxes, balls in 1D/2D) and their boundary-layer geometry.

The spectral bounds need a small amount of exact geometry: signed distance
to the boundary, the measure of the level sets of that distance (the
"foliation" sheets), the foliation regularity constant, and the clamp ramp
test function of a boundary collar.  All of it is closed form for the
three supported shapes.

Sign convention: ``signed_distance`` is positive inside the domain,
negative outside, zero on the boundary, and 1-Lipschitz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

__all__ = ["Domain", "TestFunctionSpec", "interval", "box", "ball"]

Regime = Literal["large", "small"]


@dataclass(frozen=True)
class TestFunctionSpec:
    """Collar width of the ramp w(x) = clip(signed_distance(x)/sigma, 0, 1)."""

    sigma: float

    def __post_init__(self) -> None:
        if not (self.sigma > 0.0) or not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma!r}")


@dataclass(frozen=True)
class Domain:
    """An interval, an axis-aligned box, or a ball, in dimension 1 or 2.

    Use the module-level constructors :func:`interval`, :func:`box`,
    :func:`ball` rather than instantiating directly.
    """

    kind: Literal["interval", "box", "ball"]
    dim: int
    lo: tuple[float, ...]  # bounding-box corner (min per axis)
    hi: tuple[float, ...]  # bounding-box corner (max per axis)
    radius: float = 0.0  # balls only

    # -- basic measures ------------------------------------------------

    @property
    def center(self) -> np.ndarray:
        return (np.asarray(self.lo) + np.asarray(self.hi)) / 2.0

    @property
    def sides(self) -> np.ndarray:
        return np.asarray(self.hi) - np.asarray(self.lo)

    @property
    def volume(self) -> float:
        if self.kind == "ball" and self.dim == 2:
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

    def _points(self, x) -> tuple[np.ndarray, tuple]:
        pts = np.asarray(x, dtype=float)
        if self.dim == 1 and (pts.ndim == 0 or pts.shape[-1] != 1):
            pts = pts[..., np.newaxis]
        if pts.shape[-1] != self.dim:
            raise ValueError(f"points must have final axis {self.dim}, got shape {pts.shape}")
        return pts.reshape(-1, self.dim), pts.shape[:-1]

    def signed_distance(self, x):
        """Signed distance to the boundary: positive inside, 1-Lipschitz."""
        pts, shape = self._points(x)
        if self.kind == "ball":
            rho = self.radius - np.linalg.norm(pts - self.center, axis=1)
        else:
            margin_lo = pts - np.asarray(self.lo)
            margin_hi = np.asarray(self.hi) - pts
            inside = np.minimum(margin_lo, margin_hi).min(axis=1)
            excess = np.maximum(-np.minimum(margin_lo, margin_hi), 0.0)
            outside = np.linalg.norm(excess, axis=1)
            rho = np.where(outside > 0.0, -outside, inside)
        return rho.reshape(shape) if shape else float(rho[0])

    # -- foliation by the signed distance --------------------------------

    def _inner_sheet(self, nu: float) -> float:
        """H^{N-1} of the level set at signed distance nu >= 0 (at 0, the limit from inside)."""
        rin = self.inradius
        if self.dim == 1:
            if nu < rin:
                return 2.0
            return 1.0 if nu == rin else 0.0
        if self.kind == "ball":
            return 2.0 * math.pi * (self.radius - nu) if nu < self.radius else 0.0
        s1, s2 = float(self.sides[0]), float(self.sides[1])
        if nu < rin:
            return 2.0 * (s1 - 2.0 * nu) + 2.0 * (s2 - 2.0 * nu)
        if nu == rin:
            return abs(s1 - s2)
        return 0.0

    def _outer_sheet(self, nu: float) -> float:
        """H^{N-1} of the level set at signed distance -nu <= 0 (at 0, the limit from outside)."""
        if self.dim == 1:
            return 2.0
        if self.kind == "ball":
            return 2.0 * math.pi * (self.radius + nu)
        return 2.0 * float(np.sum(self.sides)) + 2.0 * math.pi * nu

    # -- foliation regularity constant ------------------------------------

    def minimal_c0(self, regime: Regime) -> float:
        """Least c0 >= 1 with c0^{-1} R^{N-1} <= sheet measure <= c0 R^{N-1}.

        ``regime="large"`` uses the inner sheet for nu in [0, 1/2);
        ``regime="small"`` uses both sheets for |nu| <= R/4, counting the
        boundary once at nu = 0.  R is the inradius about the center.
        Only defined for dimension >= 2, and only for domains sandwiched
        between the concentric balls of radii R and 2R.

        The value is exact, not sampled: on the window every sheet measure
        is linear in nu, so its extremes are the boundary measure (nu = 0),
        the limit nu -> 0+, and the far end of the window.
        """
        if self.dim < 2:
            raise ValueError("the foliation constant is only defined in dimension >= 2")
        if regime not in ("large", "small"):
            raise ValueError(f"unknown regime {regime!r}")
        if not self.sandwiched:
            raise ValueError("domain is not sandwiched between balls of radii R and 2R")
        rin = self.inradius
        if regime == "large":
            if rin <= 0.5:
                raise ValueError("inradius must exceed 1/2 for the large-domain regime")
            ends = [self._inner_sheet(nu) for nu in (0.0, 0.5)]
        else:
            ends = [self._inner_sheet(nu) + self._outer_sheet(nu) for nu in (0.0, rin / 4.0)]
        scale = rin ** (self.dim - 1)
        c0 = 1.0
        for m in (self.boundary_measure, *ends):
            if not m > 0.0:
                raise ValueError("foliation sheet degenerates on the admissible range")
            c0 = max(c0, m / scale, scale / m)
        return c0

    # -- ramp test function -----------------------------------------------

    def test_function(self, spec: TestFunctionSpec, x):
        """Evaluate the collar ramp w(x) = clip(signed_distance(x)/sigma, 0, 1).

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
    return Domain(kind="interval", dim=1, lo=(float(a),), hi=(float(b),))


def box(corner: tuple[float, float], sides: tuple[float, float]) -> Domain:
    """Axis-aligned open rectangle given by min corner and side lengths."""
    c = tuple(float(v) for v in corner)
    s = tuple(float(v) for v in sides)
    if len(c) != 2 or len(s) != 2:
        raise ValueError("box takes a 2D corner and 2 side lengths")
    _check_finite("box", *c, *s)
    if min(s) <= 0.0:
        raise ValueError(f"box sides must be positive, got {s!r}")
    return Domain(kind="box", dim=2, lo=c, hi=(c[0] + s[0], c[1] + s[1]))


def ball(center, radius: float) -> Domain:
    """Open ball; dimension 1 or 2 read off from the center point."""
    ctr = np.atleast_1d(np.asarray(center, dtype=float))
    if ctr.ndim != 1 or ctr.size not in (1, 2):
        raise ValueError("ball center must be a point in dimension 1 or 2")
    _check_finite("ball", *ctr.tolist(), radius)
    if not radius > 0.0:
        raise ValueError(f"ball radius must be positive, got {radius!r}")
    r = float(radius)
    return Domain(
        kind="ball",
        dim=ctr.size,
        lo=tuple((ctr - r).tolist()),
        hi=tuple((ctr + r).tolist()),
        radius=r,
    )
