"""Domains (intervals, boxes, balls in 1D/2D) and their boundary-layer geometry.

The spectral bounds need a small amount of exact geometry: signed distance
to the boundary, the measure of the level sets of that distance (the
"foliation" sheets), collar volumes, and ramp test functions supported in a
boundary collar.  All of it is closed form for the three supported shapes.

Sign convention: ``signed_distance`` is positive inside the domain,
negative outside, zero on the boundary, and 1-Lipschitz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

__all__ = ["Domain", "TestFunctionSpec", "interval", "box", "ball"]

Side = Literal["inner", "outer", "both"]
Regime = Literal["large", "small"]


@dataclass(frozen=True)
class TestFunctionSpec:
    """Recipe for a boundary-collar ramp function w(x) = profile(rho(x)/sigma).

    ``profile`` is either ``"clamp"`` (piecewise linear, slope bound 1) or
    ``"smoothstep"`` (C^1 cubic, slope bound 3/2).  The reference boundary
    is the domain's own boundary, or the boundary of the concentric inner
    copy holding ``inner_fraction`` of the volume.
    """

    sigma: float
    profile: Literal["clamp", "smoothstep"] = "clamp"
    reference_boundary: Literal["domain", "inner_subdomain"] = "domain"
    inner_fraction: float = 0.75

    def __post_init__(self) -> None:
        if not (self.sigma > 0.0) or not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma!r}")
        if self.profile not in ("clamp", "smoothstep"):
            raise ValueError(f"unknown profile {self.profile!r}")
        if self.reference_boundary not in ("domain", "inner_subdomain"):
            raise ValueError(f"unknown reference boundary {self.reference_boundary!r}")
        if not (0.0 < self.inner_fraction < 1.0):
            raise ValueError(f"inner_fraction must lie in (0, 1), got {self.inner_fraction!r}")

    @property
    def slope_bound(self) -> float:
        """Bound on |profile'|; the ramp is (slope_bound/sigma)-Lipschitz."""
        return 1.0 if self.profile == "clamp" else 1.5

    def apply(self, t):
        """Evaluate the profile at t = rho/sigma (vectorized)."""
        t = np.asarray(t, dtype=float)
        if self.profile == "clamp":
            return np.clip(t, 0.0, 1.0)
        s = np.clip(t, 0.0, 1.0)
        return s * s * (3.0 - 2.0 * s)


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

    def contains(self, x):
        d = self.signed_distance(x)
        return d > 0.0

    # -- foliation by the signed distance --------------------------------

    def foliation_measure(self, nu: float, side: Side = "inner") -> float:
        """H^{N-1} of the level set(s) at |signed distance| = nu.

        ``inner`` is the sheet inside the domain, ``outer`` the one
        outside, ``both`` their union.  At nu = 0 all sides coincide with
        the boundary and its measure is returned once.
        """
        if not (nu >= 0.0) or not math.isfinite(nu):
            raise ValueError(f"nu must be >= 0, got {nu!r}")
        if side not in ("inner", "outer", "both"):
            raise ValueError(f"unknown side {side!r}")
        if nu == 0.0:
            return self.boundary_measure
        total = 0.0
        if side in ("inner", "both"):
            total += self._inner_sheet(nu)
        if side in ("outer", "both"):
            total += self._outer_sheet(nu)
        return total

    def _inner_sheet(self, nu: float) -> float:
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
        if self.dim == 1:
            return 2.0
        if self.kind == "ball":
            return 2.0 * math.pi * (self.radius + nu)
        return 2.0 * float(np.sum(self.sides)) + 2.0 * math.pi * nu

    def collar_volume(self, sigma: float) -> float:
        """Volume of the inner collar {0 < signed distance < sigma}."""
        if not (sigma >= 0.0) or not math.isfinite(sigma):
            raise ValueError(f"sigma must be >= 0, got {sigma!r}")
        if sigma == 0.0:
            return 0.0
        if self.kind == "ball" and self.dim == 2:
            core = max(self.radius - sigma, 0.0)
            return math.pi * (self.radius**2 - core**2)
        core_sides = np.maximum(self.sides - 2.0 * sigma, 0.0)
        return float(np.prod(self.sides) - np.prod(core_sides))

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
        rin = self.inradius
        if self.circumradius > 2.0 * rin + 1e-12:
            raise ValueError("domain is not sandwiched between balls of radii R and 2R")
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

    # -- shrunken copies and ramp functions -------------------------------

    def inner_subdomain(self, fraction: float) -> "Domain":
        """Concentric copy of the same kind holding exactly ``fraction`` of the volume."""
        if not (0.0 < fraction < 1.0):
            raise ValueError(f"fraction must lie in (0, 1), got {fraction!r}")
        scale = fraction ** (1.0 / self.dim)
        c = self.center
        if self.kind == "ball":
            r = self.radius * scale
            return Domain(
                kind="ball",
                dim=self.dim,
                lo=tuple(c - r),
                hi=tuple(c + r),
                radius=r,
            )
        half = self.sides / 2.0 * scale
        return Domain(kind=self.kind, dim=self.dim, lo=tuple(c - half), hi=tuple(c + half))

    def _reference(self, spec: TestFunctionSpec) -> "Domain":
        if spec.reference_boundary == "domain":
            return self
        return self.inner_subdomain(spec.inner_fraction)

    def test_function(self, spec: TestFunctionSpec, x):
        """Evaluate the collar ramp w(x) = profile(signed_distance(x)/sigma).

        Vanishes outside the reference region, equals 1 at depth >= sigma,
        and is (slope_bound/sigma)-Lipschitz.
        """
        ref = self._reference(spec)
        rho = np.asarray(ref.signed_distance(x), dtype=float)
        return spec.apply(rho / spec.sigma)

    def test_function_mass(self, spec: TestFunctionSpec) -> float:
        """Exact L2 mass integral of the squared collar ramp.

        Computed by the coarea formula: the deep core contributes its
        volume, the collar contributes a 1D integral of
        profile(nu/sigma)^2 against the inner sheet measure.
        """
        ref = self._reference(spec)
        sig = min(spec.sigma, ref.inradius)
        core = ref.volume - ref.collar_volume(sig)
        g, w = np.polynomial.legendre.leggauss(64)
        nus = 0.5 * sig * (g + 1.0)
        wts = 0.5 * sig * w
        sheet = np.array([ref._inner_sheet(nu) for nu in nus])
        prof = np.asarray(spec.apply(nus / spec.sigma))
        return core + float(np.sum(wts * prof**2 * sheet))

    def sigma_for_half_mass(self, profile: str = "clamp") -> float:
        """Largest collar width sigma <= inradius with ramp mass >= volume/2.

        Found by decreasing bisection starting from the inradius; the mass
        is a decreasing function of sigma.
        """
        target = self.volume / 2.0

        def mass(s: float) -> float:
            return self.test_function_mass(TestFunctionSpec(sigma=s, profile=profile))

        hi = self.inradius
        if mass(hi) >= target:
            return hi
        lo = hi * 1e-12
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mass(mid) >= target:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-13 * self.inradius:
                break
        return lo


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
        lo=tuple(ctr - r),
        hi=tuple(ctr + r),
        radius=r,
    )
