"""Root solvers for the two increasing maps behind the closed-form eigenvalue
bounds, together with their proven envelopes.

The two maps are

    g(r)  = r ln r                   on [1/e, oo),  target c >= -1/e
    gt(r) = r / (ln r - ln ln r)     on (e, oo),    target t > e^e/(e-1)

Each solver takes a 1-D array of targets (a number is solved as a
one-element array) and returns 1-D arrays.  Every target is solved by
bisection seeded with its envelope bracket and polished by safeguarded
Newton steps; an array runs one loop over all its targets, in which each
target takes exactly the steps it would take alone.  The
envelopes stored on the result are the tightest combination that is
actually valid for the given target:

* r <= 1 + c for every c >= -1/e (tangent at c = 0);
* r >= 1 + (e-1) c on [-1/e, 0] and r >= 1 + ((e-1)/e) c on [0, e]
  (chords of the concave inverse);
* for c >= e the chord switches sides, 1 + ((e-1)/e) c becomes an upper
  bound, and additionally c/ln c <= r <= c/(ln c - ln ln c);
* for the second map, t (ln t - ln ln t) <= r < t ln t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import NumericsError

__all__ = [
    "RootResult",
    "LOG_RATIO_THRESHOLD",
    "solve_r_ln_r",
    "solve_log_ratio",
]

_E = math.e
_MAX_ITER = 200

# Least admissible target of the log-ratio solver: e^e / (e - 1).
LOG_RATIO_THRESHOLD = math.exp(_E) / (_E - 1.0)


@dataclass(frozen=True)
class RootResult:
    """Roots of one of the two maps, with residuals and envelopes.

    ``residual`` is map(root) - target.  ``envelope_low``/``envelope_high``
    bracket the root by the closed-form bounds valid at this target, and
    ``steps`` counts the solver's steps for it.  Every field is a 1-D array
    with one entry per target; ``iterations`` is an int: the steps summed
    over the targets.
    """

    target: np.ndarray
    root: np.ndarray
    residual: np.ndarray
    envelope_low: np.ndarray
    envelope_high: np.ndarray
    steps: np.ndarray

    @property
    def iterations(self) -> int:
        return int(np.sum(self.steps))


def _targets(x) -> np.ndarray:
    """The targets as a new 1-D float array; a number becomes one element."""
    targets = np.array(x, dtype=float)
    if targets.ndim > 1:
        raise ValueError(f"targets must be a number or a 1-D array, got shape {targets.shape}")
    return targets.reshape(-1)


def _refuse(targets: np.ndarray, bad: np.ndarray, message: str) -> None:
    """Raise ``ValueError(message)`` naming the first target where ``bad`` holds."""
    if bad.any():
        raise ValueError(f"{message}, got {float(targets[np.argmax(bad)])!r}")


def _midpoint(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # 0.5 * (lo + hi) to the bit, without lo + hi overflowing near 1.8e308
    return 0.5 * lo + 0.5 * hi


def _solve_bracketed(f, df, lo: np.ndarray, hi: np.ndarray,
                     t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Safeguarded Newton for f(r, t) = 0 on each bracket [lo, hi] with
    f(lo, t) <= 0 <= f(hi, t), elementwise; returns the roots and the steps
    of each.

    Each bracket shrinks on every step (bisection fallback), so a target
    stops once its [lo, hi] is a couple of ulps wide; Newton steps merely
    accelerate the shrinking.  Newton meets the root of a convex or concave
    map from one side, so the bracket's other end never moves: where its
    step rounds to nothing, the next point is the neighbouring float towards
    that end, which closes the bracket from both sides instead of bisecting
    it down to two ulps.  A stopped target leaves the loop, so it takes the
    steps it would take alone.  The root is the endpoint with the smaller
    |f|, so the reported residual is as close to the float64 floor as the
    map allows.
    """
    root = np.empty_like(lo)
    its = np.zeros(lo.shape, dtype=np.int64)
    flo, fhi = f(lo, t), f(hi, t)
    at_lo = flo == 0.0
    at_hi = (fhi == 0.0) & ~at_lo
    root[at_lo], root[at_hi] = lo[at_lo], hi[at_hi]
    open_ = ~(at_lo | at_hi)
    bad = open_ & ((flo > 0.0) | (fhi < 0.0))
    if bad.any():
        i = np.argmax(bad)
        raise NumericsError(f"root bracket [{lo[i]}, {hi[i]}] of target {t[i]} does not "
                            f"enclose a sign change")
    idx = np.flatnonzero(open_)
    lo, hi, flo, fhi, t = lo[idx], hi[idx], flo[idx], fhi[idx], t[idx]
    r = _midpoint(lo, hi)
    for it in range(1, _MAX_ITER + 1):
        fr = f(r, t)
        below = fr < 0.0
        lo, flo = np.where(below, r, lo), np.where(below, fr, flo)
        hi, fhi = np.where(below, hi, r), np.where(below, fhi, fr)
        at_root = fr == 0.0
        done = at_root | (hi - lo <= 2.0 * np.spacing(hi))
        if done.any():
            ends = np.where(np.abs(flo) <= np.abs(fhi), lo, hi)
            root[idx[done]] = np.where(at_root, r, ends)[done]
            its[idx[done]] = it
            keep = ~done
            idx, lo, hi, flo, fhi, t, r, fr = (
                a[keep] for a in (idx, lo, hi, flo, fhi, t, r, fr))
        if not idx.size:
            break
        d = df(r, t)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            cand = r - fr / d
        cand = np.where(cand == r, np.nextafter(r, np.copysign(math.inf, -fr)), cand)
        r = np.where((d > 0.0) & (lo < cand) & (cand < hi), cand, _midpoint(lo, hi))
    else:
        raise NumericsError(f"root solve of target {t[0]} did not converge within "
                            f"{_MAX_ITER} iterations")
    return root, its


def _r_ln_r(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    return r * np.log(r) - c


def _r_ln_r_slope(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.log(r) + 1.0


def solve_r_ln_r(c) -> RootResult:
    """Solve r ln r = c on [1/e, oo) for a 1-D array of targets; requires c >= -1/e."""
    c = _targets(c)
    _refuse(c, ~np.isfinite(c), "target must be finite")
    c_min = -1.0 / _E
    _refuse(c, c < c_min - 1e-15, f"target must be >= -1/e = {c_min:.17g}")
    env_low, env_high = _r_ln_r_envelopes(c)
    # Boundary of the admissible range: the root is exactly 1/e.
    edge = c <= c_min
    env_low[edge] = 1.0 / _E
    root = np.full_like(c, 1.0 / _E)
    its = np.zeros(c.shape, dtype=np.int64)
    inner = ~edge
    lo = np.maximum(1.0 / _E, np.nextafter(env_low[inner], 0.0))
    hi = np.nextafter(env_high[inner], math.inf)
    root[inner], its[inner] = _solve_bracketed(_r_ln_r, _r_ln_r_slope, lo, hi, c[inner])
    return RootResult(c, root, _r_ln_r(root, c), env_low, env_high, its)


def _r_ln_r_envelopes(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lc = np.log(np.maximum(c, _E))  # read only where c > e
    with np.errstate(over="ignore"):  # (e - 1) c near 1.8e308, where it is not read
        chord = 1.0 + (_E - 1.0) / _E * c
        low = np.where(c <= 0.0, 1.0 + (_E - 1.0) * c, np.where(c <= _E, chord, c / lc))
    high = np.where(c <= _E, 1.0 + c,
                    np.minimum(np.minimum(1.0 + c, chord), c / (lc - np.log(lc))))
    return low, high


# Solve F(r) = r - t (ln r - ln ln r) = 0; better conditioned than the
# ratio itself and has the same root.
def _log_ratio_gap(r: np.ndarray, t: np.ndarray) -> np.ndarray:
    lr = np.log(r)
    return r - t * (lr - np.log(lr))


def _log_ratio_gap_slope(r: np.ndarray, t: np.ndarray) -> np.ndarray:
    lr = np.log(r)
    return 1.0 - t / r * (1.0 - 1.0 / lr)


def solve_log_ratio(t) -> RootResult:
    """Solve r / (ln r - ln ln r) = t on (e, oo) for a 1-D array of targets;
    requires e^e/(e-1) < t and a finite bracket t ln t (t below about
    2.5e305)."""
    t = _targets(t)
    _refuse(t, ~np.isfinite(t), "target must be finite")
    _refuse(t, t <= LOG_RATIO_THRESHOLD,
            f"target must exceed e^e/(e-1) = {LOG_RATIO_THRESHOLD:.17g}")
    lt = np.log(t)
    with np.errstate(over="ignore"):
        env_low = t * (lt - np.log(lt))
        env_high = t * lt
    lo = np.nextafter(env_low, 0.0)
    hi = np.nextafter(env_high, math.inf)
    _refuse(t, ~np.isfinite(hi), "target too large: its bracket end t ln t overflows float64")
    root, its = _solve_bracketed(_log_ratio_gap, _log_ratio_gap_slope, lo, hi, t)
    lr = np.log(root)
    residual = root / (lr - np.log(lr)) - t
    return RootResult(t, root, residual, env_low, env_high, its)
