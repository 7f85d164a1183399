"""Eigenvalues of a form, and their growth diagnostics and counting envelopes.

The generalized problem A v = lambda * massScale * v with the identity-like
mass of the indicator basis reduces to a standard symmetric problem for
A / massScale.  :func:`eig_symmetric` picks its solver from the problem's
size.  For a few eigenvalues of a large grid it runs thick-restart Lanczos
(Wu & Simon, SIAM J. Matrix Anal. Appl. 22, 2000) on the form's FFT matvec,
with no dense matrix: the symmetric counterpart of ARPACK's implicit
restart, in numpy alone.  Otherwise it runs LAPACK's dense solver on each
block of :meth:`~loglap.discretize.QuadFormMatrix.blocks`, one per sign
pattern of the grid's mirror axes, and merges their eigenvalues: two blocks
of about n/2 cells for an interval and four of about n/4 for a box or ball,
a quarter and a sixteenth of the n x n solve's flops and memory.  All
solvers are deterministic, so results are reproducible bit for bit across
runs on one machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .discretize import QuadFormMatrix
from .specfun import NumericsError

__all__ = [
    "Spectrum",
    "spectrum_from_values",
    "eig_symmetric",
    "weyl_diagnostics",
    "envelope_samples",
]

# Solver policy: Lanczos on the matvec when n >= _LANCZOS_MIN_CELLS and
# k <= n / _LANCZOS_CELLS_PER_EIGENVALUE, LAPACK otherwise.  The k limit comes
# from the crossovers near k = n/23, n/28 and n/22 measured up to k = 220 on
# a 2,048-cell interval, the 3,080-cell ball and a 4,096-cell interval with
# two LAPACK blocks in 2D too.  Milliseconds per solve, LAPACK on the blocks
# (gather included; it does not depend on k) against Lanczos at k = 1, 10 and
# n/28 (symbol included), on two cores with OpenBLAS, best of nine in one
# process, a fresh form each time; the balls from a later run on four blocks,
# on a machine then about 1.7x slower:
#   interval   n =   512: LAPACK   7.7; Lanczos  4.5,  7.7,  10.1 (k = 18)
#                    640:         10.0;          2.8,  8.3,  12.7 (k = 22)
#                    768:         14.9;          3.1,  9.3,  16.7 (k = 27)
#                  1,024:         27.4;          3.6, 10.9,  26.1 (k = 36)
#                  2,048:        118.5;          6.9, 18.0, 122.4 (k = 73)
#   ball h=1/8 n =   732: LAPACK  13.3; Lanczos  7.7, 24.6,  38.8 (k = 26)
#                  1,696:         78.6;         12.4, 41.2, 175.5 (k = 60)
#                  2,016:        104.8;         22.4, 77.6, 354.0 (k = 72)
#                  2,340:        141.4;         28.5, 93.8, 526.2 (k = 83)
#                  3,080:        211.3;         21.1, 66.7, 619.3 (k = 110)
# Over five such runs the ratio at k = n/28 is at most 1.28x in 1D from 768
# cells on, and 1.3-1.8x at 512.  In 2D, over three runs, it is 2.2-3.8x at
# every size from 732 to 3,080 cells: with four blocks the 2D limit is too
# generous.  These are timings of the solvers alone; the floor stays at
# 2,048 in both dimensions until a benchmark workload solves a 1D grid of
# 768-2,047 cells, so that lowering it there can be measured end to end.
_LANCZOS_MIN_CELLS = 2048
_LANCZOS_CELLS_PER_EIGENVALUE = 28
# Solves of 2,048-50,920 cells converge in 3-31 restarts (the R=16, h=1/8
# ball at k = 10 takes 31).
_LANCZOS_MAX_RESTARTS = 1000


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Ascending eigenvalues, and the record of the solve that gave them."""

    eigenvalues: np.ndarray
    source: dict = field(default_factory=dict)

    @property
    def k(self) -> int:
        return int(self.eigenvalues.shape[0])


def spectrum_from_values(values) -> Spectrum:
    """Wrap an explicit list of eigenvalues (synthetic or externally computed)."""
    ev = np.sort(np.asarray(values, dtype=float).ravel())
    if ev.size == 0:
        raise ValueError("a spectrum needs at least one eigenvalue")
    return Spectrum(eigenvalues=ev)


def eig_symmetric(form: QuadFormMatrix, k: int) -> Spectrum:
    """Smallest ``k`` eigenvalues of the form's A / massScale, ascending.

    A form of n >= 2048 cells with k <= n/28 is solved by thick-restart
    Lanczos on its matvec, started from a fixed hash of the cell index
    (:func:`_start_vector`); ``source`` then records the matvec and restart
    counts and the largest residual ||A v - lambda * massScale * v|| of the
    unit Ritz vectors.  Everything else goes to LAPACK on the form's
    :meth:`~loglap.discretize.QuadFormMatrix.blocks`, each freed before the
    next is gathered, and ``source`` records their sizes as ``sectors``.
    The largest block plus LAPACK's copy sets the memory; ``ValueError`` is
    raised when that exceeds physical memory.  ``source`` also names the
    solver that ran and the number of cells.  Raises ``NumericsError`` when
    a solver fails.
    """
    n = form.grid.count
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= {n}, got k={k}")
    source = {"cells": n}
    if n >= _LANCZOS_MIN_CELLS and k * _LANCZOS_CELLS_PER_EIGENVALUE <= n:
        vals, _, stats = _lanczos(form, k)
        source.update(solver="lanczos", **stats)
    else:
        vals, sectors = [], []
        for block in form.blocks():
            sectors.append(block.shape[0])
            vals.append(_lapack(block)[:k])
            del block  # freed before the next block is gathered
        vals = np.sort(np.concatenate(vals))[:k]
        source.update(solver="lapack", sectors=sectors)
    return Spectrum(eigenvalues=np.ascontiguousarray(vals / form.mass_scale), source=source)


def _lapack(a: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure is exotic
        raise NumericsError(f"symmetric eigensolver failed to converge: {exc}") from exc


def _start_vector(n: int) -> np.ndarray:
    """Lanczos's start: the first n outputs of SplitMix64 from seed 0 (Steele,
    Lea & Flood, OOPSLA 2014), mapped to [-1/2, 1/2).

    Like a random vector it reaches every symmetry sector of a
    reflection-symmetric grid, where a constant vector lies in the even one;
    being a fixed hash of the cell index, it needs no random number generator.
    """
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * 2.0**-53 - 0.5


def _lanczos(form: QuadFormMatrix, k: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """The k smallest eigenpairs of the form's A by thick-restart Lanczos on its matvec.

    The basis holds m = max(2k + 1, 20) vectors (ARPACK's default; the
    solver policy keeps m below n), each orthogonalized twice against all
    before it.  The projected matrix keeps the analytic recurrence
    coefficients: tridiagonal, with an arrowhead coupling the Ritz vectors
    kept at a restart to the residual direction (Wu & Simon, SIAM J. Matrix
    Anal. Appl. 22, 2000).  Each restart keeps k + (m - k)//2 Ritz vectors.
    A wanted Ritz pair converges when its residual estimate |beta * s_m| is
    at most eps/2 * max(eps^(2/3), |theta|), ARPACK's test at tol = 0; it is
    then locked: it stays in the basis, and its coupling, which is below
    that bound, is dropped from the projected matrix.  Without locking the
    estimates of converged pairs hover at that bound, rounding's floor, and
    the solve stalls.  Raises ``NumericsError`` after
    ``_LANCZOS_MAX_RESTARTS`` restarts, or when the basis breaks down (the
    new direction has no component outside the basis).
    """
    n = form.grid.count
    m = max(2 * k + 1, 20)
    keep = k + (m - k) // 2
    eps = np.finfo(float).eps
    basis = np.empty((m + 1, n))  # rows are the Lanczos vectors
    t = np.zeros((m, m))
    v = _start_vector(n)
    basis[0] = v / np.linalg.norm(v)
    locked = 0  # leading rows: converged Ritz vectors, uncoupled in t
    first = 0  # rows before ``first`` are Ritz vectors kept at the last restart
    matvecs = 0
    for restart in range(_LANCZOS_MAX_RESTARTS + 1):
        for j in range(first, m):
            w = form.matvec(basis[j])
            matvecs += 1
            scale = np.linalg.norm(w)
            t[j, j] = basis[j] @ w
            lo = 0 if j == first else j - 1  # the arrowhead row, or the tridiagonal one
            w -= t[j, j] * basis[j] + t[j, lo:j] @ basis[lo:j]
            for _ in range(2):
                w -= (basis[: j + 1] @ w) @ basis[: j + 1]
            beta = np.linalg.norm(w)
            if not beta > math.sqrt(eps) * scale:
                raise NumericsError(
                    f"Lanczos broke down after {matvecs} matvecs: "
                    f"the new direction is {beta:.3g} of |A v| = {scale:.3g}")
            if j + 1 < m:
                t[j, j + 1] = t[j + 1, j] = beta
            basis[j + 1] = w / beta
        theta, s = np.linalg.eigh(t[locked:, locked:])
        coupling = beta * s[-1]
        converged = np.abs(coupling) <= 0.5 * eps * np.maximum(eps ** (2 / 3), np.abs(theta))
        values = np.concatenate((np.diag(t)[:locked], theta))
        wanted = np.argsort(values, kind="stable")[:k]
        wanted = wanted[wanted >= locked] - locked  # the active pairs among the k smallest
        if converged[wanted].all():
            break
        if restart == _LANCZOS_MAX_RESTARTS:
            raise NumericsError(
                f"Lanczos did not converge in {restart} restarts ({matvecs} matvecs); "
                f"{np.count_nonzero(~converged[wanted])} of {k} eigenpairs open")
        lock = np.zeros(theta.size, dtype=bool)
        lock[wanted] = converged[wanted]
        # the newly locked pairs first, then the smallest others, up to ``keep`` rows
        rows = np.concatenate((np.flatnonzero(lock), np.flatnonzero(~lock)))
        rows = rows[: keep - locked]
        basis[locked:keep] = s[:, rows].T @ basis[locked:m]
        basis[keep] = basis[m]
        t[locked:] = t[:, locked:] = 0.0
        t[range(locked, keep), range(locked, keep)] = theta[rows]
        t[keep, locked:keep] = t[locked:keep, keep] = np.where(lock[rows], 0.0, coupling[rows])
        locked += np.count_nonzero(lock)
        first = keep
    vectors = np.concatenate((basis[:locked], s.T @ basis[locked:m]))
    order = np.argsort(values, kind="stable")[:k]
    vals, vecs = values[order], vectors[order].T
    residual = max(float(np.linalg.norm(form.matvec(vecs[:, j]) - vals[j] * vecs[:, j]))
                   for j in range(k))
    return vals, vecs, {"matvecs": matvecs, "restarts": restart, "max_residual": residual}


def weyl_diagnostics(spectrum: Spectrum) -> dict:
    """Growth diagnostics: eigenvalue/log-index and partial-sum ratios per index.

    Returns arrays keyed ``k``, ``eigenvalue``, ``eigenvalue_over_log_k``,
    ``partial_sum``, ``partial_sum_ratio``, for any k >= 1 (the k = 1 ratios
    are NaN since ln 1 = 0).
    """
    ev = spectrum.eigenvalues
    ks = np.arange(1, ev.size + 1, dtype=float)
    logk = np.log(ks)
    psum = np.cumsum(ev)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio_eig = np.where(ks > 1, ev / logk, np.nan)
        ratio_sum = np.where(ks > 1, psum / (ks * logk), np.nan)
    return {
        "k": np.arange(1, ev.size + 1),
        "eigenvalue": ev.copy(),
        "eigenvalue_over_log_k": ratio_eig,
        "partial_sum": psum,
        "partial_sum_ratio": ratio_sum,
    }


def _check_envelope_args(k: int, delta: float) -> None:
    """Raise ``ValueError`` unless :func:`envelope_samples` can serve k eigenvalues and delta."""
    if k < 3:
        raise ValueError(f"diagnostics need at least 3 eigenvalues, got {k}")
    if not (delta >= 0.0) or not math.isfinite(delta):
        raise ValueError(f"delta must be >= 0 and finite, got {delta!r}")


def envelope_samples(spectrum: Spectrum, dim: int, delta: float) -> tuple[np.ndarray, ...]:
    """Counting-staircase envelopes count(t) * exp(-(N/2 +- delta) t) in dimension N.

    Returns ``(t, upper, lower)``: 201 points t of [lambda_2, lambda_k] and
    the envelopes at exponents N/2 + delta and N/2 - delta.  Needs k >= 3
    and a finite delta >= 0.
    """
    _check_envelope_args(spectrum.k, delta)
    ev = spectrum.eigenvalues
    t = np.linspace(ev[1], ev[-1], 201)
    counts = np.searchsorted(ev, t, side="left").astype(float)
    return t, counts * np.exp(-(dim / 2.0 + delta) * t), counts * np.exp(-(dim / 2.0 - delta) * t)
