"""Symmetric eigensolves and spectral diagnostics (counting, growth ratios).

The generalized problem A v = lambda * massScale * v with the identity-like
mass of the indicator basis reduces to a standard symmetric problem for
A / massScale.  :func:`eig_symmetric` picks its solver from the problem's
size: ARPACK's implicitly restarted Lanczos method (Lehoucq, Sorensen and
Yang, *ARPACK Users' Guide*, SIAM 1998) on the form's FFT matvec for a few
eigenvalues of a large grid, with no dense matrix, and LAPACK's dense
solver otherwise.  Every grid :func:`~loglap.discretize.build_grid` makes
is centrally symmetric, so its matrix commutes with the exchange of cell i
and cell n-1-i; LAPACK then runs on the even and odd blocks of
:meth:`~loglap.discretize.QuadFormMatrix.sector`, each about n/2 wide,
which takes about a quarter of the time and memory of the n x n solve and
gives the same eigenvalues to rounding.  Other grids and plain arrays go to
LAPACK whole.  All solvers are deterministic, so results are reproducible
bit for bit across runs on one machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .discretize import QuadFormMatrix, _require_memory
from .specfun import NumericsError

__all__ = [
    "Spectrum",
    "spectrum_from_values",
    "eig_symmetric",
    "counting_function",
    "weyl_diagnostics",
    "envelope_samples",
]

# Solver policy: ARPACK on the matvec when n >= _ARPACK_MIN_CELLS and
# k <= n / _ARPACK_CELLS_PER_EIGENVALUE, LAPACK otherwise.  Seconds per solve,
# ARPACK against LAPACK on the even and odd blocks, on two cores with
# OpenBLAS (best of two in one process; the LAPACK time includes the block
# gather and does not depend on k; ARPACK excludes the 0.25-0.4 s import of
# scipy.sparse.linalg, which a fresh process pays once):
#   n = 2,048 (interval), LAPACK 0.21:  k = 20: 0.05;  40: 0.08;  60: 0.17;
#            70: 0.24;  100: 0.41
#   n = 3,080 (ball R=4), LAPACK 0.62-0.68:  k = 10: 0.16;  40: 0.29;
#            60: 0.52;  80: 0.76;  110: 0.85
#   n = 4,096 (interval), LAPACK 1.33:  k = 100: 0.62;  150: 1.20;  200: 1.69
#   n = 7,020 (ball R=6), LAPACK 5.79:  k = 100: 1.63;  200: 4.21;  250: 5.61
#   n = 8,192 (interval), LAPACK 7.4-8.0:  k = 200: 3.58;  300: 6.58;
#            400: 12.3
# The crossover lies near k = n/31, n/45, n/25, n/27 and n/25: it grows
# with n and is lower in 2D, whose matvec is the dearer.  With n/28 the
# solver chosen is at most about 1.4x slower than the other on each of
# these grids (3,080-cell ball, k = 110: 0.85 s against 0.62 s).  At k = 10
# ARPACK wins from n = 2,048 on.
_ARPACK_MIN_CELLS = 2048
_ARPACK_CELLS_PER_EIGENVALUE = 28


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Ascending eigenvalues (the smallest ``k`` of a problem of size ``total_dim``)."""

    eigenvalues: np.ndarray
    total_dim: int
    eigenvectors: np.ndarray | None = None  # columns align with eigenvalues
    mass_scale: float = 1.0
    source: dict = field(default_factory=dict)

    @property
    def k(self) -> int:
        return int(self.eigenvalues.shape[0])

    @property
    def is_complete(self) -> bool:
        """Whether the whole spectrum of the underlying problem is present."""
        return self.k == self.total_dim


def spectrum_from_values(values, total_dim: int | None = None) -> Spectrum:
    """Wrap an explicit list of eigenvalues (synthetic or externally computed).

    Without ``total_dim`` the list is taken to be complete.
    """
    ev = np.sort(np.asarray(values, dtype=float).ravel())
    if ev.size == 0:
        raise ValueError("a spectrum needs at least one eigenvalue")
    if total_dim is None:
        total_dim = ev.size
    if total_dim < ev.size:
        raise ValueError(f"total_dim {total_dim} smaller than the {ev.size} values given")
    return Spectrum(eigenvalues=ev, total_dim=int(total_dim))


def _uses_arpack(n: int, k: int) -> bool:
    """Whether :func:`eig_symmetric` serves k of n eigenvalues of a form by ARPACK."""
    return n >= _ARPACK_MIN_CELLS and k * _ARPACK_CELLS_PER_EIGENVALUE <= n


def eig_symmetric(matrix, k: int, *, with_vectors: bool = False) -> Spectrum:
    """Smallest ``k`` eigenvalues of (1/massScale)*A for symmetric A, ascending.

    ``matrix`` may be a :class:`QuadFormMatrix` or a plain symmetric array,
    whose massScale is 1.  A form of n >= 2048 cells with k <= n/28 is
    solved by ARPACK on its matvec, started from a fixed-seed random vector;
    ``source`` then records the matvec count and the largest residual
    ||A v - lambda * massScale * v|| of the unit eigenvectors.  Everything
    else goes to LAPACK.  A form on a centrally symmetric grid is solved as
    its even and odd blocks, gathered from the offset table one at a time;
    the larger block plus LAPACK's copy needs about 4*n*n bytes, ``source``
    records the block sizes as ``sectors`` = [even, odd], and ties keep the
    even block's values first.  A plain array, or a form on any other grid,
    is solved whole on a copy of the dense matrix, which needs 16*n*n bytes;
    ties keep LAPACK's index order.  The LAPACK paths raise ``ValueError``
    when their bytes exceed physical memory.  ``source["solver"]`` names
    the solver that ran.  Eigenvectors, when requested, are orthonormal
    columns.  Raises ``NumericsError`` when a solver fails.
    """
    if isinstance(matrix, QuadFormMatrix):
        n = matrix.grid.count
        ms = matrix.mass_scale
        grid = matrix.grid
        source = {
            "domain": grid.domain.kind,
            "dim": grid.dim,
            "h": grid.h,
            "cells": grid.count,
        }
    else:
        a = np.asarray(matrix, dtype=float)
        ms = 1.0
        source = {"dim": None}
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got shape {a.shape}")
        if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(a).max()))):
            raise ValueError("matrix must be symmetric")
        n = a.shape[0]
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= {n}, got k={k}")
    if isinstance(matrix, QuadFormMatrix) and _uses_arpack(n, k):
        vals, vecs, stats = _arpack(matrix, k)
        source.update(solver="arpack", **stats)
    elif isinstance(matrix, QuadFormMatrix) and matrix.grid.centrally_symmetric:
        vals, vecs, sectors = _lapack_sectors(matrix, k, with_vectors)
        source.update(solver="lapack", sectors=sectors)
    else:
        _require_memory(16 * n * n, f"the eigensolve of a dense {n} x {n} matrix plus LAPACK's copy")
        if isinstance(matrix, QuadFormMatrix):
            a = matrix.entries
        vals, vecs = _lapack(a, with_vectors)
        vals = vals[:k]
        vecs = None if vecs is None else vecs[:, :k]
        source["solver"] = "lapack"
    return Spectrum(
        eigenvalues=np.ascontiguousarray(vals / ms),
        total_dim=n,
        eigenvectors=np.ascontiguousarray(vecs) if with_vectors else None,
        mass_scale=ms,
        source=source,
    )


def _lapack(a: np.ndarray, with_vectors: bool) -> tuple[np.ndarray, np.ndarray | None]:
    try:
        if with_vectors:
            return np.linalg.eigh(a)
        return np.linalg.eigvalsh(a), None
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure is exotic
        raise NumericsError(f"symmetric eigensolver failed to converge: {exc}") from exc


def _lapack_sectors(form: QuadFormMatrix, k: int,
                    with_vectors: bool) -> tuple[np.ndarray, np.ndarray | None, list[int]]:
    """The k smallest eigenpairs of a centrally symmetric grid's A, ascending,
    by LAPACK on its even and odd blocks in turn, and the two block sizes.

    Ties keep the even block's values first.  A block vector u maps back to
    [u; parity * J u] / sqrt(2), J reversing the order, with the middle
    entry of an even vector for odd n taken over unscaled.
    """
    n = form.grid.count
    half = n // 2
    even = n - half
    _require_memory(16 * even * even,
                    f"the eigensolve of a dense {even} x {even} block plus LAPACK's copy")
    vals, vecs = [], []
    for parity in (1, -1):
        w, u = _lapack(form.sector(parity), with_vectors)
        vals.append(w[:k])
        if with_vectors:
            u = u[:, :k]
            v = np.empty((n, u.shape[1]))
            v[:half] = math.sqrt(0.5) * u[:half]
            v[n - half :] = parity * math.sqrt(0.5) * u[:half][::-1]
            if n % 2:
                v[half] = u[half] if parity > 0 else 0.0
            vecs.append(v)
    vals = np.concatenate(vals)
    order = np.argsort(vals, kind="stable")[:k]
    return vals[order], (np.hstack(vecs)[:, order] if with_vectors else None), [even, half]


def _arpack(form: QuadFormMatrix, k: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """The k smallest eigenpairs of the form's A by ARPACK on its matvec, ascending."""
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    n = form.grid.count
    matvecs = 0

    def apply(v):
        nonlocal matvecs
        matvecs += 1
        return form.matvec(v)

    # A random start reaches every symmetry sector of a reflection-symmetric
    # grid; a constant vector lies in the even one.
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        vals, vecs = eigsh(LinearOperator((n, n), matvec=apply, dtype=float), k=k,
                           which="SA", v0=v0)
    except ArpackError as exc:
        raise NumericsError(f"ARPACK failed after {matvecs} matvecs: {exc}") from exc
    order = np.argsort(vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    residual = max(float(np.linalg.norm(form.matvec(vecs[:, j]) - vals[j] * vecs[:, j]))
                   for j in range(k))
    return vals, vecs, {"matvecs": matvecs, "max_residual": residual}


def counting_function(spectrum: Spectrum, t: float) -> int:
    """Number of eigenvalues strictly below ``t`` (value at an eigenvalue excluded).

    Raises when ``t`` lies beyond the largest *computed* eigenvalue of a
    truncated spectrum — the count would silently saturate there.  For a
    complete spectrum every ``t`` is answerable.
    """
    ev = spectrum.eigenvalues
    if t > ev[-1] and not spectrum.is_complete:
        raise ValueError(
            f"count saturates: t={t!r} exceeds the largest computed eigenvalue "
            f"{ev[-1]!r} of a truncated spectrum ({spectrum.k} of {spectrum.total_dim})"
        )
    return int(np.searchsorted(ev, t, side="left"))


def _growth_table(spectrum: Spectrum) -> dict:
    """The columns of :func:`weyl_diagnostics` without envelopes, for any k >= 1."""
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


def weyl_diagnostics(spectrum: Spectrum, *, delta: float | None = None, dim: int | None = None) -> dict:
    """Growth diagnostics: eigenvalue/log-index and partial-sum ratios per index.

    Returns arrays keyed ``k``, ``eigenvalue``, ``eigenvalue_over_log_k``,
    ``partial_sum``, ``partial_sum_ratio`` (the k = 1 ratios are NaN since
    ln 1 = 0).  With a finite ``delta`` >= 0, counting-staircase envelope
    samples exp(-(N/2 +- delta) t) * count(t) are included over
    [lambda_2, lambda_k].
    """
    _check_weyl_args(spectrum.k, delta)
    out = _growth_table(spectrum)
    if delta is not None:
        n = dim if dim is not None else spectrum.source.get("dim")
        if n is None:
            raise ValueError("envelope samples need the dimension (pass dim=...)")
        out["envelope_t"], out["envelope_upper"], out["envelope_lower"] = _envelope_pair(
            spectrum, n, delta
        )
    return out


def _check_weyl_args(k: int, delta: float | None) -> None:
    """Raise ``ValueError`` unless :func:`weyl_diagnostics` can serve k eigenvalues and delta."""
    if k < 3:
        raise ValueError(f"diagnostics need at least 3 eigenvalues, got {k}")
    if delta is not None and (not (delta >= 0.0) or not math.isfinite(delta)):
        raise ValueError(f"delta must be >= 0 and finite, got {delta!r}")


def _envelope_pair(spectrum: Spectrum, dim: int, delta: float) -> tuple[np.ndarray, ...]:
    """Samples t and the envelopes at exponents N/2 + delta and N/2 - delta."""
    _check_weyl_args(spectrum.k, delta)
    t, upper = envelope_samples(spectrum, dim / 2.0 + delta)
    _, lower = envelope_samples(spectrum, dim / 2.0 - delta)
    return t, upper, lower


def envelope_samples(spectrum: Spectrum, exponent: float) -> tuple[np.ndarray, np.ndarray]:
    """Sample count(t) * exp(-exponent * t) at 201 points of [lambda_2, lambda_max]."""
    ev = spectrum.eigenvalues
    if ev.size < 2:
        raise ValueError("envelope sampling needs at least 2 eigenvalues")
    t = np.linspace(ev[1], ev[-1], 201)
    counts = np.searchsorted(ev, t, side="left").astype(float)
    return t, counts * np.exp(-exponent * t)
