"""Symmetric eigensolves and spectral diagnostics (counting, growth ratios).

The generalized problem A v = lambda * massScale * v with the identity-like
mass of the indicator basis reduces to a standard symmetric problem for
A / massScale.  :func:`eig_symmetric` picks its solver from the problem's
size: ARPACK's implicitly restarted Lanczos method (Lehoucq, Sorensen and
Yang, *ARPACK Users' Guide*, SIAM 1998) on the form's FFT matvec for a few
eigenvalues of a large grid, with no dense matrix, and LAPACK's dense
solver on the gathered matrix otherwise.  Both are deterministic, so
results are reproducible bit for bit across runs on one machine.
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
# ARPACK against LAPACK, on two cores with OpenBLAS (single runs; ARPACK
# includes the ~0.35 s import of scipy.sparse.linalg, LAPACK the gather):
#   k = 10:  n = 512: 0.10 vs 0.02;  1,024: 0.13 vs 0.12;  2,048: 0.12 vs 0.61;
#            3,080 (ball): 0.25 vs 1.8;  7,020 (ball): 0.33 vs 18.7
#   n = 2,048 (interval): k = 100: 0.50 vs 0.57;  150: 0.66 vs 0.55;
#            204: 1.0 vs 0.61;  300: 2.3 vs 0.55
#   n = 3,080 (ball): k = 150: 1.1 vs 1.8;  308: 3.4 vs 1.7
#   n = 4,096 (interval): k = 200: 2.4 vs 3.7;  409: 5.8 vs 3.8
# At k = 10 ARPACK wins from about n = 1,024 on.  At a fixed share k/n the
# crossover lies near k = n/16 for n = 2,048 to 4,096, so between n/16 and
# n/10 ARPACK is up to 2x slower there; in exchange no solve of up to n/10
# eigenvalues needs the 16*n*n bytes of the dense path.
_ARPACK_MIN_CELLS = 2048
_ARPACK_CELLS_PER_EIGENVALUE = 10


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
    whose massScale is 1.  A form of n >= 2048 cells with
    k <= n/10 is solved by ARPACK on its matvec, started from a fixed-seed random
    vector; ``source`` then records the matvec count and the largest
    residual ||A v - lambda * massScale * v|| of the unit eigenvectors.
    Everything else goes to LAPACK, whose ties keep LAPACK's index order; it
    works on a copy of the dense matrix, so it needs 16*n*n bytes and raises
    ``ValueError`` when that exceeds physical memory.  ``source["solver"]``
    names the solver that ran.  Eigenvectors, when requested, are
    orthonormal columns.  Raises ``NumericsError`` when a solver fails.
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
