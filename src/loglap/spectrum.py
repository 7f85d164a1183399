"""Symmetric eigensolves and spectral diagnostics (counting, growth ratios).

The generalized problem A v = lambda * massScale * v with the identity-like
mass of the indicator basis reduces to a standard dense symmetric solve of
A / massScale; LAPACK's divide-and-conquer path does that deterministically
at the sizes we target, so results are reproducible bit for bit across runs
on one machine.
"""

from __future__ import annotations

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


def spectrum_from_values(values, total_dim: int | None = None, source: dict | None = None) -> Spectrum:
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
    return Spectrum(eigenvalues=ev, total_dim=int(total_dim), source=dict(source or {}))


def eig_symmetric(matrix, k: int, *, mass_scale: float | None = None, with_vectors: bool = False) -> Spectrum:
    """Smallest ``k`` eigenvalues of (1/massScale)*A for symmetric A, ascending.

    ``matrix`` may be a :class:`QuadFormMatrix` or a plain symmetric array
    (then ``mass_scale`` defaults to 1).  Ties keep LAPACK's index order;
    eigenvectors, when requested, are orthonormal columns.  LAPACK works on
    a copy of the matrix, so the solve needs 16*n*n bytes; raises
    ``ValueError`` when that exceeds physical memory.
    """
    if isinstance(matrix, QuadFormMatrix):
        a = matrix.entries
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
        ms = 1.0 if mass_scale is None else float(mass_scale)
        source = {"dim": None}
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got shape {a.shape}")
        if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(a).max()))):
            raise ValueError("matrix must be symmetric")
    n = a.shape[0]
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= {n}, got k={k}")
    _require_memory(16 * n * n, f"the eigensolve of a dense {n} x {n} matrix plus LAPACK's copy")
    try:
        if with_vectors:
            vals, vecs = np.linalg.eigh(a)
        else:
            vals = np.linalg.eigvalsh(a)
            vecs = None
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure is exotic
        raise NumericsError(f"symmetric eigensolver failed to converge: {exc}") from exc
    lam = vals / ms
    return Spectrum(
        eigenvalues=np.ascontiguousarray(lam[:k]),
        total_dim=n,
        eigenvectors=None if vecs is None else np.ascontiguousarray(vecs[:, :k]),
        mass_scale=ms,
        source=source,
    )


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
    ln 1 = 0).  With ``delta`` given, counting-staircase envelope samples
    exp(-(N/2 +- delta) t) * count(t) are included over [lambda_2, lambda_k].
    """
    if spectrum.k < 3:
        raise ValueError(f"diagnostics need at least 3 eigenvalues, got {spectrum.k}")
    out = _growth_table(spectrum)
    if delta is not None:
        n = dim if dim is not None else spectrum.source.get("dim")
        if n is None:
            raise ValueError("envelope samples need the dimension (pass dim=...)")
        t, upper = envelope_samples(spectrum, n / 2.0 + delta)
        _, lower = envelope_samples(spectrum, n / 2.0 - delta)
        out["envelope_t"] = t
        out["envelope_upper"] = upper
        out["envelope_lower"] = lower
    return out


def envelope_samples(spectrum: Spectrum, exponent: float, num: int = 201) -> tuple[np.ndarray, np.ndarray]:
    """Sample count(t) * exp(-exponent * t) on [lambda_2, lambda_max]."""
    ev = spectrum.eigenvalues
    if ev.size < 2:
        raise ValueError("envelope sampling needs at least 2 eigenvalues")
    t = np.linspace(ev[1], ev[-1], num)
    counts = np.searchsorted(ev, t, side="left").astype(float)
    return t, counts * np.exp(-exponent * t)
