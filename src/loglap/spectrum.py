"""Eigenvalues of a form, and their growth diagnostics and counting envelopes.

The generalized problem A v = lambda * massScale * v with the identity-like
mass of the indicator basis reduces to a standard symmetric problem for
A / massScale.  :func:`eig_symmetric` solves it in the sectors of
:attr:`~loglap.discretize.QuadFormMatrix.sectors`, one per sign pattern of
the grid's mirror axes: two of about n/2 cells for an interval and four of
about n/4 for a box or ball (one, the whole grid, without a mirror axis).
Each sector picks its solver from its size and the number of values asked
of it.  A large sector asked for few runs thick-restart Lanczos (Wu &
Simon, SIAM J. Matrix Anal. Appl. 22, 2000) on the form's FFT matvec, with
no dense matrix; all such sectors are stepped together, so one product per
step serves them all.  Any other sector gets all its values from LAPACK's
dense solver on its block.  The sectors' eigenvalues are then merged.  The
solve's record, the spectrum's ``source``, has the same keys for every
solve: the cells, the sectors' sizes and solvers, the matvecs (the Ritz
residuals' included), each sector's restart count per Lanczos solve and the
largest residual ||A v - lambda M v|| of the Lanczos sectors.  Both solvers
are deterministic, so results are reproducible bit for bit on one machine
for a fixed BLAS thread count.
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
    "weyl_diagnostics",
    "envelope_samples",
]

# The solver rule per sector (:func:`_uses_lanczos`).  Milliseconds per
# solve with every sector forced onto one solver, for sectors of c cells
# asked for j values each; two cores, OpenBLAS, best of five in one process,
# a fresh form each time (Lanczos pays the symbol):
#                      LAPACK  Lanczos at j = 2, and at c/j = 32    24    20    16    12
#   interval  c =  256    11.1                11.2         17.0   20.7  21.1  23.1  27.4
#                  512    40.4                11.3         32.1   39.8  44.9  51.0  63.8
#                1,024   192.4                24.1        101.1  122.8 123.9 155.3 199.3
#                2,048  1165.0                38.3        385.0  614.5 703.8 644.5  1025
#   ball h=1/8 c = 424    60.8                34.7         84.8   89.9 103.1 117.9 142.1
#                  585   114.9                40.3        114.3  133.8 158.2 182.0 224.7
#                  770   205.9                47.5        156.2  188.3 234.8 303.4 373.8
#                1,755    1741                62.1        511.4  839.0 891.1  1346  2054
# Below 512 cells Lanczos wins at most 1.8x, and only for a few values.  The
# crossover c/j falls as c grows: 22-32 at 512-770 cells, 12-13 from 1,024
# on.  c/j >= 16 loses about 1.5x (0.1 s) at most on the small sectors, and
# takes the large ones' gains: a larger ratio would send the 1,755-cell
# sectors at c/j = 20 to LAPACK, at twice the time.
_LANCZOS_MIN_SECTOR = 512
_LANCZOS_CELLS_PER_VALUE = 16
# Sector solves of 2,048-50,920 cells converge in 3-76 restarts (the R=16,
# h=1/8 ball at k = 10 takes 9-11, the 1 x 2,048 box 69-76).
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

    The solve runs in rounds over the form's mirror sectors.  A sector first
    asks for :func:`_first_share` of the values, a few more than its share
    by Weyl's law, which splits them in proportion in the limit.  Each round
    picks every growing sector's solver from its size and ask
    (:func:`_uses_lanczos`) and refuses the round's Lanczos bases when they
    exceed memory.  It solves each LAPACK sector whole on its
    block, gathered and freed before the next is gathered, and steps the
    Lanczos sectors' :func:`_thick_restart` together (:func:`_lockstep`).
    It then merges: the k smallest are a prefix of each sector's ascending
    values, so a sector with cells left whose largest value lies below the
    merged k-th one may hold more of them, and asks for twice as many in
    the next round.  A LAPACK sector has all its values and never grows.

    ``source`` records the ``cells``, the sectors' sizes as ``sectors``, per
    sector the solver that ran last as ``solvers`` (``"lanczos"`` or
    ``"lapack"``) and the restart count of each Lanczos solve it took as
    ``restarts``, the shared ``matvecs`` (residuals included) and the
    largest residual ||A v - lambda * massScale * v|| of the Lanczos
    sectors' unit Ritz vectors among the k as ``max_residual`` (None when
    no Lanczos sector holds one).  Raises ``ValueError`` before allocating a
    block plus LAPACK's copy, or a round's bases, larger than memory,
    and ``NumericsError`` when a solver fails.
    """
    n = form.grid.count
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= {n}, got k={k}")
    sectors = form.sectors
    asked = [min(_first_share(k, sector.count, n), sector.count) for sector in sectors]
    pairs = [(np.empty(0), None) for _ in sectors]  # ascending values; Ritz vectors or None
    restarts = [[] for _ in sectors]
    matvecs = 0
    grow = [i for i, want in enumerate(asked) if want]
    while grow:
        lanczos = [i for i in grow if _uses_lanczos(sectors[i].count, asked[i])]
        _require_memory(sum(8 * (_basis_size(asked[i]) + 1) * sectors[i].count for i in lanczos),
                        f"a round of {len(lanczos)} Lanczos bases")
        for i in grow:
            if i not in lanczos:
                pairs[i] = _lapack(form.block(sectors[i])), None
        solved, steps = _lockstep(form, {
            i: _thick_restart(sectors[i].count, asked[i]) for i in lanczos})
        matvecs += steps
        for i, (values, vectors, restart) in solved.items():
            pairs[i] = values, vectors
            restarts[i].append(restart)
        merged = np.concatenate([values for values, _ in pairs])
        kth = np.sort(merged)[k - 1] if merged.size >= k else math.inf
        grow = [i for i, (values, _) in enumerate(pairs)
                if values.size < sectors[i].count and values[-1] < kth]
        for i in grow:
            asked[i] = min(2 * asked[i], sectors[i].count)
    chosen = np.argsort(merged, kind="stable")[:k]
    owner = np.repeat(np.arange(len(pairs)), [values.size for values, _ in pairs])
    taken = np.bincount(owner[chosen], minlength=len(pairs))
    residuals, steps = _lockstep(form, {
        i: _residual(values[:j], vectors[:j])
        for i, ((values, vectors), j) in enumerate(zip(pairs, taken))
        if j and vectors is not None})
    source = {"cells": n, "sectors": [sector.count for sector in sectors],
              "solvers": ["lapack" if vectors is None else "lanczos" for _, vectors in pairs],
              "matvecs": matvecs + steps, "restarts": restarts,
              "max_residual": max(residuals.values(), default=None)}
    return Spectrum(eigenvalues=np.ascontiguousarray(merged[chosen] / form.mass_scale),
                    source=source)


def _lapack(a: np.ndarray) -> np.ndarray:
    """LAPACK's eigenvalues of a symmetric matrix, ascending."""
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure is exotic
        raise NumericsError(f"symmetric eigensolver failed to converge: {exc}") from exc


def _start_vector(n: int) -> np.ndarray:
    """Lanczos's start: the first n outputs of SplitMix64 from seed 0 (Steele,
    Lea & Flood, OOPSLA 2014), mapped to [-1/2, 1/2).

    Each sector's Lanczos starts from the vector of its size, indexed by
    the sector's cells.  Like a random vector it has a component along every
    eigenvector, where a structured one (a constant lies in the even sector
    of a grid) can miss some; being a fixed hash of the cell index, it needs
    no random number generator.
    """
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * 2.0**-53 - 0.5


def _first_share(k: int, cells: int, n: int) -> int:
    """Values a sector of ``cells`` of the n cells first asks for: ceil(1.15 k cells / n) + 1."""
    return math.ceil(1.15 * k * cells / n) + 1


def _lockstep(form: QuadFormMatrix, runs: dict) -> tuple[dict, int]:
    """Drive generators in sectors' coordinates on one shared matvec per step.

    ``runs`` maps a sector's place in the form's ``sectors`` to a generator
    that yields each vector u whose product B u with its sector's block it
    needs and is sent that product.  Each step serves every running generator
    by one :meth:`~loglap.discretize.QuadFormMatrix.sector_matvec`.  Returns
    the generators' return values by place, and the number of matvecs: the
    longest run, not the sum.  Every generator yields at least once.
    """
    done, pending = {}, {i: next(run) for i, run in runs.items()}
    matvecs = 0
    while pending:
        products = form.sector_matvec(pending)
        matvecs += 1
        for i, w in products.items():
            try:
                pending[i] = runs[i].send(w)
            except StopIteration as stop:
                done[i] = stop.value
                del pending[i]
    return done, matvecs


def _uses_lanczos(cells: int, k: int) -> bool:
    """Whether a sector of ``cells`` cells asked for k values runs Lanczos:
    cells >= _LANCZOS_MIN_SECTOR and cells >= _LANCZOS_CELLS_PER_VALUE * k.

    With _LANCZOS_MIN_SECTOR > 40 and _LANCZOS_CELLS_PER_VALUE >= 5 every
    such sector has more than twice :func:`_basis_size` cells: in a smaller
    one the basis fills much of the sector, and its Krylov space can become
    invariant (Lanczos breaks down).
    """
    return cells >= max(_LANCZOS_MIN_SECTOR, _LANCZOS_CELLS_PER_VALUE * k)


def _residual(values: np.ndarray, vectors: np.ndarray):
    """Generator for :func:`_lockstep`: the largest ||B u - theta u|| of the pairs."""
    worst = 0.0
    for theta, u in zip(values, vectors):
        w = yield u
        worst = max(worst, float(np.linalg.norm(w - theta * u)))
    return worst


def _basis_size(k: int) -> int:
    """Lanczos vectors for k eigenpairs: max(2k + 1, 20), ARPACK's default."""
    return max(2 * k + 1, 20)


def _thick_restart(n: int, k: int):
    """Generator for :func:`_lockstep`: the k smallest eigenpairs of a
    symmetric n x n operator by thick-restart Lanczos, for n above twice
    :func:`_basis_size`.

    It yields each vector whose product it needs and is sent the product.
    The basis holds m = _basis_size(k) vectors, started from
    :func:`_start_vector`, each orthogonalized twice against all before it.
    The projected matrix keeps the analytic recurrence coefficients:
    tridiagonal, with an arrowhead coupling the Ritz vectors kept at a
    restart to the residual direction (Wu & Simon, SIAM J. Matrix Anal.
    Appl. 22, 2000).  Each restart keeps k + (m - k)//2 Ritz vectors.  A
    wanted Ritz pair converges when its residual estimate |beta * s_m| is at
    most eps/2 * max(eps^(2/3), |theta|), ARPACK's test at tol = 0; it is
    then locked: it stays in the basis, and its coupling, which is below
    that bound, is dropped from the projected matrix.  Without locking the
    estimates of converged pairs hover at that bound, rounding's floor, and
    the solve stalls.  Returns the ascending values, the unit Ritz vectors
    as rows and the restart count.  Raises ``NumericsError`` after
    ``_LANCZOS_MAX_RESTARTS`` restarts, or when the basis breaks down (the
    new direction has no component outside the basis).
    """
    m = _basis_size(k)
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
            w = yield basis[j]
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
    return values[order], vectors[order], restart


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
