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
dense solver on its block.  The sectors' eigenvalues are then merged.

The accuracy contract: each eigenvalue from a Lanczos sector lies within
_LANCZOS_TOL = 5e-14 times the spectral radius of A / massScale of one of
its eigenvalues, so within 1e-12 up to a radius of 20; LAPACK's are
accurate to rounding.  Lanczos refines only the pairs the answer keeps.  One
ledger holds every sector's current estimates, whose k-th smallest bounds
lambda_k from above, and a sector stops refining a pair once its residual
bound places it above that (:func:`_thick_restart`).  The solve refuses,
with ``NumericsError``, an answer that would need such a pair.

The solve's record, the spectrum's ``source``, has the same keys for every
solve: the cells, the sectors' sizes and solvers, the matvecs (the Ritz
residuals' included), per sector and Lanczos solve the restarts and the
steps orthogonalized twice, and the largest residual ||A v - lambda M v||
of the Lanczos sectors.  Both solvers are deterministic, so results are
reproducible bit for bit on one machine for a fixed BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import NumericsError
from .discretize import QuadFormMatrix, _require_memory

__all__ = [
    "Spectrum",
    "spectrum_from_values",
    "eig_symmetric",
    "weyl_diagnostics",
    "envelope_samples",
]

# The solver rule per sector (:func:`_uses_lanczos`).  Milliseconds per
# solve with every sector forced onto one solver, for sectors of c cells
# asked for j values each: j = 2, or the largest j with c/j at least the
# column's ratio, at the largest k whose first share is j.  Two cores,
# OpenBLAS with two threads, the least of two runs (LAPACK: three) of best
# of five in one process, a fresh form each time (Lanczos pays the symbol;
# LAPACK pays the gather of each block from the reflected offset table):
#                      LAPACK  Lanczos at j = 2, and at c/j >= 32    24    20    16    12    10
#   interval  c =  128     1.8                 2.6         4.4   5.8   4.6   5.8   6.4   7.0
#                  256     7.8                 3.5         9.0   9.8  10.5  11.8  14.0  16.6
#                  512    34.2                 4.0        16.9  20.7  23.6  28.8  33.6  41.5
#                1,024   161.3                 6.0        47.1  58.3  68.9  84.8 112.0 145.2
#                2,048    1085                11.9       172.7 230.7 308.1 358.0 476.0 615.4
#   ball h=1/8 c = 183     8.0                 6.2         9.7  11.4  15.0  26.3  19.7  20.5
#                  294    20.4                 8.0        18.3  23.7  26.2  29.0  57.1  39.5
#                  424    41.8                10.9        32.6  36.9  44.1  48.8  59.5  63.7
#                  585    80.8                11.9        49.2  92.8  68.7  73.8  92.9 117.0
#                  770   145.5                15.0        72.0  90.4 108.2 132.3 173.6 205.2
#                1,755    1405                28.2       325.5 429.5 546.8 722.6 882.1  1081
# The 183-cell c/j >= 16, 294-cell c/j >= 12 and 585-cell c/j >= 24
# entries include a second round: the merge asked a sector again.  The
# crossover c/j falls as the sector grows, from above 32 at 256 cells to
# about 20 at 424, 12-16 at 585-770 and below 10 from 1,024 on, so no one
# ratio of this rule's form follows it.  From 256 cells on, two values are
# 2.2-91x faster by Lanczos; at 183 cells 1.3x, but there LAPACK wins from
# c/j = 32 on.  c/j >= 12 keeps every entry of 512-1,024 cells within 1.2x
# of the faster solver.  Left beyond 1.2x (11 of 77): at 256 cells c/j
# 24-12 run Lanczos 1.25-1.8x slower, at 294 cells c/j 20-12 1.3-2.8x, at
# 424 cells c/j 12 1.4x, c/j 10 leaves 1.3x (1,755) and 1.8x (2,048) to
# LAPACK, and two values at 183 cells 1.3x.  Of this rule's form, a floor
# of 295 leaves the fewest (six), but sends two values at 256 and 294 cells
# to LAPACK, 2.2x and 2.5x slower, and `perfbench/run.py --workload
# verify-all` read wall_s 57.9 ms with it against 54.2 ms at 256 (medians
# of 10 alternating pairs, two cores); a ratio of 10 leaves 15.  So the
# rule stays.
_LANCZOS_MIN_SECTOR = 256
_LANCZOS_CELLS_PER_VALUE = 12
# Sector solves on grids of 2,048-50,920 cells at k = 10-400 end in 2-52
# restarts (the R=16, h=1/8 ball at k = 10 takes 4-6, the 1 x 2,048 box 49-52).
_LANCZOS_MAX_RESTARTS = 1000
# Lanczos's convergence test, |beta s_m,i| <= _LANCZOS_TOL * max |theta|;
# :func:`_thick_restart` derives it from the solve's 1e-12 contract.
_LANCZOS_TOL = 5e-14


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
    Every sector posts its estimates on one :class:`_Ledger` of k: a LAPACK
    sector its eigenvalues, a Lanczos sector its Ritz values at each
    restart.  The ledger's k-th smallest value K is at least lambda_k, and a
    Lanczos sector stops once each pair it was asked for has converged to
    the contract or is certified above K by its residual bound; a certified
    pair's value comes back marked open.  The solve then merges: the k
    smallest are a prefix of each sector's ascending values, so a sector
    with cells left, no open value, and a largest value below the merged
    k-th one may hold more of them, and asks for twice as many in the next
    round.  A LAPACK sector has all its values and never grows; a sector
    with an open value holds no more below K.  Provided Lanczos misses no
    eigenvalue below those it finds, which every Lanczos solve here assumes,
    certificate or not, no open value is among the k smallest; if one is,
    the certificate failed, and the solve raises ``NumericsError``.

    ``source`` records the ``cells``, the sectors' sizes as ``sectors``, per
    sector the solver that ran last as ``solvers`` (``"lanczos"`` or
    ``"lapack"``), the restart count of each Lanczos solve it took as
    ``restarts`` and the number of that solve's steps that orthogonalized
    twice as ``reorthogonalized``, the shared ``matvecs`` (residuals
    included) and the largest residual ||A v - lambda * massScale * v|| of
    the Lanczos sectors' unit Ritz vectors among the k as ``max_residual``
    (None when no Lanczos sector holds one).  Raises ``ValueError`` before
    allocating a block plus LAPACK's copy, or a round's bases, larger than
    memory, and ``NumericsError`` when a solver fails or the merge would
    take an open value.
    """
    n = form.grid.count
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= {n}, got k={k}")
    counts = form.sectors.counts
    asked = [min(_first_share(k, count, n), count) for count in counts]
    # ascending values; Ritz vectors or None; whether each value converged
    pairs = [(np.empty(0), None, np.empty(0, dtype=bool)) for _ in counts]
    restarts = [[] for _ in counts]
    reorthogonalized = [[] for _ in counts]
    ledger = _Ledger(k)
    matvecs = 0
    grow = [i for i, want in enumerate(asked) if want]
    while grow:
        lanczos = [i for i in grow if _uses_lanczos(counts[i], asked[i])]
        _require_memory(sum(8 * (_basis_size(asked[i]) + 1) * counts[i] for i in lanczos),
                        f"a round of {len(lanczos)} Lanczos bases")
        for i in grow:
            if i not in lanczos:
                values = _lapack(form.block(i))
                ledger.post(i, values)
                pairs[i] = values, None, np.ones(values.size, dtype=bool)
        solved, steps = _lockstep(form, {
            i: _thick_restart(counts[i], asked[i], ledger, i) for i in lanczos})
        matvecs += steps
        for i, (values, vectors, converged, restart, second) in solved.items():
            pairs[i] = values, vectors, converged
            restarts[i].append(restart)
            reorthogonalized[i].append(second)
        # >= k values: each sector returns its ask, and sum_c min(ceil(1.15 k c/n) + 1, c) >= k
        merged = np.concatenate([values for values, _, _ in pairs])
        kth = np.sort(merged)[k - 1]
        grow = [i for i, (values, _, converged) in enumerate(pairs)
                if values.size < counts[i] and converged.all() and values[-1] < kth]
        for i in grow:
            asked[i] = min(2 * asked[i], counts[i])
    chosen = np.argsort(merged, kind="stable")[:k]
    open_chosen = np.count_nonzero(~np.concatenate([converged for *_, converged in pairs])[chosen])
    if open_chosen:
        raise NumericsError(
            f"{open_chosen} of the {k} smallest values are Lanczos pairs certified "
            f"above the k-th eigenvalue: the certificate failed")
    owner = np.repeat(np.arange(len(pairs)), [values.size for values, _, _ in pairs])
    taken = np.bincount(owner[chosen], minlength=len(pairs))
    residuals, steps = _lockstep(form, {
        i: _residual(values[:j], vectors[:j])
        for i, ((values, vectors, _), j) in enumerate(zip(pairs, taken))
        if j and vectors is not None})
    source = {"cells": n, "sectors": counts,
              "solvers": ["lapack" if vectors is None else "lanczos" for _, vectors, _ in pairs],
              "matvecs": matvecs + steps, "restarts": restarts,
              "reorthogonalized": reorthogonalized,
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


class _Ledger:
    """The latest eigenvalue estimates of every sector of one solve for the
    k smallest, by place: LAPACK's eigenvalues of its block, or a Lanczos
    sector's Ritz values at its last restart.

    A sector's i-th smallest Ritz value is at least its block's i-th
    eigenvalue (Cauchy interlacing), so for every x the estimates at most x
    are no more than the eigenvalues at most x.  The k-th smallest estimate,
    of all the sectors or of any subset of them, is therefore at least
    lambda_k, the k-th smallest eigenvalue of the whole.
    """

    def __init__(self, k: int):
        self.k = k
        self.values = {}

    def post(self, place: int, values: np.ndarray) -> float:
        """Record a sector's estimates; return the bound K, the k-th smallest
        estimate posted so far (inf while fewer than k are posted)."""
        self.values[place] = values
        posted = np.concatenate(list(self.values.values()))
        return float(np.sort(posted)[self.k - 1]) if posted.size >= self.k else math.inf


def _uses_lanczos(cells: int, k: int) -> bool:
    """Whether a sector of ``cells`` cells asked for k values runs Lanczos:
    cells >= _LANCZOS_MIN_SECTOR and cells >= _LANCZOS_CELLS_PER_VALUE * k.

    Every such sector has more than twice :func:`_basis_size` cells: for
    k <= 9 the basis is 20 vectors and cells >= 256 > 40; for k >= 10 it is
    2k + 1 vectors and cells >= 12 k > 4k + 2.  (Any floor above 40 with a
    ratio of at least 5 keeps this.)  In a smaller sector the basis fills
    much of it, and its Krylov space can become invariant (Lanczos breaks
    down).
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


def _thick_restart(n: int, k: int, ledger: _Ledger, place: int):
    """Generator for :func:`_lockstep`: the k smallest eigenpairs of a
    symmetric n x n operator B by thick-restart Lanczos, for n above twice
    :func:`_basis_size`.

    It yields each vector whose product it needs and is sent the product.
    The basis holds m = _basis_size(k) vectors, started from
    :func:`_start_vector`.  The projected matrix keeps the analytic
    recurrence coefficients: tridiagonal, with an arrowhead coupling the
    Ritz vectors kept at a restart to the residual direction (Wu & Simon,
    SIAM J. Matrix Anal. Appl. 22, 2000).  Each product w loses its
    recurrence terms, then one classical Gram-Schmidt pass against all the
    vectors before it, and a second pass only when the first leaves ||w||
    below 1/sqrt(2) of its norm before that pass (the DGKS test: Daniel,
    Gragg, Kaufman & Stewart, Math. Comp. 30, 1976).  Each restart keeps
    k + (m - k)//2 Ritz vectors.

    The contract.  A Ritz pair (theta, u) has the residual ||B u - theta u||
    = |beta * s_m|, and an eigenvalue of B lies within that of theta
    (Parlett, *The Symmetric Eigenvalue Problem*, SIAM 1998).  A wanted pair
    converges when |beta * s_m| <= _LANCZOS_TOL * max |theta|, the maximum
    over all the basis's Ritz values.  That maximum is at most ||B||, so the
    test is scale-free and puts each value within _LANCZOS_TOL * ||B|| of an
    eigenvalue of B; a floor such as max(1, |theta|) would not be
    scale-free, since theta is in units of h^N.  The tolerance comes from
    the 1e-12 to which the solve's values of A / massScale = B / h^N are
    held: their error is at most _LANCZOS_TOL times the spectral radius of
    A / h^N, and 5e-14 keeps it within 1e-12 up to a radius of 20 (the
    R = 4, h = 1/8 ball's is 8.2, the 2,048-cell interval's 16.8).  The test
    sits 450 times above rounding's floor, eps/2 relative, so whether a
    pair passes it does not depend on the last bits of the product.
    Tolerances of 1e-14, 2e-14, 5e-14 and 1e-13 took the same matvecs on
    five of six grids tried; the R = 4, h = 1/8 ball at k = 30 took 121,
    121, 115 and 115.  A converged pair is locked: it stays in the basis,
    and its coupling, below the test's bound, is dropped from the projected
    matrix.

    The certificate.  At each restart the solve posts all m of its Ritz
    values under ``place`` on the ``ledger`` (:class:`_Ledger`) and reads
    back its bound K >= lambda_k, where k is the whole solve's count.  A
    wanted pair with theta - |beta * s_m| > K is certified: the eigenvalue
    within the residual of theta lies above K, so it is not among the k
    smallest, and neither are the sector's eigenvalues above it, provided
    Lanczos has missed none below it, as every Lanczos solve here assumes
    (the start vector has a component along every eigenvector).  The solve
    ends when every wanted pair has converged or is certified.  A certified
    pair is never locked, and its value comes back marked open.  On a fresh
    ``_Ledger(k)`` that only this solve posts to, K is the k-th smallest of
    its own m > k values, so no wanted theta exceeds it, and every wanted
    pair must converge.

    Returns the wanted values ascending, the unit Ritz vectors as rows,
    whether each pair converged (False: certified and open), the restart
    count and the number of steps that took the second pass.  Raises
    ``NumericsError`` after ``_LANCZOS_MAX_RESTARTS`` restarts, or when the
    basis breaks down (the new direction has no component outside the
    basis).
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
    second = 0  # steps that took the second Gram-Schmidt pass
    for restart in range(_LANCZOS_MAX_RESTARTS + 1):
        for j in range(first, m):
            w = yield basis[j]
            matvecs += 1
            scale = math.sqrt(w @ w)
            t[j, j] = basis[j] @ w
            lo = 0 if j == first else j - 1  # the arrowhead row, or the tridiagonal one
            w -= t[j, j] * basis[j] + t[j, lo:j] @ basis[lo:j]
            before = math.sqrt(w @ w)
            w -= (basis[: j + 1] @ w) @ basis[: j + 1]
            beta = math.sqrt(w @ w)
            if beta < math.sqrt(0.5) * before:  # DGKS: the pass cancelled much of w
                w -= (basis[: j + 1] @ w) @ basis[: j + 1]
                beta = math.sqrt(w @ w)
                second += 1
            if not beta > math.sqrt(eps) * scale:
                raise NumericsError(
                    f"Lanczos broke down after {matvecs} matvecs: "
                    f"the new direction is {beta:.3g} of |A v| = {scale:.3g}")
            if j + 1 < m:
                t[j, j + 1] = t[j + 1, j] = beta
            basis[j + 1] = w / beta
        theta, s = np.linalg.eigh(t[locked:, locked:])
        coupling = beta * s[-1]
        values = np.concatenate((np.diag(t)[:locked], theta))
        converged = np.abs(coupling) <= _LANCZOS_TOL * np.max(np.abs(values))
        bound = ledger.post(place, values)
        settled = converged | (theta - np.abs(coupling) > bound)
        wanted = np.argsort(values, kind="stable")[:k]
        wanted = wanted[wanted >= locked] - locked  # the active pairs among the k smallest
        if settled[wanted].all():
            break
        if restart == _LANCZOS_MAX_RESTARTS:
            raise NumericsError(
                f"Lanczos did not converge in {restart} restarts ({matvecs} matvecs); "
                f"{np.count_nonzero(~settled[wanted])} of {k} eigenpairs open")
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
    converged = np.concatenate((np.ones(locked, dtype=bool), converged))
    order = np.argsort(values, kind="stable")[:k]
    return values[order], vectors[order], converged[order], restart, second


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
