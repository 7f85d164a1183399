"""Eigensolver, growth diagnostics and counting envelopes."""

import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loglap import spectrum as spectrum_module
from loglap.constants import NumericsError
from loglap.discretize import Grid, QuadFormMatrix, assemble_form, build_grid, offset_form
from loglap.geometry import ball, box, interval
from loglap.spectrum import (
    eig_symmetric,
    envelope_samples,
    spectrum_from_values,
    weyl_diagnostics,
)
from oracles import eigvals_charpoly


def _toeplitz_form(first_row):
    """A form whose matrix is the symmetric Toeplitz matrix with this first
    row, on a hand-built interval grid of as many unit cells (unit mass)."""
    n = len(first_row)
    grid = Grid(domain=interval(0.0, float(n)), h=1.0, corner=(0,), mask=np.ones(n, dtype=bool))
    return QuadFormMatrix(grid=grid, table=np.asarray(first_row, dtype=float))


def test_small_matrices():
    s = eig_symmetric(_toeplitz_form([2.0, 1.0]), 2)
    assert np.allclose(s.eigenvalues, [1.0, 3.0], atol=1e-12)
    s = eig_symmetric(_toeplitz_form([0.0, 1.0, 0.0]), 3)
    r2 = math.sqrt(2.0)
    assert np.allclose(s.eigenvalues, [-r2, 0.0, r2], atol=1e-12)
    s = eig_symmetric(_toeplitz_form([1.0, 0.0, 0.0, 0.0, 0.0]), 3)
    assert np.allclose(s.eigenvalues, 1.0)
    assert s.k == 3


def test_eigensolver_against_charpoly_oracle():
    # intervals of 3-6 cells and boxes of 2 x 3 and 3 x 2 cells, of random
    # size.  A form's eigenvalues cluster near its diagonal entry, far from
    # zero, where a polynomial's roots are ill-conditioned (and a 2 x 2 box
    # has a double eigenvalue, whose roots lose half the digits), so the
    # oracle runs on A minus its diagonal, which is exact, and adds it back.
    rng = np.random.default_rng(0)
    worst = 0.0
    for i in range(100):
        if i % 2 == 0:
            cells = int(rng.integers(3, 7))
            length = rng.uniform(0.1, 0.5 * cells)
            grid = build_grid(interval(0.0, length), length / cells)
        else:
            h = rng.uniform(0.02, 0.5)
            sides = (2 * h, 3 * h) if i % 4 == 1 else (3 * h, 2 * h)
            grid = build_grid(box((0.0, 0.0), sides), h)
        form = offset_form(grid)
        a = assemble_form(form)
        got = eig_symmetric(form, grid.count).eigenvalues
        want = (eigvals_charpoly(a - a[0, 0] * np.eye(grid.count)) + a[0, 0]) / form.mass_scale
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst <= 1e-9


def test_mass_scale_and_residuals():
    # each value lambda is an eigenvalue of A / massScale: some unit v has
    # ||A v - lambda * massScale * v|| (the smallest singular value) near zero
    m = offset_form(build_grid(interval(-1.0, 1.0), 1.0 / 32.0))
    s = eig_symmetric(m, 10)
    assert np.all(np.diff(s.eigenvalues) >= -1e-14)
    shift = np.eye(m.grid.count) * m.mass_scale
    for lam in s.eigenvalues:
        r = np.linalg.svd(assemble_form(m) - lam * shift, compute_uv=False)[-1]
        assert r <= 1e-8 * (1.0 + abs(lam)) * m.mass_scale
    # the whole record: LAPACK in both sectors leaves no matvec and no residual
    assert s.source == {"cells": 64, "sectors": [32, 32], "solvers": ["lapack", "lapack"],
                        "matvecs": 0, "restarts": [[], []], "reorthogonalized": [[], []],
                        "max_residual": None}


def test_eigensolver_deterministic():
    m = offset_form(build_grid(interval(-1.0, 1.0), 1.0 / 32.0))
    a = eig_symmetric(m, 10).eigenvalues
    b = eig_symmetric(m, 10).eigenvalues
    assert np.array_equal(a, b)


@pytest.fixture(scope="module")
def ball_3080():
    """The R=4, h=1/8 ball (3,080 cells) with LAPACK's 30 smallest eigenvalues."""
    form = offset_form(build_grid(ball((0.0, 0.0), 4.0), 0.125))
    lapack = np.linalg.eigvalsh(assemble_form(form))[:30] / form.mass_scale
    return form, lapack


def _lapack_on_the_blocks(form, k):
    """The k smallest eigenvalues of the form's A / massScale, by LAPACK on its blocks."""
    blocks = [form.block(i) for i in range(len(form.sectors.counts))]
    return np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))[:k] / form.mass_scale


def _sector_lanczos(form, k, ledger=None):
    """Each sector's Lanczos solve for its first share of k, stepped together
    on one ledger of k as by eig_symmetric (``ledger=False``: each on a fresh
    ledger of its own share, so every wanted pair converges): per sector
    (values, Ritz vectors, converged, restarts, steps orthogonalized twice)
    in the sectors' order, and the matvecs."""
    counts = form.sectors.counts
    if ledger is None:
        ledger = spectrum_module._Ledger(k)
    runs = {}
    for i, count in enumerate(counts):
        share = spectrum_module._first_share(k, count, form.grid.count)
        runs[i] = spectrum_module._thick_restart(
            count, share, ledger or spectrum_module._Ledger(share), i)
    solved, matvecs = spectrum_module._lockstep(form, runs)
    return [solved[i] for i in range(len(counts))], matvecs


def test_lanczos_matches_lapack_on_double_eigenvalues(ball_3080):
    # the ball's symmetry makes seven of these eigenvalues double: the
    # diagonal reflection swaps the (+,-) and (-,+) sectors (places 1 and 2),
    # and each double comes back as one copy from each
    form, lapack = ball_3080
    s = eig_symmetric(form, 30)
    assert s.source["solvers"] == ["lanczos"] * 4
    assert np.sum(np.diff(lapack) < 1e-9) == 7
    assert np.max(np.abs(s.eigenvalues - lapack)) <= 1e-12
    ev = s.eigenvalues
    doubles = np.flatnonzero(np.diff(ev) <= 1e-13 * np.abs(ev[1:]))
    assert doubles.size == 7
    assert s.source["matvecs"] > 30
    assert s.source["max_residual"] <= 1e-12 * form.mass_scale
    # each sector was solved once, for its first share: the same solves again
    solved = _sector_lanczos(form, 30)[0]
    assert [[restarts] for *_, restarts, _ in solved] == s.source["restarts"]
    assert [[second] for *_, second in solved] == s.source["reorthogonalized"]
    for i in doubles:
        for place, (values, _, converged, _, _) in enumerate(solved):
            copies = np.abs(values[converged] / form.mass_scale - ev[i]) <= 1e-13 * abs(ev[i])
            assert np.count_nonzero(copies) == (1 if place in (1, 2) else 0)
    # the Ritz vectors behind max_residual are orthonormal in each sector
    for _, vectors, *_ in solved:
        assert np.allclose(vectors @ vectors.T, np.eye(len(vectors)), atol=1e-12)


def test_lanczos_ritz_vectors_stay_orthonormal_at_a_large_k(ball_3080):
    # 75 values in every sector, a basis of 151 vectors in each of the four
    # sectors of about 770 cells: the second Gram-Schmidt pass runs only
    # when the DGKS test asks for it, and the unit Ritz vectors stay
    # orthonormal to rounding
    form, _ = ball_3080
    solved, _ = spectrum_module._lockstep(form, {
        i: spectrum_module._thick_restart(count, 75, spectrum_module._Ledger(75), i)
        for i, count in enumerate(form.sectors.counts)})
    for i in range(len(form.sectors.counts)):
        values, vectors, converged, _, _ = solved[i]
        assert converged.all()  # a fresh ledger of 75 certifies no pair
        assert np.max(np.abs(vectors @ vectors.T - np.eye(75))) <= 1e-12
        assert np.max(np.abs(values - np.linalg.eigvalsh(form.block(i))[:75])) <= 1e-12


def test_lanczos_second_pass_restores_orthogonality_after_cancellation():
    # a product whose component along the start vector is about 1e6 times
    # its new direction: one Gram-Schmidt pass leaves rounding of eps * 1e6
    # along the basis, the DGKS test asks for the second pass, and the next
    # Lanczos vector is orthogonal to the earlier ones to rounding
    a = np.linspace(1.0, 2.0, 200)
    run = spectrum_module._thick_restart(200, 2, spectrum_module._Ledger(2), 0)
    vectors = [next(run).copy()]
    for _ in range(3):
        vectors.append(run.send(a * vectors[-1]).copy())
    vectors.append(run.send(a * vectors[-1] + 1e6 * vectors[0]).copy())
    v = np.array(vectors)
    assert np.max(np.abs(v[:-1] @ v[-1])) <= 1e-14
    run.close()


@pytest.mark.parametrize("domain, h, k", [
    (ball((0.0, 0.0), 4.0), 0.125, 1),
    (ball((0.0, 0.0), 4.0), 0.125, 10),
    (ball((0.0, 0.0), 4.0), 0.125, 30),
    (interval(-1.0, 1.0), 2.0 / 2048.0, 60),
], ids=["ball-3080-k1", "ball-3080-k10", "ball-3080-k30", "interval-2048-k60"])
def test_lanczos_on_a_fresh_ledger_converges_every_pair(domain, h, k):
    # a ledger of k that only this solve posts to bounds by the k-th smallest
    # of the solve's own m > k Ritz values, which no wanted value exceeds: it
    # certifies nothing, and every pair comes back converged
    form = offset_form(build_grid(domain, h))
    solved, _ = spectrum_module._lockstep(form, {
        i: spectrum_module._thick_restart(count, k, spectrum_module._Ledger(k), i)
        for i, count in enumerate(form.sectors.counts)})
    for i, (values, _, converged, _, _) in solved.items():
        assert converged.all()
        assert np.max(np.abs(values - np.linalg.eigvalsh(form.block(i))[:k])) <= 1e-12


def test_lanczos_matches_lapack_on_an_interval():
    form = offset_form(build_grid(interval(-1.0, 1.0), 2.0 / 2048.0))
    s = eig_symmetric(form, 10)
    assert s.source["solvers"] == ["lanczos"] * 2
    lapack = np.linalg.eigvalsh(assemble_form(form))[:10] / form.mass_scale
    assert np.max(np.abs(s.eigenvalues - lapack)) <= 1e-12


def test_repeated_lanczos_solves_are_bit_identical(ball_3080):
    form, _ = ball_3080
    a = eig_symmetric(form, 10)
    b = eig_symmetric(form, 10)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert a.source == b.source
    (solved_a, steps_a), (solved_b, steps_b) = (_sector_lanczos(form, 10) for _ in range(2))
    for (vals_a, vecs_a, conv_a, *counts_a), (vals_b, vecs_b, conv_b, *counts_b) in zip(
            solved_a, solved_b):
        assert np.array_equal(vals_a, vals_b) and np.array_equal(vecs_a, vecs_b)
        assert np.array_equal(conv_a, conv_b) and counts_a == counts_b
    assert steps_a == steps_b
    assert [[restarts] for *_, restarts, _ in solved_a] == a.source["restarts"]


@pytest.mark.parametrize("domain, h, k", [
    (interval(-1.0, 1.0), 2.0 / 4096.0, 60),
    (ball((0.0, 0.0), 4.0), 0.125, 10),
], ids=["interval-4096-k60", "ball-3080-k10"])
def test_lanczos_work_does_not_move_with_the_last_bit(domain, h, k):
    # the table scaled by factors within 3 * 2^-52 of 1 changes the products'
    # last bits; the convergence test sits far above rounding, so every
    # scaling takes the same matvecs (217 and 55 on two cores; a test at
    # rounding's floor took the interval 274 or 255)
    form = offset_form(build_grid(domain, h))
    counts = {eig_symmetric(QuadFormMatrix(grid=form.grid, table=form.table * scale), k)
              .source["matvecs"] for scale in (1.0, 1.0 + 2.0**-52, 1.0 - 2.0**-52,
                                               1.0 + 3 * 2.0**-52, 1.0 - 3 * 2.0**-52)}
    assert len(counts) == 1


class _RecordingLedger(spectrum_module._Ledger):
    """A ledger that keeps every sector's posted values, restart by restart."""

    def __init__(self, k):
        super().__init__(k)
        self.history = {}

    def post(self, place, values):
        self.history.setdefault(place, []).append(values.copy())
        return super().post(place, values)


def test_ledger_bound_is_never_below_lambda_k(ball_3080):
    # the k-th smallest of one set of values per sector, for any subset of
    # the sectors, each set the Ritz values a sector posted at some restart
    # or its block's exact eigenvalues, is at least the whole's lambda_k
    form, _ = ball_3080
    k = 10
    ledger = _RecordingLedger(k)
    solved, _ = _sector_lanczos(form, k, ledger)
    exact = [np.linalg.eigvalsh(form.block(i)) for i in range(len(solved))]
    lambda_k = np.sort(np.concatenate(exact))[k - 1]
    choices = [[None, exact[i], *ledger.history[i]] for i in range(len(solved))]
    bounds = []
    for pick in itertools.product(*choices):
        posted = [values for values in pick if values is not None]
        if sum(values.size for values in posted) >= k:
            bounds.append(np.sort(np.concatenate(posted))[k - 1])
    assert len(bounds) > 500
    # to rounding, which here is about eps times the spectral radius
    radius = max(np.max(np.abs(values)) for values in exact)
    assert min(bounds) >= lambda_k - 1e-14 * radius
    # the solve used the bound: some wanted pairs were certified, not
    # converged, and each lies above lambda_k
    open_values = np.concatenate([values[~converged] for values, _, converged, _, _ in solved])
    assert open_values.size > 0 and open_values.min() > lambda_k


def test_certified_stop_takes_fewer_matvecs(ball_3080):
    # ball2d-lowk's solve: 4 values asked of each of the four sectors, 10 kept
    form, _ = ball_3080
    certified, with_ledger = _sector_lanczos(form, 10)
    everything, without = _sector_lanczos(form, 10, ledger=False)
    assert with_ledger < without
    assert all(converged.all() for _, _, converged, _, _ in everything)
    # the converged values agree, and the 10 smallest of them are the answer
    kept = np.sort(np.concatenate([values[converged] for values, _, converged, _, _ in certified]))
    assert np.max(np.abs(kept[:10] - np.sort(np.concatenate(
        [values for values, *_ in everything]))[:10])) <= 1e-12 * form.mass_scale


def test_a_ledger_bound_below_lambda_k_raises_numerics_error(monkeypatch, ball_3080):
    # a bound at lambda_1 certifies every pair that has not converged at the
    # first restart; the sectors stop there, and the merge needs open pairs.
    # (A bound that certifies a needed pair but leaves its sector running,
    # say between lambda_8 and lambda_9 = lambda_10 here, is harmless: the
    # pair is refined on and has converged by the end.)
    form, _ = ball_3080
    wrong = min(np.linalg.eigvalsh(form.block(i))[0] for i in range(len(form.sectors.counts)))
    post = spectrum_module._Ledger.post
    monkeypatch.setattr(spectrum_module._Ledger, "post",
                        lambda self, place, values: min(post(self, place, values), wrong))
    with pytest.raises(NumericsError, match="certified above the k-th eigenvalue"):
        eig_symmetric(form, 10)


def _largest_lanczos_k(cells, n):
    """The largest k whose first share of a sector of ``cells`` of n cells runs Lanczos."""
    return max(k for k in range(1, n + 1) if spectrum_module._uses_lanczos(
        cells, spectrum_module._first_share(k, cells, n)))


def test_lanczos_matches_lapack_at_the_solver_limit():
    # the largest k the rule gives Lanczos at 2,048 cells: its widest basis
    # at this size
    form = offset_form(build_grid(interval(-1.0, 1.0), 2.0 / 2048.0))
    k = _largest_lanczos_k(1024, 2048)
    s = eig_symmetric(form, k)
    assert s.source["solvers"] == ["lanczos"] * 2
    lapack = np.linalg.eigvalsh(assemble_form(form))[:k] / form.mass_scale
    assert np.max(np.abs(s.eigenvalues - lapack)) <= 1e-12


def test_lanczos_breakdown_raises_numerics_error(monkeypatch):
    # A = 2 I: A v lies in span{v}, so the first Lanczos step finds no new direction
    form = offset_form(build_grid(interval(-1.0, 1.0), 2.0 / 2048.0))
    monkeypatch.setattr(QuadFormMatrix, "matvec", lambda self, v: 2.0 * v)
    with pytest.raises(NumericsError, match="Lanczos broke down after 1 matvecs"):
        eig_symmetric(form, 10)


LANCZOS_GRIDS = {
    "interval-odd": (interval(-1.0, 1.0), 2.0 / 601.0),
    "box": (box((0.0, 0.0), (2.0, 1.5)), 1.0 / 16.0),
    "square-odd": (box((0.0, 0.0), (1.9375, 1.9375)), 1.0 / 16.0),
    "ball": (ball((0.0, 0.0), 2.0), 0.125),
    "ball-off-center": (ball((0.3, -1.0), 2.0), 0.125),
    "ball-centered-odd": (ball((0.0, 0.0), 2.5), 0.2),
}


@pytest.mark.parametrize("name", [*LANCZOS_GRIDS, "no-mirror-axis"])
def test_lanczos_matches_lapack_on_the_blocks(monkeypatch, name):
    # grids of 437-961 cells at k = n/28, with both limits of the rule
    # lowered to the least the breakdown guard allows, so that Lanczos runs
    # in every sector, also when the merge asks a sector again; the odd
    # lattices have cells on their mirror lines, so their sectors differ in
    # size
    monkeypatch.setattr(spectrum_module, "_LANCZOS_MIN_SECTOR", 41)
    monkeypatch.setattr(spectrum_module, "_LANCZOS_CELLS_PER_VALUE", 5)
    grid = build_grid(*LANCZOS_GRIDS.get(name, LANCZOS_GRIDS["ball"]))
    if name == "no-mirror-axis":
        grid = _without_cell(grid, 0)
    form = offset_form(grid)
    k = grid.count // 28
    s = eig_symmetric(form, k)
    assert s.source["solvers"] == ["lanczos"] * 2 ** len(grid.mirror_axes)
    assert sum(s.source["sectors"]) == grid.count
    want = _lapack_on_the_blocks(form, k)
    assert np.max(np.abs(s.eigenvalues - want) / np.abs(want)) <= 1e-12


def test_sector_merge_solves_a_short_sector_again(monkeypatch, ball_3080):
    # with each sector's Weyl share alone asked first, three values of each
    # of the four sectors, the merged tenth value (0.97) lies above sector
    # 0's third (0.40), so sector 0 may hold more of the ten and is solved
    # again; sector 3, whose third (1.39) lies above it, is not
    monkeypatch.setattr(spectrum_module, "_first_share",
                        lambda k, cells, n: math.ceil(k * cells / n))
    form, _ = ball_3080
    s = eig_symmetric(form, 10)
    restarts = s.source["restarts"]
    assert len(restarts[0]) > 1 and len(restarts[3]) == 1
    want = _lapack_on_the_blocks(form, 10)
    assert np.max(np.abs(s.eigenvalues - want) / np.abs(want)) <= 1e-12


def test_sector_merge_asks_again_under_the_first_share_rule(ball_3080):
    # the rule's own first shares at k = 16 leave sector 0's largest value
    # below the merged 16th, so sector 0 is solved in a second round and
    # the others in one
    form, _ = ball_3080
    s = eig_symmetric(form, 16)
    assert s.source["solvers"] == ["lanczos"] * 4
    assert [len(solves) for solves in s.source["restarts"]] == [2, 1, 1, 1]
    want = _lapack_on_the_blocks(form, 16)
    assert np.max(np.abs(s.eigenvalues - want) / np.abs(want)) <= 1e-12


def test_sectors_up_to_twice_the_lanczos_basis_are_solved_by_lapack(monkeypatch):
    # a row of 512 cells on the first axis's mirror line, with five cells at
    # each end of the rows above and below it: the sign patterns with -1 on
    # the first axis have 5 cells each, fewer than the 20 Lanczos vectors;
    # with the sector floor lowered to the least the breakdown guard allows,
    # the two 261-cell sectors run Lanczos
    monkeypatch.setattr(spectrum_module, "_LANCZOS_MIN_SECTOR", 41)
    mask = np.zeros((3, 512), dtype=bool)
    mask[1] = True
    mask[::2, :5] = mask[::2, -5:] = True
    h = 1.0 / 16.0
    grid = Grid(domain=box((0.0, 0.0), (3 * h, 512 * h)), h=h, corner=(0, 0), mask=mask)
    form = offset_form(grid)
    s = eig_symmetric(form, 10)
    assert s.source["sectors"] == [261, 261, 5, 5]
    assert s.source["solvers"] == ["lanczos", "lanczos", "lapack", "lapack"]
    assert [len(solves) for solves in s.source["restarts"]] == [1, 1, 0, 0]
    want = _lapack_on_the_blocks(form, 10)
    assert np.max(np.abs(s.eigenvalues - want) / np.abs(want)) <= 1e-12
    # asked for 90 values, a 183-cell sector of the 732-cell ball would get
    # 181 Lanczos vectors, and its Krylov space would become invariant
    monkeypatch.setattr(spectrum_module, "_first_share", lambda k, cells, n: 90)
    form = offset_form(build_grid(ball((0.0, 0.0), 2.0), 0.125))
    s = eig_symmetric(form, 5)
    assert s.source["sectors"] == [183] * 4 and s.source["restarts"] == [[]] * 4
    want = _lapack_on_the_blocks(form, 5)
    assert np.max(np.abs(s.eigenvalues - want) / np.abs(want)) <= 1e-12


def _box(nx, ny):
    return build_grid(box((0.0, 0.0), (nx / 16.0, ny / 16.0)), 1.0 / 16.0)


# (grid, k, sectors, solvers); k = "last" is the largest k whose first share
# the rule gives Lanczos, "first" the next one
_SECTOR_CHOICES = {
    # under the old 2,048-cell floor this grid paid about 8x at small k
    "interval-2047-k10": (lambda: build_grid(interval(-1.0, 1.0), 2.0 / 2047.0), 10,
                          [1024, 1023], ["lanczos", "lanczos"]),
    "interval-1024-k10": (lambda: build_grid(interval(-1.0, 1.0), 2.0 / 1024.0), 10,
                          [512, 512], ["lanczos", "lanczos"]),
    "interval-512-k10": (lambda: build_grid(interval(-1.0, 1.0), 2.0 / 512.0), 10,
                         [256, 256], ["lanczos", "lanczos"]),
    "interval-511-k10": (lambda: build_grid(interval(-1.0, 1.0), 2.0 / 511.0), 10,
                         [256, 255], ["lanczos", "lapack"]),
    "interval-2048-last": (lambda: build_grid(interval(-1.0, 1.0), 2.0 / 2048.0), "last",
                           [1024, 1024], ["lanczos", "lanczos"]),
    "interval-2048-first": (lambda: build_grid(interval(-1.0, 1.0), 2.0 / 2048.0), "first",
                            [1024, 1024], ["lapack", "lapack"]),
    "box-32x64-k10": (lambda: _box(32, 64), 10, [512] * 4, ["lanczos"] * 4),
    "box-32x32-k10": (lambda: _box(32, 32), 10, [256] * 4, ["lanczos"] * 4),
    "box-31x32-k10": (lambda: _box(31, 32), 10, [256, 256, 240, 240],
                      ["lanczos", "lanczos", "lapack", "lapack"]),
    "box-32x64-last": (lambda: _box(32, 64), "last", [512] * 4, ["lanczos"] * 4),
    "box-32x64-first": (lambda: _box(32, 64), "first", [512] * 4, ["lapack"] * 4),
}


@pytest.mark.parametrize("name", _SECTOR_CHOICES)
def test_sector_solver_choice_at_the_limits(name):
    # each sector picks its solver from its cells c and the values j asked
    # of it: Lanczos when c >= _LANCZOS_MIN_SECTOR (256) and
    # c >= _LANCZOS_CELLS_PER_VALUE * j, on either side of both limits
    make, k, sectors, solvers = _SECTOR_CHOICES[name]
    form = offset_form(make())
    assert form.sectors.counts == sectors
    if k in ("last", "first"):
        k = _largest_lanczos_k(sectors[0], form.grid.count) + (k == "first")
    s = eig_symmetric(form, k)
    assert s.source["solvers"] == solvers
    # no sector was asked again, so the choice is that of the first share
    assert [len(solves) for solves in s.source["restarts"]] == [
        int(solver == "lanczos") for solver in solvers]
    want = _lapack_on_the_blocks(form, k)
    assert np.max(np.abs(s.eigenvalues - want) / np.abs(want)) <= 1e-12


def test_lanczos_sectors_hold_more_than_twice_their_basis():
    # the rule's two limits, and the breakdown guard it keeps: every (c, j)
    # it sends to Lanczos has more than twice the Lanczos basis in cells
    floor = spectrum_module._LANCZOS_MIN_SECTOR
    ratio = spectrum_module._LANCZOS_CELLS_PER_VALUE
    uses_lanczos = spectrum_module._uses_lanczos
    assert uses_lanczos(floor, 1) and not uses_lanczos(floor - 1, 1)
    assert uses_lanczos(ratio * 100, 100) and not uses_lanczos(ratio * 100 - 1, 100)
    too_small = [(c, j) for c in range(1, 2 * floor + 1) for j in range(1, c + 1)
                 if uses_lanczos(c, j) and not c > 2 * spectrum_module._basis_size(j)]
    assert too_small == []


def _splitmix64(n):
    """The first n outputs of SplitMix64 from seed 0, in Python integers."""
    mask, state, out = 2**64 - 1, 0, []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def test_start_vector_is_a_fixed_splitmix64_stream():
    v = spectrum_module._start_vector(1000)
    assert np.array_equal(v, spectrum_module._start_vector(1000))
    words = _splitmix64(1000)
    assert words[0] == 0xE220A8397B1DCDAF  # SplitMix64's first output from seed 0
    assert np.array_equal(v, [(z >> 11) * 2.0**-53 - 0.5 for z in words])
    assert v.min() >= -0.5 and v.max() < 0.5


@pytest.mark.parametrize("domain, h", [
    (ball((0.0, 0.0), 4.0), 0.125),
    (interval(-1.0, 1.0), 2.0 / 2047.0),
], ids=["ball-3080", "interval-2047"])
def test_start_vector_reaches_both_parity_sectors(domain, h):
    # a start vector without a component in some sign pattern of the grid's
    # mirror axes would miss that block's part of the spectrum; in 2D the
    # point reflection's even and odd parts split into two patterns each
    grid = build_grid(domain, h)
    assert grid.mirror_axes == tuple(range(grid.dim))
    v = spectrum_module._start_vector(grid.count)
    norm = np.linalg.norm(v)
    # the point reflection reverses the lexicographic cell order
    assert np.linalg.norm(v + v[::-1]) / 2.0 >= 0.3 * norm
    assert np.linalg.norm(v - v[::-1]) / 2.0 >= 0.3 * norm
    idx = grid.indices
    span = idx.max(axis=0) + 1
    order = np.ravel_multi_index(tuple(idx.T), span)  # ascending
    for signs in itertools.product((1, -1), repeat=grid.dim):
        part = np.zeros(grid.count)
        for flips in itertools.product((False, True), repeat=grid.dim):
            mirrored = np.where(flips, span - 1 - idx, idx)
            part += math.prod(e for e, f in zip(signs, flips) if f) * v[
                np.searchsorted(order, np.ravel_multi_index(tuple(mirrored.T), span))]
        assert np.linalg.norm(part) / 2**grid.dim >= 0.3 * norm


SPLIT_GRIDS = {
    "interval-even": (interval(-1.0, 1.0), 2.0 / 64.0),
    "interval-odd": (interval(-1.0, 1.0), 2.0 / 63.0),
    "box": (box((0.0, 0.0), (2.0, 1.5)), 0.125),
    "ball": (ball((0.3, -1.0), 2.0), 0.125),
    "square-odd": (box((0.0, 0.0), (1.875, 1.875)), 0.125),
    "ball-centered-odd": (ball((0.0, 0.0), 1.3), 0.2),
}
# block sizes: a 15 x 15 square and the ball's 13 x 13 lattice have cells on
# both mirror lines, which the patterns with a -1 drop
SPLIT_SECTORS = {
    "interval-even": [32, 32], "interval-odd": [32, 31], "box": [48] * 4, "ball": [183] * 4,
    "square-odd": [64, 56, 56, 49], "ball-centered-odd": [31, 25, 25, 20],
}


def _without_cell(grid: Grid, i: int) -> Grid:
    mask = grid.mask.copy()
    mask[tuple(grid.indices[i])] = False
    return Grid(domain=grid.domain, h=grid.h, corner=grid.corner, mask=mask)


@pytest.mark.parametrize("name", SPLIT_GRIDS)
def test_split_matches_the_full_lapack_solve(name):
    form = offset_form(build_grid(*SPLIT_GRIDS[name]))
    n = form.grid.count
    full = np.linalg.eigvalsh(assemble_form(form)) / form.mass_scale
    s = eig_symmetric(form, n)
    assert s.source["sectors"] == SPLIT_SECTORS[name]
    assert s.source["solvers"] == ["lapack"] * len(SPLIT_SECTORS[name])
    assert sum(s.source["sectors"]) == n
    assert np.max(np.abs(s.eigenvalues - full) / np.abs(full)) <= 1e-12


@pytest.mark.parametrize("name", SPLIT_GRIDS)
def test_split_keeps_the_k_smallest_of_both_blocks(name):
    # k = 40 < n: the merge of the blocks' values keeps the 40 smallest of
    # A, and each block holds some of them
    form = offset_form(build_grid(*SPLIT_GRIDS[name]))
    full = np.linalg.eigvalsh(assemble_form(form))[:40] / form.mass_scale
    s = eig_symmetric(form, 40)
    assert np.max(np.abs(s.eigenvalues - full) / np.abs(full)) <= 1e-12
    for i in range(len(form.sectors.counts)):
        assert np.linalg.eigvalsh(form.block(i))[0] / form.mass_scale <= s.eigenvalues[-1]


def test_asymmetric_grid_takes_the_full_lapack_path():
    grid = _without_cell(build_grid(*SPLIT_GRIDS["ball"]), 0)
    assert grid.mirror_axes == ()
    form = offset_form(grid)
    s = eig_symmetric(form, grid.count)
    assert s.source == {"cells": grid.count, "sectors": [grid.count], "solvers": ["lapack"],
                        "matvecs": 0, "restarts": [[]], "reorthogonalized": [[]],
                        "max_residual": None}
    assert np.array_equal(s.eigenvalues, np.linalg.eigvalsh(assemble_form(form)) / form.mass_scale)


def test_split_needs_a_quarter_of_the_memory(monkeypatch):
    # 64 cells: the whole matrix plus LAPACK's copy needs 64 KiB; the
    # largest of the two blocks, 32 x 32, plus its copy 16 KiB
    real_sysconf = os.sysconf
    ram = {"SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf", lambda name: ram.get(name) or real_sysconf(name))
    grid = build_grid(interval(-1.0, 1.0), 2.0 / 64.0)
    lopsided = _without_cell(grid, 1)
    ram["SC_PHYS_PAGES"] = 12  # 48 KiB
    assert eig_symmetric(offset_form(grid), 5).source["sectors"] == [32, 32]
    # without a mirror axis the one block is the whole 63 x 63 matrix
    with pytest.raises(ValueError, match="63 x 63 block plus LAPACK's copy"):
        eig_symmetric(offset_form(lopsided), 5)
    ram["SC_PHYS_PAGES"] = 3  # 12 KiB: the 8 KiB block fits, its copy does not
    with pytest.raises(ValueError, match="32 x 32 block plus LAPACK's copy"):
        eig_symmetric(offset_form(grid), 5)


@pytest.mark.parametrize("domain, h, k", [
    (interval(-1.0, 1.0), 2.0 / 2048.0, 512),
    (ball((0.0, 0.0), 4.0), 0.125, 300),
], ids=["interval-2048-k512", "ball-3080-k300"])
def test_lapack_solve_is_the_sorted_block_spectra_bit_for_bit(monkeypatch, domain, h, k):
    # with LAPACK in every sector the solve is the k smallest of all the
    # blocks' eigvalsh values, scaled: the same bits, not merely close ones;
    # a sector solved whole is never asked again, so each block is gathered once
    gathered = []
    block = QuadFormMatrix.block
    monkeypatch.setattr(QuadFormMatrix, "block",
                        lambda self, place: gathered.append(self.sectors.counts[place])
                        or block(self, place))
    form = offset_form(build_grid(domain, h))
    s = eig_symmetric(form, k)
    assert s.source["solvers"] == ["lapack"] * len(s.source["sectors"])
    assert gathered == s.source["sectors"]
    assert s.source["matvecs"] == 0 and s.source["max_residual"] is None
    assert np.array_equal(s.eigenvalues, _lapack_on_the_blocks(form, k))


@pytest.mark.parametrize("grid", [
    build_grid(interval(-1.0, 1.0), 2.0 / 1024.0),
    build_grid(ball((0.0, 0.0), 4.0), 0.125),
    build_grid(box((0.0, 0.0), (1.9375, 1.9375)), 1.0 / 16.0),
], ids=["interval-1024", "ball-3080", "square-31x31"])
def test_lambda_1_is_simple_and_in_the_fully_symmetric_sector(grid):
    # every off-diagonal slot of the offset table is negative, so A is an
    # irreducible Z-matrix; by Perron-Frobenius (on c I - A) lambda_1 is
    # simple with a positive eigenvector, which every reflection fixes, so
    # it is the smallest eigenvalue of the first sector's block, and every
    # other block's smallest eigenvalue lies strictly above it
    form = offset_form(grid)
    assert np.all(form.table.ravel()[1:] < 0.0)
    smallest = [np.linalg.eigvalsh(form.block(e))[0] / form.mass_scale
                for e in range(len(form.sectors.counts))]
    assert abs(eig_symmetric(form, 1).eigenvalues[0] - smallest[0]) <= 1e-12
    assert min(smallest[1:]) > smallest[0]


def test_lapack_solve_holds_one_block_at_a_time():
    # the 2,048-cell interval at k = 512: two blocks of 1,024 x 1,024, 8 MiB
    # each; each sector's block is gathered, solved and freed before the
    # next sector's is gathered
    form = offset_form(build_grid(interval(-1.0, 1.0), 2.0 / 2048.0))
    tracemalloc.start()
    try:
        s = eig_symmetric(form, 512)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert s.source["solvers"] == ["lapack"] * 2 and s.source["sectors"] == [1024, 1024]
    assert peak < 2 * 8 * 1024 * 1024


def test_interval_spectrum_lies_within_the_range_of_its_toeplitz_symbol():
    # The matrix is the n x n section of the Toeplitz matrix of its table a,
    # so its eigenvalues over h lie between the extremes of the symbol
    # f(theta) = (a_0 + 2 sum_m a_m cos(m theta)) / h (Grenander & Szegő,
    # Toeplitz Forms, 1958).  Every a_m with m > 0 is negative, so f is
    # least at 0; on a grid it is greatest at pi.  Measured: lambda_max =
    # 16.8302259, 4.9e-4 below f(pi) = 16.8307156; lambda_min = -0.688 above
    # f(0) = -2.540.  Both values come from LAPACK on the two sector blocks.
    form = offset_form(build_grid(interval(-1.0, 1.0), 2.0 / 2048))
    a, h = form.table, form.grid.h
    m = np.arange(1, a.size)
    theta = np.linspace(0.0, math.pi, 1025)
    f = (a[0] + 2.0 * np.cos(np.outer(theta, m)) @ a[1:]) / h
    top = (a[0] + 2.0 * np.sum((-1.0) ** m * a[1:])) / h
    assert np.argmax(f) == theta.size - 1 and abs(f[-1] - top) <= 1e-13 * top
    s = eig_symmetric(form, form.grid.count)
    assert s.source["solvers"] == ["lapack", "lapack"]
    assert (a[0] + 2.0 * np.sum(a[1:])) / h <= s.eigenvalues[0]
    assert 0.0 < top - s.eigenvalues[-1] <= 1e-3


def test_ball_spectrum_lies_below_its_box_symbol_at_pi_pi(ball_3080):
    # The ball's matrix is a principal submatrix of its box's block-Toeplitz
    # section, so its eigenvalues over h^2 lie within the range of the
    # table's symbol f(theta) = sum_{a,b} w_a w_b table[a, b] cos(a theta_1)
    # cos(b theta_2) / h^2, w = 1 at offset 0 and 2 elsewhere: least at
    # (0, 0), where every off-diagonal slot is negative, and on a grid
    # greatest at (pi, pi).  Measured: lambda_max = 8.192168, 1.45e-3 below
    # f(pi, pi) = 8.193621, from LAPACK on the four sector blocks.
    form = ball_3080[0]
    t, h = form.table, form.grid.h
    theta = np.linspace(0.0, math.pi, 129)
    w0, w1 = (np.where(np.arange(size) == 0, 1.0, 2.0) for size in t.shape)
    c0, c1 = (w * np.cos(np.outer(theta, np.arange(w.size))) for w in (w0, w1))
    f = c0 @ t @ c1.T / h**2
    s0, s1 = (w * (-1.0) ** np.arange(w.size) for w in (w0, w1))  # cos(a pi) = (-1)^a
    top = float(s0 @ t @ s1) / h**2
    assert np.unravel_index(np.argmax(f), f.shape) == (128, 128)
    assert abs(f[-1, -1] - top) <= 1e-13 * top
    s = eig_symmetric(form, form.grid.count)
    assert s.source["solvers"] == ["lapack"] * 4
    assert float(w0 @ t @ w1) / h**2 <= s.eigenvalues[0]
    assert 0.0 < top - s.eigenvalues[-1] <= 2e-3


@pytest.mark.parametrize("small, large, k", [
    (interval(-0.5, 0.5), interval(-1.0, 1.0), 8),        # LAPACK, 64 cells
    (ball((0.0, 0.0), 1.0), ball((0.0, 0.0), 2.0), 8),    # LAPACK, 180 cells
    (box((0.0, 0.0), (4.0, 4.0)), box((0.0, 0.0), (8.0, 8.0)), 10),  # Lanczos, 4,096 cells
], ids=["interval", "ball", "box-lanczos"])
def test_discrete_dilation_identity(small, large, k):
    # dilating the domain and the grid by R = 2 shifts every discrete
    # eigenvalue by exactly -2 ln 2
    h = {1: 1.0 / 64.0, 2: 1.0 / 16.0}[small.dim]
    a = eig_symmetric(offset_form(build_grid(small, h)), k)
    b = eig_symmetric(offset_form(build_grid(large, 2.0 * h)), k)
    assert a.source["solvers"] == b.source["solvers"]
    assert a.source["cells"] == b.source["cells"]
    assert np.max(np.abs(b.eigenvalues - (a.eigenvalues - 2.0 * math.log(2.0)))) <= 1e-12


@st.composite
def dilation_cases(draw):
    """(domain builder taking R, h, R) for a domain of at most 600 cells, h and R*h <= 1/2."""
    r = draw(st.floats(0.5, 3.5))
    h = draw(st.floats(0.02, 0.5 / max(1.0, r)))
    x0, y0 = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
    kind = draw(st.sampled_from(["interval", "box", "ball"]))
    if kind == "interval":
        n = draw(st.integers(8, 600))
        return (lambda s: interval(s * x0, s * (x0 + n * h))), h, r
    if kind == "box":
        nx = draw(st.integers(3, 40))
        ny = draw(st.integers(3, 600 // nx))
        return (lambda s: box((s * x0, s * y0), (s * nx * h, s * ny * h))), h, r
    m = draw(st.integers(3, 13))  # pi m^2 <= 531 cells
    return (lambda s: ball((s * x0, s * y0), s * m * h)), h, r


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(case=dilation_cases())
def test_discrete_dilation_identity_property(case):
    # lambda_k(R*Omega, R*h) = lambda_k(Omega, h) - 2 ln R for any R, not only R = 2
    domain, h, r = case
    # h only picks the cell count; rounding must not push R*h past the 1/2 cap
    a = eig_symmetric(offset_form(build_grid(domain(1.0), h)), 5)
    b = eig_symmetric(offset_form(build_grid(domain(r), min(r * h, 0.5))), 5)
    assert a.source["cells"] == b.source["cells"]
    assert np.max(np.abs(b.eigenvalues - (a.eigenvalues - 2.0 * math.log(r)))) <= 1e-12


@pytest.mark.parametrize("length", [0.5, 2.0, 8.0])
def test_interval_eigenvalues_follow_the_two_term_asymptotic(length):
    # An oracle from outside the code: Kwaśnicki's asymptotic for
    # (-Delta)^(alpha/2) on (-1, 1), (k pi/2 - (2 - alpha) pi/8)^alpha + O(1/k)
    # (J. Funct. Anal. 262, 2012), differentiated at alpha = 0, gives
    # lambda_k ~ 2 ln((2k - 1) pi / 4), and by dilation 2 ln((2k - 1) pi / (2L))
    # on an interval of length L.  It is not a proven expansion for the
    # logarithmic Laplacian, so the bands are measured: on 4,096 cells, at
    # each of the three lengths alike, max |residual| is 2.39e-3 over
    # k = 5..40 (at k = 5) and 9.4e-4 over k = 10..40 (at k = 40, where the
    # discretization error grows with k and shrinks with n).
    grid = build_grid(interval(-length / 2.0, length / 2.0), length / 4096.0)
    assert grid.count == 4096
    k = np.arange(1, 41)
    reference = 2.0 * np.log((2 * k - 1) * math.pi / (2.0 * length))
    residual = eig_symmetric(offset_form(grid), 40).eigenvalues - reference
    assert np.max(np.abs(residual[4:])) <= 2.5e-3
    assert np.max(np.abs(residual[9:])) <= 1e-3


@pytest.mark.parametrize("shift", [0.3, -1.7, 12.345])
@pytest.mark.parametrize("make", [
    lambda s: interval(s - 1.0, s + 1.0),
    lambda s: box((s, -s), (2.0, 1.5)),
    lambda s: ball((s, 2.0 * s), 2.0),
], ids=["interval", "box", "ball"])
def test_translation_invariance(make, shift):
    h = 1.0 / 16.0
    a = eig_symmetric(offset_form(build_grid(make(0.0), h)), 5)
    b = eig_symmetric(offset_form(build_grid(make(shift), h)), 5)
    assert a.source["cells"] == b.source["cells"]
    assert np.max(np.abs(b.eigenvalues - a.eigenvalues)) <= 1e-12


def test_eigensolver_validation():
    form = _toeplitz_form([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        eig_symmetric(form, 0)
    with pytest.raises(ValueError):
        eig_symmetric(form, 4)


def test_domain_growth_monotonicity():
    # larger interval, same cell size: smallest eigenvalue cannot increase
    lams = []
    for a in (0.5, 1.0, 2.0):
        m = offset_form(build_grid(interval(-a, a), 1.0 / 32.0))
        lams.append(eig_symmetric(m, 1).eigenvalues[0])
    assert lams[1] <= lams[0] + 1e-12
    assert lams[2] <= lams[1] + 1e-12


def test_spectrum_from_values():
    s = spectrum_from_values([3.0, 1.0, 2.0])
    assert np.array_equal(s.eigenvalues, [1.0, 2.0, 3.0])
    assert s.k == 3 and s.source == {}
    with pytest.raises(ValueError):
        spectrum_from_values([])


def test_weyl_on_synthetic_sequence():
    ks = np.arange(1, 61)
    s = spectrum_from_values(2.0 * np.log(ks))
    d = weyl_diagnostics(s)
    assert math.isnan(d["eigenvalue_over_log_k"][0])
    assert np.allclose(d["eigenvalue_over_log_k"][1:], 2.0, atol=1e-12)
    # finite-k partial-sum ratio at k=10, exact arithmetic
    expect = sum(2.0 * math.log(i) for i in range(1, 11)) / (10.0 * math.log(10.0))
    assert expect == pytest.approx(1.31195, abs=1e-5)
    assert d["partial_sum_ratio"][9] == pytest.approx(expect, rel=1e-12)
    # ratio climbs toward its limit 2 from below
    diffs = np.diff(d["partial_sum_ratio"][1:])
    assert np.all(diffs > 0.0)
    assert d["partial_sum_ratio"][-1] < 2.0


def test_weyl_on_constant_sequence():
    s = spectrum_from_values(np.full(200, 1.0))
    d = weyl_diagnostics(s)
    vals = d["eigenvalue_over_log_k"][1:]
    assert np.all(np.diff(vals) < 0.0)
    assert vals[-1] < 0.2


def test_weyl_envelope_columns():
    ks = np.arange(1, 201)
    s = spectrum_from_values(2.0 * np.log(ks))
    _, upper, lower = envelope_samples(s, 1, 0.1)
    q = upper.size // 4
    assert np.mean(upper[-q:]) < np.mean(upper[:q])
    assert np.mean(lower[-q:]) > np.mean(lower[:q])


def test_weyl_validation():
    # the growth table serves any k >= 1; the envelopes need k >= 3 and a
    # finite delta >= 0
    d = weyl_diagnostics(spectrum_from_values([1.0]))
    assert d["partial_sum"][0] == 1.0 and math.isnan(d["partial_sum_ratio"][0])
    with pytest.raises(ValueError, match="at least 3 eigenvalues"):
        envelope_samples(spectrum_from_values([1.0, 2.0]), 1, 0.1)
    s = spectrum_from_values([1.0, 2.0, 3.0])
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="delta must be"):
            envelope_samples(s, 1, bad)


def test_envelope_samples_shape():
    s = spectrum_from_values(2.0 * np.log(np.arange(1, 31)))
    t, upper, lower = envelope_samples(s, 1, 0.0)
    assert t.shape == upper.shape == lower.shape == (201,)
    assert t[0] == pytest.approx(s.eigenvalues[1])
    assert t[-1] == pytest.approx(s.eigenvalues[-1])
    assert np.all(upper >= 0.0)
    assert np.array_equal(upper, lower)  # delta = 0: both sample the exponent N/2
