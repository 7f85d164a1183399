"""Grid construction and energy-form assembly against quadrature oracles."""

import dataclasses
import itertools
import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loglap.constants import EULER_GAMMA, dimension_constants
from loglap.discretize import (
    Grid,
    _gauss_legendre,
    assemble_form,
    build_grid,
    offset_form,
    plane_wave_symbol_1d,
    rayleigh_quotient,
)
from loglap.geometry import TestFunctionSpec, ball, box, interval
import loglap.discretize as discretize_module
import oracles


# ---------------------------------------------------------------- grids


def test_interval_grid_example():
    g = build_grid(interval(-1.0, 1.0), 0.25)
    assert g.count == 8
    assert g.h == pytest.approx(0.25, rel=1e-15)
    assert np.allclose(g.centers.ravel(), np.arange(-0.875, 1.0, 0.25), atol=1e-12)


def test_ball_grid_example():
    g = build_grid(ball((0.0, 0.0), 1.0), 0.5)
    # only the four central cells have all corners inside the unit circle
    assert g.count == 4
    got = {(round(x, 6), round(y, 6)) for x, y in g.centers}
    assert got == {(-0.25, -0.25), (-0.25, 0.25), (0.25, -0.25), (0.25, 0.25)}


def test_grid_cells_inside_domain():
    dom = ball((0.5, -0.25), 1.3)
    g = build_grid(dom, 0.2)
    corners = g.centers[:, None, :] + 0.5 * g.h * np.array(
        [[-1, -1], [-1, 1], [1, -1], [1, 1]], dtype=float
    )
    assert np.all(dom.signed_distance(corners.reshape(-1, 2)) >= -1e-9)


def test_dyadic_refinement_nests():
    for dom in (interval(-1.0, 1.0), ball((0.0, 0.0), 1.0)):
        coarse = build_grid(dom, 0.25)
        fine = build_grid(dom, 0.125)
        fine_set = {tuple(np.round(c, 9)) for c in np.atleast_2d(fine.centers)}
        shifts = (
            np.array([[-1.0], [1.0]])
            if dom.dim == 1
            else np.array([[-1, -1], [-1, 1], [1, -1], [1, 1]], dtype=float)
        )
        for c in np.atleast_2d(coarse.centers):
            for s in shifts:
                child = tuple(np.round(c + 0.0625 * s, 9))
                assert child in fine_set


def test_grid_snapping():
    g = build_grid(interval(0.0, 1.0), 0.3)
    assert g.count == 3
    assert g.h == pytest.approx(1.0 / 3.0, rel=1e-15)


@pytest.mark.parametrize(
    "domain, h",
    [
        (ball((0.0, 0.0), 64.0), 0.125),
        (box((0.0, 0.0), (128.0, 128.0)), 0.125),
        (interval(0.0, 2.0**17), 0.125),
    ],
    ids=["ball", "box", "interval"],
)
def test_grid_build_peaks_at_the_lattice_refusal_and_returns_its_mask(domain, h):
    # each bounding-box lattice has 2^20 cells; the refusal of a lattice too
    # large for memory counts 9 bytes per cell, a ball's distances and mask,
    # and the grid kept is its mask, a byte per cell at most
    tracemalloc.start()
    try:
        grid = build_grid(domain, h)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 2**20 + 2**16
    assert kept <= 2**20 + 2**12 and grid.mask.size <= 2**20


def test_grid_validation():
    with pytest.raises(ValueError):
        build_grid(interval(-1.0, 1.0), 0.75)  # above the 1/2 cap
    with pytest.raises(ValueError):
        build_grid(interval(-1.0, 1.0), 0.0)
    with pytest.raises(ValueError):
        build_grid(ball((0.0, 0.0), 0.2), 0.5)  # nothing fits
    with pytest.raises(ValueError):
        build_grid(box((0.0, 0.0), (1.0, 1.07)), 0.25)  # second side does not tile


# ------------------------------------------------------- 1D assembly


def test_1d_entries_pinned():
    g = build_grid(interval(0.0, 2.0), 0.25)
    a = assemble_form(offset_form(g))
    assert a[0, 1] == pytest.approx(-0.3465736, abs=1e-7)
    rho1 = -2.0 * EULER_GAMMA
    diag = 2.0 * 0.25 * (1.0 - math.log(0.25)) + rho1 * 0.25
    assert diag == pytest.approx(0.9045394, abs=1e-7)
    assert a[0, 0] == pytest.approx(diag, rel=1e-14)


def test_1d_entries_match_quadrature_oracle():
    c1 = dimension_constants(1)
    rho1 = c1.zero_order_shift
    for h in (1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0):
        g = build_grid(interval(0.0, 8.0 * h), h)
        assert g.count == 8
        a = assemble_form(offset_form(g))
        diag_ref = c1.kernel_constant * oracles.diagonal_inner_1d(h) + rho1 * h
        for i in range(8):
            assert abs(a[i, i] - diag_ref) <= 1e-8 * abs(diag_ref)
            for j in range(i + 1, 8):
                ref = -c1.kernel_constant * oracles.pair_integral_1d(j - i, h)
                assert abs(a[i, j] - ref) <= 1e-8 * abs(ref)


def test_1d_far_entries_match_exact_second_difference():
    # The pair integral at center offset m*h is h times the second difference
    # [(m+1) ln(m+1) - 2m ln m + (m-1) ln(m-1)], evaluated here in 40-digit
    # decimal arithmetic.  Differencing t ln t - t in floating point instead
    # loses eps*m^2, which is 2.5e-9 relative at m = 4095.
    g = build_grid(interval(-1.0, 1.0), 2.0 / 4096.0)
    assert g.count == 4096
    a = assemble_form(offset_form(g))
    c1 = dimension_constants(1)

    def x_ln_x(k):
        return Decimal(k) * Decimal(k).ln() if k > 0 else Decimal(0)

    with localcontext() as ctx:
        ctx.prec = 40
        for m in (1, 2, 10, 1000, 4095):
            second_diff = x_ln_x(m + 1) - 2 * x_ln_x(m) + x_ln_x(m - 1)
            ref = -c1.kernel_constant * g.h * float(second_diff)
            assert abs(a[0, m] - ref) <= 1e-13 * abs(ref), m


def test_structure_invariants():
    for dom, h in [
        (interval(-1.0, 1.0), 0.125),
        (box((0.0, 0.0), (1.0, 0.75)), 0.25),
        (ball((0.0, 0.0), 1.0), 0.25),
    ]:
        a = assemble_form(offset_form(build_grid(dom, h)))
        assert np.array_equal(a, a.T)  # bit-for-bit symmetric
        off = a[~np.eye(a.shape[0], dtype=bool)]
        assert np.all(off < 0.0)


def test_assembly_deterministic():
    g = build_grid(ball((0.0, 0.0), 1.0), 0.25)
    assert np.array_equal(assemble_form(offset_form(g)), assemble_form(offset_form(g)))


# ------------------------------------------------------- 2D assembly


def test_2d_entries_match_reduced_oracles():
    h = 0.25
    c2 = dimension_constants(2)
    g = build_grid(box((0.0, 0.0), (3.0 * h, 3.0 * h)), h)
    assert g.count == 9
    a = assemble_form(offset_form(g))
    idx = g.indices

    def entry(offset_a, offset_b):
        da = np.abs(idx[:, None, 0] - idx[None, :, 0])
        db = np.abs(idx[:, None, 1] - idx[None, :, 1])
        mask = (da == offset_a) & (db == offset_b)
        vals = a[mask]
        assert vals.size > 0
        assert np.ptp(vals) == 0.0  # translation invariance on the lattice
        return float(vals[0])

    for (oa, ob), frozen in oracles.FROZEN_PAIR_2D.items():
        if (oa, ob) == (0, 3):
            continue  # not present on a 3x3 grid
        got = entry(oa, ob)
        ref = -c2.kernel_constant * frozen
        assert abs(got - ref) <= 1e-4 * abs(ref)
    # touching offsets are closed forms, exact to rounding
    for (oa, ob), pair in (((0, 1), oracles.edge_pair_2d), ((1, 0), oracles.edge_pair_2d),
                           ((1, 1), oracles.corner_pair_2d)):
        ref = -c2.kernel_constant * pair(h)
        assert abs(entry(oa, ob) - ref) <= 1e-12 * abs(ref)
    # mirrored offsets read the same integral, so they agree bitwise
    assert entry(1, 2) == entry(2, 1)

    diag_ref = (
        c2.kernel_constant * oracles.diagonal_inner_2d(h) + c2.zero_order_shift * h * h
    )
    assert abs(a[0, 0] - diag_ref) <= 1e-4 * abs(diag_ref)


@pytest.mark.parametrize(
    "offsets",
    [[(0, 2), (1, 2), (2, 2), (0, 3)], [(0, 100), (0, 255), (17, 255), (255, 255)]],
    ids=["near", "far"],
)
def test_2d_separated_entries_exact_to_rounding(offsets):
    # the entry-accuracy contract, 1e-12 relative, against 32-digit integrals;
    # a 256 x 256 box holds every offset up to (255, 255) in its table
    h = 0.5
    c2 = dimension_constants(2)
    table = offset_form(build_grid(box((0.0, 0.0), (128.0, 128.0)), h)).table
    assert table.shape == (256, 256)
    for oa, ob in offsets:
        ref = -c2.kernel_constant * h * h * oracles.separated_pair_unit_2d_mp(oa, ob)
        for slot in ((oa, ob), (ob, oa)):
            assert abs(table[slot] - ref) <= 1e-12 * abs(ref), slot


def test_2d_separated_entries_hold_the_contract_at_every_band_edge():
    # the first q of each point count of the graded rule, where that count's
    # error is largest, with p = 0, 1 and q, against 32-digit integrals.  The
    # slots come from one 1,661 x 1,661 table; the 1-point band starts beyond
    # any table a test can build, so its pairs go through the rule directly
    edges = {10: 2, 5: 9, 4: 21, 3: 89, 2: 1660, 1: 11_003_299}
    q = np.array(list(edges.values()))
    assert list(discretize_module._separated_points(q)) == list(edges)
    assert list(discretize_module._separated_points(q[1:] - 1)) == list(edges)[:-1]
    table = discretize_module._offset_table_2d(1660, 1660)
    for n, q in edges.items():
        pairs = [(0, q), (1, q), (q, q)]
        got = (table[tuple(np.transpose(pairs))] if q < table.shape[0]
               else discretize_module._pair_batch_gauss(np.array(pairs, dtype=float), n))
        ref = [oracles.separated_pair_unit_2d_mp(a, b) for a, b in pairs]
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0, err_msg=f"q = {q}")


def test_2d_table_integrates_far_pairs_with_fewer_points(monkeypatch):
    # kernel evaluations, len(offsets) * (2n)^2 summed over the quadrature's
    # calls, for the R = 6, h = 1/8 ball's 94 x 94 table: 1,784,800 with 10
    # points per half-axis for all 4,462 separated pairs, 293,496 graded
    calls = []
    batch = discretize_module._pair_batch_gauss
    monkeypatch.setattr(discretize_module, "_pair_batch_gauss", lambda offsets, n: (
        calls.append(len(offsets) * (2 * n) ** 2) or batch(offsets, n)))
    offset_form(build_grid(ball((0.0, 0.0), 6.0), 0.125))
    assert 0 < sum(calls) <= 300_000


def test_gauss_legendre_rule_matches_numpy():
    # the Golub-Welsch rules of the separated 2D slots, at every point count
    # the graded rule uses, against numpy's leggauss, which the package does
    # not import
    for n in (1, 2, 3, 4, 5, 10):
        x, w = _gauss_legendre(n)
        ref_x, ref_w = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(x - ref_x)) <= 1e-14, n
        assert np.max(np.abs(w - ref_w)) <= 1e-14, n


def test_ball_matrix_invariant_under_swapping_axes():
    # the ball's cell set is symmetric under (i, j) -> (j, i), and so is the
    # kernel; the matrix must be too, bit for bit
    g = build_grid(ball((0.0, 0.0), 4.0), 0.125)
    a = assemble_form(offset_form(g))
    position = {(int(i), int(j)): k for k, (i, j) in enumerate(g.indices)}
    swap = [position[(int(j), int(i))] for i, j in g.indices]
    assert np.array_equal(a[np.ix_(swap, swap)], a)


def test_2d_frozen_oracle_values_reproduce():
    h = oracles.FROZEN_PAIR_2D_H
    fresh = {
        (0, 1): oracles.edge_pair_2d(h),
        (1, 1): oracles.corner_pair_2d(h),
        (0, 2): oracles.separated_pair_2d(h, 0, 2),
        (1, 2): oracles.separated_pair_2d(h, 1, 2),
        (2, 2): oracles.separated_pair_2d(h, 2, 2),
        (0, 3): oracles.separated_pair_2d(h, 0, 3),
    }
    for key, frozen in oracles.FROZEN_PAIR_2D.items():
        assert fresh[key] == pytest.approx(frozen, rel=1e-12)


def test_2d_offdiagonal_scales_quadratically():
    # unit-scale offset table means off-diagonal entries are proportional
    # to h^2; compare two grids with the same 3x3 index pattern
    big = assemble_form(offset_form(build_grid(box((0.0, 0.0), (0.75, 0.75)), 0.25)))
    small = assemble_form(offset_form(build_grid(box((0.0, 0.0), (0.375, 0.375)), 0.125)))
    ratio = small[0, 1] / big[0, 1]
    assert ratio == pytest.approx(0.25, rel=1e-13)


@pytest.mark.parametrize(
    "domain, h",
    [(interval(-1.0, 1.0), 2.0 / 4096.0), (ball((0.0, 0.0), 4.0), 0.125)],
    ids=["interval-4096", "ball-3080"],
)
def test_assembly_peak_memory_is_the_matrix_plus_a_small_block(domain, h):
    # the memory guard counts 8*n*n bytes; the fill's index temporaries must
    # not add another matrix-sized array on top of that
    form = offset_form(build_grid(domain, h))
    n = form.grid.count
    tracemalloc.start()
    try:
        assemble_form(form)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n * n + 16 * 2**20


def test_2d_table_in_blocks_is_the_table_in_one(monkeypatch):
    # the R = 4, h = 1/8 ball's 1,950 separated pairs in blocks of 100, the
    # last one of each point count short: every pair lands in its slot, with
    # the one-block value bit for bit, since no BLAS product sums a pair
    grid = build_grid(ball((0.0, 0.0), 4.0), 0.125)
    whole = offset_form(grid).table
    monkeypatch.setattr(discretize_module, "_GAUSS_BLOCK_PAIRS", 100)
    assert np.array_equal(offset_form(grid).table, whole)


def test_2d_table_peaks_at_the_table_plus_one_block():
    # the R = 32, h = 1/8 ball: a 510 x 510 table with 130,302 separated
    # pairs.  The table is built, mirrored and scaled in place, 8 bytes per
    # lattice cell, and the quadrature adds one block's three (pairs, 2n)
    # temporaries and its pairs' indices; no index array spans the lattice
    grid = build_grid(ball((0.0, 0.0), 32.0), 0.125)
    tracemalloc.start()
    try:
        offset_form(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = 3 * 8 * discretize_module._GAUSS_BLOCK_PAIRS * 2 * discretize_module._SEPARATED_GAUSS_N
    assert peak <= 8 * grid.mask.size + block + 2**20


def test_form_is_frozen_and_builds_its_symbol_once():
    form = offset_form(build_grid(ball((0.0, 0.0), 2.0), 0.25))
    with pytest.raises(dataclasses.FrozenInstanceError):
        form.table = np.zeros_like(form.table)
    assert "symbol" not in vars(form)
    v = np.ones(form.grid.count)
    form.matvec(v)
    symbol = form.symbol
    form.matvec(v)
    assert form.symbol is symbol


def test_2d_table_of_a_tall_box_is_the_transpose_of_the_wide_one():
    # 2 x 5 and 5 x 2 boxes at h = 1/16: a 32 x 80 and an 80 x 32 table,
    # the second built as the first and transposed
    wide = offset_form(build_grid(box((0.0, 0.0), (2.0, 5.0)), 1.0 / 16.0)).table
    tall = offset_form(build_grid(box((0.0, 0.0), (5.0, 2.0)), 1.0 / 16.0)).table
    assert tall.shape == (80, 32) and tall.flags["C_CONTIGUOUS"]
    assert np.array_equal(tall, wide.T)


@pytest.mark.parametrize("radius", [4.0, 8.0, 16.0, 32.0])
def test_first_matvec_peak_is_the_refused_bytes(monkeypatch, radius):
    # the R = 4 to 32 balls at h = 1/8, circulants of 125^2 to 1024^2 slots:
    # traced from after the table and the input vector exist, the first
    # matvec (the symbol's build, then the product) allocates what its
    # refusal counts, the product's arrays, within -0.5 to +14 KB (317 KB
    # to 21.0 MB traced).  Without the complex line that numpy's FFT
    # copies a strided axis through, 16 B per slot of a side, the count
    # would fall short; a count of arrays no longer allocated, such as the
    # circulant's column, would exceed the peak by megabytes
    form = offset_form(build_grid(ball((0.0, 0.0), radius), 0.125))
    v = np.ones(form.grid.count)
    refused = []
    monkeypatch.setattr(discretize_module, "_require_memory",
                        lambda nbytes, what: refused.append(nbytes))
    tracemalloc.start()
    try:
        form.matvec(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(refused) == 1
    assert peak <= refused[0] + 8 * 2**10
    assert refused[0] <= peak + 16 * 2**10


@pytest.mark.parametrize(
    "domain, h, pad_axis",
    [
        (interval(-1.0, 1.0), 2.0 / 2048.0, None),
        (box((0.0, 0.0), (3.0, 2.0)), 1.0 / 16.0, None),
        (ball((0.0, 0.0), 4.0), 0.125, None),
        (ball((0.3, -0.1), 1.3), 0.1, None),  # the mask's corner is not the lattice's
        (ball((0.3, -0.1), 1.3), 0.1, 1),  # one empty border row on axis 1
    ],
    ids=["interval", "box", "ball", "offcenter-ball", "offcenter-ball-empty-row"],
)
def test_matvec_matches_dense_product(domain, h, pad_axis):
    grid = build_grid(domain, h)
    if pad_axis is not None:
        grid = _padded(grid, pad_axis, 0, 1)
    form = offset_form(grid)
    v = np.random.default_rng(5).standard_normal((2, form.grid.count))
    got = [form.matvec(x) for x in v]
    a = assemble_form(form)
    for x, y in zip(v, got):
        want = a @ x
        assert np.linalg.norm(y - want) <= 1e-14 * np.linalg.norm(want)
    with pytest.raises(ValueError):
        form.matvec(np.ones(form.grid.count + 1))


@st.composite
def small_grids(draw):
    """Intervals, boxes and off-center balls of at most about 600 cells."""
    h = draw(st.sampled_from([0.5, 0.25, 0.125, 0.1]))
    corner = draw(st.floats(-3.0, 3.0))
    kind = draw(st.sampled_from(["interval", "box", "ball"]))
    if kind == "interval":
        return build_grid(interval(corner, corner + draw(st.integers(1, 600)) * h), h)
    if kind == "box":
        nx = draw(st.integers(1, 40))
        ny = draw(st.integers(1, 600 // nx))
        return build_grid(box((corner, -corner), (nx * h, ny * h)), h)
    radius = draw(st.floats(1.5, 13.0)) * h  # pi r^2 / h^2 <= 531 cells
    return build_grid(ball((corner, draw(st.floats(-3.0, 3.0))), radius), h)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(grid=small_grids(), seed=st.integers(0, 2**32 - 1))
def test_matvec_matches_dense_product_on_random_grids(grid, seed):
    form = offset_form(grid)
    v = np.random.default_rng(seed).standard_normal(grid.count)
    want = assemble_form(form) @ v
    assert np.linalg.norm(form.matvec(v) - want) <= 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize("domain, h", [
    (interval(-1.0, 1.0), 2.0 / 2048.0),
    (ball((0.0, 0.0), 4.0), 0.125),
    (ball((0.0, 0.0), 6.0), 0.125),
    (box((0.0, 0.0), (2.0, 5.0)), 1.0 / 16.0),
    (box((0.0, 0.0), (5.0, 2.0)), 1.0 / 16.0),  # its table is the 2 x 5 one transposed
    (box((0.0, 0.0), (1.9375, 1.9375)), 1.0 / 16.0),
], ids=["interval", "ball-4", "ball-6", "box-2x5", "box-5x2", "square-odd"])
def test_matvec_over_the_box_is_the_padded_circulant_product(domain, h):
    # the product transforms the mask's bounding box alone; the same product
    # on the whole zero-padded circulant gives the same bits
    form = offset_form(build_grid(domain, h))
    v = np.random.default_rng(3).standard_normal(form.grid.count)
    axes = tuple(range(form.table.ndim))
    shape = tuple(discretize_module._fft_length(2 * size - 1) for size in form.table.shape)
    box_slots = tuple(map(slice, form.table.shape))
    x = np.zeros(shape)
    x[box_slots][form.grid.mask] = v
    x = np.fft.rfftn(x, axes=axes) * form.symbol
    want = np.fft.irfftn(x, s=shape, axes=axes)[box_slots][form.grid.mask]
    assert np.array_equal(form.matvec(v), want)


@pytest.mark.parametrize("domain, h", [
    (interval(-1.0, 1.0), 2.0 / 2048.0),
    (ball((0.0, 0.0), 4.0), 0.125),
    (ball((0.0, 0.0), 6.0), 0.125),
    (box((0.0, 0.0), (2.0, 5.0)), 1.0 / 16.0),
    (box((0.0, 0.0), (5.0, 2.0)), 1.0 / 16.0),
    (box((0.0, 0.0), (1.9375, 1.9375)), 1.0 / 16.0),
], ids=["interval", "ball-4", "ball-6", "box-2x5", "box-5x2", "square-odd"])
def test_symbol_is_the_spectrum_of_the_circulant_column(domain, h):
    # the symbol, transformed from the table axis by axis, against rfftn of
    # the explicit circulant column: slot j of an axis of length L holds
    # offset min(j, L - j) of the table, and zero past it
    form = offset_form(build_grid(domain, h))
    shape = tuple(discretize_module._fft_length(2 * size - 1) for size in form.table.shape)
    folds = [np.minimum(np.minimum(np.arange(length), length - np.arange(length)), size)
             for size, length in zip(form.table.shape, shape)]
    column = np.pad(form.table, [(0, 1)] * form.table.ndim)[np.ix_(*folds)]
    want = np.fft.rfftn(column).real
    assert form.symbol.shape == want.shape
    assert np.max(np.abs(form.symbol - want)) <= 4e-15 * np.max(np.abs(want))


def _sign_pattern_bases(grid: Grid) -> list[np.ndarray]:
    """An orthonormal basis per sign pattern of the grid's mirror axes, in the
    order of ``QuadFormMatrix.sectors``: for each cell p with 2 p_d <= s_d on
    every mirror axis, the normalized sum of sign * e_{r_T p} over the
    reflections r_T, dropped where it vanishes."""
    idx = grid.indices
    axes = grid.mirror_axes
    s = idx.min(axis=0) + idx.max(axis=0)
    where = {tuple(p): i for i, p in enumerate(idx.tolist())}
    bases = []
    for signs in itertools.product((1, -1), repeat=len(axes)):
        columns = []
        for p in idx:
            if np.any(2 * p[list(axes)] > s[list(axes)]):
                continue
            u = np.zeros(grid.count)
            for flips in itertools.product((False, True), repeat=len(axes)):
                q = p.copy()
                for d, flip in zip(axes, flips):
                    if flip:
                        q[d] = s[d] - q[d]
                u[where[tuple(q.tolist())]] += math.prod(e for e, f in zip(signs, flips) if f)
            if np.any(u):
                columns.append(u / np.linalg.norm(u))
        bases.append(np.array(columns).reshape(-1, grid.count).T)
    return bases


def _assert_blocks_are_the_matrix_in_the_sign_pattern_bases(grid: Grid) -> None:
    form = offset_form(grid)
    a = assemble_form(form)
    bases = _sign_pattern_bases(grid)
    assert sum(basis.shape[1] for basis in bases) == grid.count
    blocks = [form.block(i) for i in range(len(form.sectors.counts))]
    assert len(blocks) == len(bases) == 2 ** len(grid.mirror_axes)
    for block, basis in zip(blocks, bases):
        assert np.array_equal(block, block.T)
        assert np.allclose(block, basis.T @ a @ basis, rtol=0.0, atol=1e-15 * np.abs(a).max())
    # one shared matvec applies every sector's block to its own vector, and
    # a sector left out of a product is left out of its result
    rng = np.random.default_rng(grid.count)
    vectors = {i: rng.standard_normal(basis.shape[1]) for i, basis in enumerate(bases)}
    bound = 1e-14 * np.abs(a).sum(axis=1).max()
    for chosen in (vectors, dict(list(vectors.items())[1:])):
        products = form.sector_matvec(chosen)
        assert products.keys() == chosen.keys()
        for i, u in chosen.items():
            want = bases[i].T @ (a @ (bases[i] @ u))
            assert np.linalg.norm(products[i] - want) <= bound * np.linalg.norm(u)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(grid=small_grids())
def test_blocks_are_the_matrix_in_the_sign_pattern_bases(grid):
    # every grid build_grid makes mirrors onto itself along every axis,
    # off-center balls included
    assert grid.mirror_axes == tuple(range(grid.dim))
    _assert_blocks_are_the_matrix_in_the_sign_pattern_bases(grid)


def _without_cells(grid: Grid, *drop: int) -> Grid:
    mask = grid.mask.copy()
    mask[tuple(grid.indices[list(drop)].T)] = False
    return Grid(domain=grid.domain, h=grid.h, corner=grid.corner, mask=mask)


def _padded(grid: Grid, axis: int, before: int, after: int) -> Grid:
    """The same cells on a mask with empty rows added at the ends of ``axis``."""
    widths = [(before, after) if d == axis else (0, 0) for d in range(grid.dim)]
    corner = tuple(c - before * (d == axis) for d, c in enumerate(grid.corner))
    return Grid(domain=grid.domain, h=grid.h, corner=corner, mask=np.pad(grid.mask, widths))


def test_sectors_are_one_table_read_off_the_orbits():
    hadamard = np.kron([[1.0, 1.0], [1.0, -1.0]], [[1.0, 1.0], [1.0, -1.0]])
    # the 3,080-cell ball has no cell on a mirror line: four equal sectors
    table = offset_form(build_grid(ball((0.0, 0.0), 4.0), 0.125)).sectors
    assert np.array_equal(table.characters, hadamard)
    assert table.counts == [770] * 4
    assert np.array_equal(table.scale, np.ones(770))
    assert table.orbits.flags.c_contiguous  # sector_matvec's einsum sums in memory order
    # the 2,048-cell interval: the Hadamard matrix's 2 x 2 corner
    table = offset_form(build_grid(interval(-1.0, 1.0), 2.0 / 2048.0)).sectors
    assert np.array_equal(table.characters, hadamard[:2, :2])
    assert table.counts == [1024, 1024]
    # the 31 x 31 square: 16 orbits on each mirror line, one at the centre
    grid = build_grid(box((0.0, 0.0), (1.9375, 1.9375)), 1.0 / 16.0)
    table = offset_form(grid).sectors
    assert table.counts == [256, 240, 240, 225]
    on = 2 * grid.indices[table.orbits[0]] == 30  # on[o, d]: orbit o on axis d's line
    assert np.array_equal(table.scale, 0.5 ** (0.5 * on.sum(axis=1)))
    for rows, signs in zip(table.rows, itertools.product((1, -1), repeat=2)):
        assert np.array_equal(rows, np.flatnonzero(~np.any(on & (np.array(signs) < 0), axis=1)))
    # without a mirror axis the one sector is every cell
    lopsided = _without_cells(build_grid(ball((0.0, 0.0), 1.0), 0.25), 1)
    table = offset_form(lopsided).sectors
    assert np.array_equal(table.orbits, np.arange(lopsided.count)[None])
    assert np.array_equal(table.characters, [[1.0]])
    assert table.counts == [lopsided.count]


def _reference_blocks(form):
    """Every sector block of a form, by the plain oracle from its table."""
    sectors = form.sectors
    return [oracles.gathered_block(form.table, list(form.grid.indices[sectors.orbits[:, rows]]),
                                   sectors.characters[e], sectors.scale[rows])
            for e, rows in enumerate(sectors.rows)]


_LOPSIDED = _without_cells(build_grid(ball((0.0, 0.0), 1.0), 0.25), 1)


@pytest.mark.parametrize("grid", [
    *(build_grid(interval(-1.0, 1.0), 2.0 / n) for n in (2048, 2047, 5, 4)),
    # cells on the mirror lines scale by 1/sqrt(2), the center cell by 1/2
    build_grid(box((0.0, 0.0), (1.9375, 1.9375)), 1.0 / 16.0),
    build_grid(ball((0.0, 0.0), 4.0), 0.125),
    _LOPSIDED,
], ids=["interval-2048", "interval-2047", "interval-5", "interval-4", "square-31x31",
        "ball-3080", "no-mirror-axis"])
def test_blocks_are_the_plain_sums_of_table_slots_bit_for_bit(grid):
    # the reflected-table gather (window views on intervals, one offset add
    # per entry elsewhere) reads the same slots and sums them in the same
    # order as table[|p - q|] term by term, so every block is bit-identical
    form = offset_form(grid)
    blocks = [form.block(e) for e in range(len(form.sectors.counts))]
    for block, want in zip(blocks, _reference_blocks(form), strict=True):
        assert np.array_equal(block, want)


@pytest.mark.parametrize("grid", [
    build_grid(interval(-1.0, 1.0), 2.0 / 2047.0),
    build_grid(box((0.0, 0.0), (1.9375, 1.9375)), 1.0 / 16.0),
    build_grid(ball((0.0, 0.0), 4.0), 0.125),
    _LOPSIDED,
], ids=["interval-2047", "square-31x31", "ball-3080", "no-mirror-axis"])
def test_assembled_matrix_is_the_plain_sum_of_table_slots_bit_for_bit(grid):
    form = offset_form(grid)
    want = oracles.gathered_block(form.table, [grid.indices], [1.0], np.ones(grid.count))
    assert np.array_equal(assemble_form(form), want)


def test_grid_without_a_mirror_axis_is_one_block():
    # the 8 x 8 lattice of this ball has no cell on a mirror line, so
    # dropping one cell breaks both mirrors
    lopsided = _without_cells(build_grid(ball((0.0, 0.0), 1.0), 0.25), 1)
    assert lopsided.mirror_axes == ()
    form = offset_form(lopsided)
    (block,) = [form.block(i) for i in range(len(form.sectors.counts))]
    assert np.array_equal(block, assemble_form(form))


def test_grid_with_one_mirror_axis_has_two_blocks():
    # a 5 x 3 box less the two cells (0, 0) and (4, 0): mirrored along the
    # first axis (with a mirror line, x = 2), not along the second
    grid = _without_cells(build_grid(box((0.0, 0.0), (1.25, 0.75)), 0.25), 0, 12)
    assert grid.count == 13 and grid.mirror_axes == (0,)
    _assert_blocks_are_the_matrix_in_the_sign_pattern_bases(grid)


def test_mask_with_an_empty_border_row_keeps_its_cells_and_loses_only_that_mirror():
    # an empty row at one end moves the mask's center off the cells' center,
    # so that axis is no longer reported as a mirror; the other one still is
    tight = build_grid(ball((0.3, -0.1), 1.3), 0.1)
    for axis in (0, 1):
        grid = _padded(tight, axis, 1, 0)
        assert grid.count == tight.count and grid.mask.shape[axis] == tight.mask.shape[axis] + 1
        assert np.array_equal(grid.centers, tight.centers)
        assert grid.mirror_axes == (1 - axis,)
        _assert_blocks_are_the_matrix_in_the_sign_pattern_bases(grid)
    # an empty row at both ends keeps the center, and the mirror
    both = _padded(tight, 0, 1, 1)
    assert both.mirror_axes == (0, 1)
    _assert_blocks_are_the_matrix_in_the_sign_pattern_bases(both)


def test_grid_refuses_a_mask_that_is_not_boolean_with_one_axis_per_dimension():
    grid = build_grid(ball((0.0, 0.0), 1.0), 0.25)
    for mask in (grid.mask.astype(int), grid.mask.ravel(), grid.mask.tolist()):
        with pytest.raises(ValueError, match="boolean array with 2 axes"):
            Grid(domain=grid.domain, h=grid.h, corner=grid.corner, mask=mask)


# -------------------------------------------------- Rayleigh quotients


def test_rayleigh_of_eigenvector_is_eigenvalue():
    grid = build_grid(interval(-1.0, 1.0), 1.0 / 16.0)
    m = offset_form(grid)
    lam, vecs = np.linalg.eigh(assemble_form(m) / m.mass_scale)
    assert rayleigh_quotient(m, vecs[:, 0]) == pytest.approx(lam[0], rel=1e-12)
    assert rayleigh_quotient(m, vecs[:, 3]) == pytest.approx(lam[3], rel=1e-12)


def test_rayleigh_dominates_smallest_eigenvalue():
    grid = build_grid(interval(-1.0, 1.0), 1.0 / 16.0)
    m = offset_form(grid)
    lam_min = float(np.linalg.eigvalsh(assemble_form(m))[0] / m.mass_scale)
    rng = np.random.default_rng(17)
    for _ in range(20):
        v = rng.standard_normal(m.grid.count)
        assert rayleigh_quotient(m, v) >= lam_min - 1e-12


def test_rayleigh_of_boundary_ramp():
    dom = interval(-1.0, 1.0)
    grid = build_grid(dom, 1.0 / 64.0)
    m = offset_form(grid)
    w = dom.test_function(TestFunctionSpec(sigma=0.25), grid.centers)
    q = rayleigh_quotient(m, w)
    assert math.isfinite(q)
    d1 = dimension_constants(1).volume_coefficient
    assert q >= -d1 * dom.volume - 1e-10


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(grid=small_grids(), seed=st.integers(0, 2**32 - 1))
def test_rayleigh_quotient_matches_dense_quotient(grid, seed):
    # random vectors keep the quotient near the diagonal, 2.2 or more, far from 0
    form = offset_form(grid)
    v = np.random.default_rng(seed).standard_normal(grid.count)
    got = rayleigh_quotient(form, v)
    want = float(v @ assemble_form(form) @ v) / (form.mass_scale * float(v @ v))
    assert abs(got - want) <= 1e-12 * abs(want)


def test_rayleigh_validation():
    m = offset_form(build_grid(interval(-1.0, 1.0), 0.25))
    with pytest.raises(ValueError):
        rayleigh_quotient(m, np.zeros(m.grid.count))
    with pytest.raises(ValueError):
        rayleigh_quotient(m, np.ones(m.grid.count + 1))


# ------------------------------------------------- plane-wave symbol


def test_symbol_pinned_values():
    assert plane_wave_symbol_1d(1.0) == pytest.approx(0.0, abs=1e-8)
    assert plane_wave_symbol_1d(math.e) == pytest.approx(2.0, abs=1e-8)
    assert plane_wave_symbol_1d(10.0) == pytest.approx(2.0 * math.log(10.0), abs=1e-8)


def test_symbol_identity_on_log_grid():
    worst = 0.0
    for t in np.geomspace(0.1, 100.0, 50):
        t = float(t)
        worst = max(worst, abs(plane_wave_symbol_1d(t) - 2.0 * math.log(t)))
    assert worst <= 1e-8


def test_symbol_validation():
    for bad in (0.0, -2.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            plane_wave_symbol_1d(bad)
