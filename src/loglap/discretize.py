"""Piecewise-constant Galerkin assembly of the logarithmic-kernel energy form.

Grids are unions of lattice cells of side ``h`` fully contained in a domain
(inner approximation, so discrete eigenvalues sit above the true ones by
min-max).  A grid is a boolean mask over its cells' bounding box on the
lattice; the cells' indices and centers are read from it.  The bilinear form
splits into a singular near-range part, a negative far-range tail, and a
zero-order shift; for disjoint cells the two range parts recombine into one
full kernel integral, which is what we assemble:

    off-diagonal:  -c_N * integral over C_i x C_j of |x-y|^(-N)
    diagonal:       c_N * integral over C_i of int_{B_1(x)\\C_i} |x-y|^(-N)
                    + shift * h^N

Requiring h <= 1/2 keeps each cell inside the unit ball around any of its
own points, so the far tail never hits a cell against itself and the split
above is exact.

Every entry depends only on the absolute lattice offset between its cells,
so the matrix (Toeplitz in 1D, masked block-Toeplitz in 2D) is given by one
offset table per grid with the diagonal in slot (0, ..., 0).  In 1D every
slot is closed form.  In 2D the diagonal is closed form, and the other slots
scale like h^2 and are computed once at unit scale: touching offsets (shared
edge, shared corner) by closed forms in Catalan's constant and the inverse
tangent integral, separated offsets by a Gauss rule on the pair integral
reduced to the difference variable (a tent weight per axis), with fewer
points the farther apart the cells are.  Every slot of the table, in 1D and
2D, is within 1e-12 relative of the exact integral.

The table is the operator.  :func:`offset_form` builds it and nothing else;
it is the size of the grid's mask.  ``QuadFormMatrix.matvec`` applies the
matrix without forming it, by one FFT pair over the mask's box on the
table's circulant embedding, twice its size per axis (rounded up to a fast
FFT length); the circulant's spectrum, ``symbol``, is transformed from the
table axis by axis, and its column is never formed (Chan & Jin, *An
Introduction to Iterative Toeplitz Solvers*, SIAM 2007).
:func:`rayleigh_quotient` is one such product.
The eigensolver reads ``QuadFormMatrix.sectors``, built once per form: A
commutes with the reflection along each mirror axis of the grid (every grid
:func:`build_grid` makes has all its axes), so it splits into one block per
sign pattern of those axes, two of about n/2 cells in 1D and four of about
n/4 in 2D (Fässler & Stiefel, 1992).  :class:`Sectors` is one table for all
of them, the reflections' orbits and character table.  ``sector_matvec``
applies the blocks of several sectors to their own vectors by one FFT pair.
``block`` gathers one dense block for LAPACK, and :func:`assemble_form` the
n x n matrix for ``solve --dump-matrix`` alone, each as a signed sum of
window views, one per reflection, of the table reflected to all signs of
the offset, in every dimension; one larger than memory is refused first.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass

# resource is POSIX only, as are the os.sysconf page counts that _require_memory
# reads: without it, import loglap and the commands that build no grid still work.
try:
    import resource
except ImportError:
    resource = None

import numpy as np
# numpy.fft is loaded with the module, not inside the first matvec or table.
# The Gauss rule comes from numpy.linalg, which numpy loads itself, and not
# from numpy.polynomial, whose import costs about 0.8 MB and 4 ms per process.
import numpy.fft

from .constants import CATALAN, TI2_HALF, DimensionConstants, dimension_constants
from .geometry import Domain

__all__ = [
    "Grid",
    "Sectors",
    "QuadFormMatrix",
    "build_grid",
    "offset_form",
    "assemble_form",
    "rayleigh_quotient",
]

MAX_CELL_SIDE = 0.5

# Gauss points per half-axis for the separated pairs nearest each other;
# see _separated_points.
_SEPARATED_GAUSS_N = 10
# Separated pairs per _pair_batch_gauss call, at most: its three (pairs, 2n)
# temporaries take 3 * 8 * 2n bytes per pair, 2.0 MB at n = 5, so the
# 510 x 510 table peaks at the table plus one block, 14.2 bytes per lattice
# cell (3.69 MB traced).  With all pairs in one call it peaked at 276.
_GAUSS_BLOCK_PAIRS = 2**13

# Entries that _gather sums per block of rows of the cells' box (at least one
# row), in place or in its one row buffer.  From 2^13 to 2^17 the fill times
# of the 2,048-cell interval's blocks and the 7,020-cell ball's matrix agree
# within the run to run spread, and peak RSS grows with the size.
_FILL_BLOCK_ENTRIES = 2**15

# Unit-cell constant of the 2D diagonal inner integral:
# int_C int_{B_1(x)\C} |x-y|^(-2) = h^2 * (2*pi*(1 - ln h) + _DIAG_UNIT_2D).
_DIAG_UNIT_2D = 4.0 * CATALAN - 2.0 * math.pi * math.log(2.0) + 2.0 * math.log(2.0)

# Integrals of |x-y|^(-2) over two unit squares sharing an edge or a corner.
# Four unit cells tile a side-2 square, and the regularized self-interaction
# of a side-s square is s^2 times the unit one plus 2*pi*s^2*ln s, so
# 8*edge + 4*corner = 8*pi*ln 2.
_EDGE_UNIT_2D = (
    6.0 * math.log(2.0) - 2.5 * math.log(5.0) + 4.0 * CATALAN - 4.0 * TI2_HALF
)
_CORNER_UNIT_2D = 2.0 * math.pi * math.log(2.0) - 2.0 * _EDGE_UNIT_2D


@dataclass(frozen=True, eq=False)
class Grid:
    """Lattice cells of side ``h`` fully inside ``domain``, as a boolean mask.

    ``mask`` covers the cells' bounding box on the lattice, and ``corner`` is
    the lattice index of ``mask[0, ..., 0]`` counted from the domain's
    bounding-box corner ``domain.lo``.  The rest is read from the mask: the
    cells in its lexicographic order, their (count, dim) ``indices`` counted
    from ``corner`` and their ``centers``.
    """

    domain: Domain
    h: float
    corner: tuple[int, ...]
    mask: np.ndarray

    def __post_init__(self):
        if not (isinstance(self.mask, np.ndarray) and self.mask.dtype == bool
                and self.mask.ndim == self.dim):
            raise ValueError(f"mask must be a boolean array with {self.dim} axes")

    @property
    def indices(self) -> np.ndarray:
        return np.argwhere(self.mask)

    @property
    def centers(self) -> np.ndarray:
        return np.asarray(self.domain.lo) + (self.indices + self.corner + 0.5) * self.h

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.mask))

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def mirror_axes(self) -> tuple[int, ...]:
        """The axes d along which the reflection p_d -> s_d - p_d through the
        mask's center (s = mask.shape - 1) maps the cells onto themselves."""
        return tuple(d for d in range(self.dim) if np.array_equal(self.mask, np.flip(self.mask, d)))


@dataclass(frozen=True, eq=False)
class Sectors:
    """The sign-pattern sectors of a grid's mirror axes (:attr:`QuadFormMatrix.sectors`).

    The reflections r_T along the subsets T of the mirror axes, row t for
    the t-th subset in ``itertools.product((False, True), ...)`` order
    (T = {} first), commute with A.  ``orbits[t, o]`` is the cell number (in
    the grid's order) of r_T p for the cell p of orbit o with 2*p_d <= s_d
    on each mirror axis d (s = mask.shape - 1).  Sector e is the sign
    pattern e, -1 on the axes of the e-th subset, in the order of
    ``itertools.product((1, -1), ...)``; ``characters[e, t]`` =
    prod_{d in T} e_d is the reflections' character table (a Hadamard
    matrix), and ``flips[t]`` lists the axes of T.  ``scale[o]`` =
    1/sqrt(|Stab p|) for the reflections that fix p.  Sector e keeps the
    orbits ``rows[e]`` on whose stabilizer its characters are all +1, and a
    pattern can keep none; its basis vector at p is sum_T characters[e, T]
    e_{r_T p} * scale_p / sqrt(2^|axes|).  The basis vectors of all sectors
    together are an orthonormal basis of the grid's cells (Fässler &
    Stiefel, 1992).  With no mirror axis the one sector is every cell.
    """

    orbits: np.ndarray
    characters: np.ndarray
    scale: np.ndarray
    rows: tuple[np.ndarray, ...]
    flips: tuple[tuple[int, ...], ...]

    @property
    def counts(self) -> list[int]:
        """The size of each sector, in the order of the table's rows."""
        return [int(rows.size) for rows in self.rows]


@dataclass(frozen=True, eq=False)
class QuadFormMatrix:
    """Symmetric Galerkin matrix of the energy form on a grid, given by its offset table.

    Entry (i, j) is ``table[|p_i - p_j|]`` for the lattice indices p of the
    grid's cells (absolute offset per axis, diagonal in slot (0, ..., 0)).
    The generalized eigenproblem is A v = lambda * mass_scale * v with
    mass_scale = h^N (the indicator basis is orthogonal with that norm).
    The form is the grid and the table, never an n x n matrix (:func:`assemble_form`
    returns one); ``symbol`` and ``sectors`` are built from them when first read.
    """

    grid: Grid
    table: np.ndarray

    @property
    def mass_scale(self) -> float:
        return self.grid.h ** self.grid.dim

    @functools.cached_property
    def sectors(self) -> Sectors:
        """The :class:`Sectors` of the grid's mirror axes, built once per form;
        every fact past the orbits is read off them."""
        mask = self.grid.mask
        axes = self.grid.mirror_axes
        number = np.zeros(mask.shape, dtype=np.intp)  # lattice index -> cell number
        number[mask] = np.arange(self.grid.count)
        # one cell p per orbit, 2*p_d <= s_d on each mirror axis d: the mask's leading corner
        first = tuple(slice((size + 1) // 2 if d in axes else size)
                      for d, size in enumerate(mask.shape))
        subsets = np.array(list(itertools.product((0, 1), repeat=len(axes))), dtype=int)
        flips = tuple(tuple(d for d, f in zip(axes, t) if f) for t in subsets)
        # row t: the numbers of the cells r_T p, read off the numbers flipped along T.
        # The table must be C-ordered: sector_matvec's einsum sums in memory order.
        orbits = np.array([np.flip(number, t)[first][mask[first]] for t in flips])
        characters = np.where((subsets @ subsets.T) % 2, -1.0, 1.0)
        fixed = orbits == orbits[0]  # fixed[t, o]: r_T fixes orbit o's cell
        rows = tuple(np.flatnonzero(~fixed[row < 0].any(axis=0)) for row in characters)
        return Sectors(orbits, characters, np.sqrt(1.0 / fixed.sum(axis=0)), rows, flips)

    def block(self, place: int) -> np.ndarray:
        """The matrix in the basis of the sector at ``place`` in :attr:`sectors`,
        B[p, q] = sum_T characters[T] A[p, r_T q] / sqrt(|Stab p| |Stab q|),
        gathered by :func:`_gather` over the box of the orbits' first cells p.
        Raises ``ValueError`` before the gather when the block, LAPACK's copy
        of it and the gather's own arrays would not fit in memory.
        """
        sectors = self.sectors
        rows = sectors.rows[place]
        m = rows.size
        if not m:  # a sign pattern that keeps no orbit
            return np.empty((0, 0))
        cells = self.grid.indices[sectors.orbits[0, rows]]
        corner = cells.min(axis=0)
        shape = tuple((cells.max(axis=0) - corner + 1).tolist())
        _require_gather_memory(self.table, m, shape, 2,
                               f"a dense {m} x {m} block plus LAPACK's copy")
        return _gather(self.table, corner.tolist(), shape, sectors.flips, sectors.characters[place],
                       np.ravel_multi_index(tuple((cells - corner).T), shape), sectors.scale[rows])

    def sector_matvec(self, vectors: dict) -> dict:
        """The products B u of the blocks of several sectors, by one matvec.

        ``vectors`` maps a sector's place in :attr:`sectors` to a vector u in
        that sector's basis.  The vectors are spread onto the cells and added
        up, A is applied once, and the product is read back in each sector's
        basis: A commutes with the reflections, so the sectors do not mix.
        Both are sums over the character table's rows, by ``einsum`` and not
        BLAS, so the bits do not depend on the thread count.
        """
        sectors = self.sectors
        orbits = sectors.orbits
        scale = sectors.scale * len(orbits) ** -0.5  # 1/sqrt(2^axes |Stab p|) per orbit p
        u = np.zeros(orbits.shape)  # row e: sector e's coefficients on the orbits
        for i, v in vectors.items():
            u[i, sectors.rows[i]] = v
        x = np.einsum("et,eo->to", sectors.characters, u)  # row t: the values on the cells r_T p
        x *= scale
        y = self.matvec(np.bincount(orbits.ravel(), weights=x.ravel(), minlength=self.grid.count))
        w = np.einsum("et,to->eo", sectors.characters, y[orbits])
        w *= scale
        return {i: w[i, sectors.rows[i]] for i in vectors}

    @functools.cached_property
    def symbol(self) -> np.ndarray:
        """The rfft half of the spectrum of :meth:`matvec`'s circulant, built
        once from the table one axis at a time, in ``rfftn``'s order.  Along
        an axis of length L the circulant's column holds slot min(j, L - j)
        of the table at j, and zero past the table, so it is even and its
        transform is 2 Re(sum_j t_j w^(jk)) - t_0 over the table's slots.
        Raises ``ValueError`` first when the product would not fit in
        memory: this symbol (a real rfft half), two complex rfft halves and
        the complex line that numpy's FFT copies a strided axis through; the
        build needs less, and the product's other arrays are the size of
        the box."""
        shape = tuple(_fft_length(2 * size - 1) for size in self.table.shape)
        half = math.prod(shape[:-1]) * (shape[-1] // 2 + 1)
        _require_memory(40 * half + 16 * max(shape), f"the {' x '.join(map(str, shape))} circulant")
        x = self.table
        for d in reversed(range(x.ndim)):
            f = np.fft.rfft if d == x.ndim - 1 else np.fft.fft
            x = 2.0 * f(x, n=shape[d], axis=d).real - np.take(x, [0], axis=d)
        return x

    def matvec(self, v) -> np.ndarray:
        """The product A v, by one FFT pair on the circulant embedding of the table.

        The FFTs run over the mask's bounding box, the circulant's leading
        corner, alone: each forward transform pads its axis with zeros, and
        each inverse one keeps the box's entries of its axis only.  No zero
        row of the circulant is transformed and no row outside the box is
        inverted.  The axes go in the order of ``rfftn`` and ``irfftn``, whose
        product on the zero-padded circulant this is, bit for bit.
        """
        v = np.asarray(v, dtype=float).ravel()
        if v.shape[0] != self.grid.count:
            raise ValueError(f"vector has length {v.shape[0]}, grid has {self.grid.count} cells")
        symbol = self.symbol  # built, or refused, before the product's own arrays
        box = self.table.shape
        shape = tuple(_fft_length(2 * size - 1) for size in box)
        x = np.zeros(box)
        x[self.grid.mask] = v
        x = np.fft.rfft(x, n=shape[-1], axis=-1)
        for d in reversed(range(len(box) - 1)):
            x = np.fft.fft(x, n=shape[d], axis=d)
        x *= symbol
        for d in range(len(box) - 1):
            x = np.fft.ifft(x, axis=d)[(slice(None),) * d + (slice(box[d]),)]
        return np.fft.irfft(x, n=shape[-1], axis=-1)[..., : box[-1]][self.grid.mask]


def build_grid(domain: Domain, h: float) -> Grid:
    """Enumerate the lattice cells of side ``h`` fully contained in the domain.

    The lattice is anchored at the bounding-box corner; ``h`` is snapped so
    that it tiles the bounding box exactly (and never exceeds 1/2).  Cells
    are ordered lexicographically by lattice index, which makes every
    downstream computation deterministic, and dyadic refinement h -> h/2
    splits each cell into 2^N children of the finer grid (nested subspaces).
    A bounding-box lattice too large for memory, or of more than
    2^63 cells, raises ``ValueError``.
    """
    if not (0.0 < h <= MAX_CELL_SIDE) or not math.isfinite(h):
        raise ValueError(f"cell side must lie in (0, {MAX_CELL_SIDE}], got {h!r}")
    lo = domain.lo
    sides = tuple(b - a for a, b in zip(lo, domain.hi))
    if not math.prod(s / h for s in sides) < 2**63:  # the int64 lattice indices' range
        raise ValueError(f"cell side {h!r} gives a lattice of more than 2^63 cells")

    # Snap h to divide the first bounding-box side; the cap keeps the
    # snapped value admissible when h was close to 1/2.
    n0 = max(int(round(sides[0] / h)), int(math.ceil(sides[0] / MAX_CELL_SIDE - 1e-12)))
    h_eff = sides[0] / n0
    counts = []
    for s in sides:
        ni = int(round(s / h_eff))
        if ni < 1 or abs(ni * h_eff - s) > 1e-9 * max(1.0, s):
            raise ValueError(
                f"cell side {h!r} cannot tile the bounding box sides {sides!r}"
            )
        counts.append(ni)
    # the build's peak, 9 bytes per lattice cell: a ball's distances and mask
    _require_memory(9 * math.prod(counts), f"a lattice of {math.prod(counts)} cells")

    if domain.kind == "ball":
        # Keep the cells whose far corner |center - domain.center| + h/2 is in the ball,
        # by the operations of its norm; arrays lead, so numpy reuses the temporaries.
        squares = [((abs(np.arange(0.5, n) * h_eff + lo[d] - c) + 0.5 * h_eff) ** 2)
                   .reshape([-1 if a == d else 1 for a in range(len(counts))])
                   for d, (n, c) in enumerate(zip(counts, domain.center))]
        dist = sum(squares[1:], squares[0])
        mask = np.sqrt(dist, out=dist) <= domain.radius + 1e-12
        del squares, dist
    else:
        mask = np.ones(counts, dtype=bool)  # interval/box cells tile the domain exactly
    if not mask.any():
        raise ValueError("no cell of this size fits inside the domain")
    kept = [mask.any(axis=tuple(a for a in range(mask.ndim) if a != d)) for d in range(mask.ndim)]
    box = tuple(slice(int(k.argmax()), k.size - int(k[::-1].argmax())) for k in kept)
    return Grid(domain, h_eff, tuple(b.start for b in box), mask[box].copy())


# ---------------------------------------------------------------------------
# pair integrals of |x - y|^(-N) over cell pairs
# ---------------------------------------------------------------------------


def _entry_row_1d(m_max: int, h: float, constants: DimensionConstants) -> np.ndarray:
    """Entries by center offset m*h for m = 0..m_max (m = 0 is the diagonal).

    The pair integral h[(m+1) ln(m+1) - 2m ln m + (m-1) ln(m-1)] is evaluated
    as h[m ln(1 - 1/m^2) + 2 artanh(1/m)], which does not cancel at large m.
    """
    m = np.arange(2, m_max + 1, dtype=float)
    far = h * (m * np.log1p(-1.0 / (m * m)) + 2.0 * np.arctanh(1.0 / m))
    pair = np.concatenate(([0.0, 2.0 * h * math.log(2.0)], far))[: m_max + 1]
    row = -constants.kernel_constant * pair
    row[0] = (
        constants.kernel_constant * 2.0 * h * (1.0 - math.log(h))
        + constants.zero_order_shift * h
    )
    return row


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1]: ascending nodes and weights.

    Golub & Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of
    the Jacobi matrix of the Legendre recurrence, whose off-diagonal is
    j / sqrt(4 j^2 - 1), and each weight is 2 v_0^2 for the unit
    eigenvector v of its node.
    """
    j = np.arange(1.0, n)
    x, v = np.linalg.eigh(np.diag(j / np.sqrt(4.0 * j * j - 1.0), -1))
    return x, 2.0 * v[0] ** 2


def _separated_points(q: np.ndarray) -> np.ndarray:
    """Gauss points per half-axis for separated pairs (p, q), p <= q.

    The integrand of :func:`_pair_batch_gauss` has its nearest singularity,
    for p = 0, on the axis of q, 2q - 1 half-lengths of the nearer half-axis
    from its center.  It is analytic inside the Bernstein ellipse of
    parameter rho = (2q - 1) + sqrt((2q - 1)^2 - 1) through that point, so
    the n-point rule's error falls like rho^(-2n) (Trefethen, SIAM Rev. 50,
    2008).  Measured against 32-digit integrals for q = 2 to 2,000 and
    n = 2 to 7, it stays below 100 rho^(-2n) relative, so
    n = ceil(17.6 / ln rho) keeps every slot within 1e-13
    (100 e^-35.2 = 5.2e-14), ten times inside the 1e-12 contract: 5 points
    from q = 9, 4 from 21, 3 from 89, 2 from 1,660 and 1 from 11,003,299.
    Where the bound asks for more than 5 (q <= 8, a few dozen pairs) the
    pairs take _SEPARATED_GAUSS_N.
    """
    x = 2.0 * q - 1.0
    points = np.ceil(17.6 / np.log(x + np.sqrt(x * x - 1.0))).astype(int)
    points[points > 5] = _SEPARATED_GAUSS_N
    return points


def _pair_batch_gauss(offsets: np.ndarray, n: int) -> np.ndarray:
    """Integrals of |x-y|^(-2) over batches of separated unit-cell pairs.

    ``offsets`` holds the lattice offsets (a, b), max(a, b) >= 2, of the pairs.
    Per axis the difference of two uniform points on a unit cell has the tent
    density 1 - |s| on [-1, 1], so each pair integral is the integral of
    (1 - |s|)(1 - |t|) / ((a + s)^2 + (b + t)^2) over [-1, 1]^2.  That is
    analytic on each quadrant, and n Gauss-Legendre points per half-axis
    (:func:`_gauss_legendre`) converge geometrically, the faster the farther
    apart the cells are (:func:`_separated_points`).  Looping over one axis's
    2n nodes keeps temporaries at (pairs, 2n).  The sums are numpy's, not
    BLAS's, so a pair's value does not depend on the thread count or on the
    other pairs in the batch.
    """
    x, w = _gauss_legendre(n)
    nodes = 0.5 * np.concatenate((-1.0 - x, 1.0 + x))  # n per half-axis
    weights = (1.0 - np.abs(nodes)) * np.tile(0.5 * w, 2)
    du2, dv2 = ((offsets[:, i, None] + nodes) ** 2 for i in (0, 1))
    kernel = np.empty_like(dv2)  # reused: a fresh array per node doubles the time
    out = np.zeros(len(offsets))
    for j, ws in enumerate(weights):
        np.divide(1.0, np.add(du2[:, j, None], dv2, out=kernel), out=kernel)
        out += ws * np.einsum("pj,j->p", kernel, weights)
    return out


def _offset_table_2d(max_a: int, max_b: int) -> np.ndarray:
    """Unit-scale kernel integrals indexed by absolute lattice offset (a, b).

    Pairs a <= b are integrated once, in blocks of columns b of one point
    count, and mirrored in place, so the table is exactly symmetric.  Entry
    (0, 0) is left NaN; the diagonal has its own closed form.
    """
    lo, hi = sorted((max_a, max_b))
    table = np.full((lo + 1, hi + 1), np.nan)  # table[p, q], integrated for p <= q
    touching = np.array([[np.nan, _EDGE_UNIT_2D], [_EDGE_UNIT_2D, _CORNER_UNIT_2D]])
    table[:2, :2] = touching[: lo + 1, : hi + 1]
    columns = np.arange(2, hi + 1)
    points = _separated_points(columns)
    width = max(1, _GAUSS_BLOCK_PAIRS // (lo + 1))  # columns per block
    for n in set(points.tolist()):
        band = columns[points == n]
        for s in range(0, band.size, width):
            q = band[s : s + width]
            p, j = np.nonzero(np.arange(lo + 1)[:, None] <= q)
            table[p, q[j]] = _pair_batch_gauss(np.stack((p, q[j]), 1).astype(float), n)
    for p in range(1, lo + 1):
        table[p, :p] = table[:p, p]
    return np.ascontiguousarray(table.T) if max_a > max_b else table


def _diagonal_entry_2d(h: float, constants: DimensionConstants) -> float:
    inner = h * h * (2.0 * math.pi * (1.0 - math.log(h)) + _DIAG_UNIT_2D)
    return constants.kernel_constant * inner + constants.zero_order_shift * h * h


def _require_memory(nbytes: int, what: str) -> None:
    """Raise ``ValueError`` when ``nbytes`` exceed the physical memory or
    the process's soft address-space limit (``RLIMIT_AS``), whichever is
    smaller: beyond the limit numpy would raise ``MemoryError`` only after
    the work before the allocation."""
    limit = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    name = "of physical memory"
    if resource is not None:
        soft = resource.getrlimit(resource.RLIMIT_AS)[0]
        if soft != resource.RLIM_INFINITY and soft < limit:
            limit, name = soft, "address-space limit (RLIMIT_AS)"
    if nbytes > limit:
        raise ValueError(f"{what} needs {_binary_size(nbytes)}, "
                         f"more than the {_binary_size(limit)} {name}")


def _binary_size(nbytes: int) -> str:
    """A byte count in the largest binary unit, up to TiB, that it fills:
    ``336.0 KiB``, ``19.3 GiB``."""
    k = min(max(int(nbytes).bit_length() - 1, 0) // 10, 4)
    return f"{nbytes / 1024**k:.1f} {('B', 'KiB', 'MiB', 'GiB', 'TiB')[k]}"


def offset_form(grid: Grid) -> QuadFormMatrix:
    """The energy form on a grid as its offset table, without the dense matrix.

    The table is the size of the grid's mask; its off-diagonal slots are
    strictly negative (the kernel is positive).
    """
    constants = dimension_constants(grid.dim)
    h = grid.h
    spans = [size - 1 for size in grid.mask.shape]
    if grid.dim == 1:
        table = _entry_row_1d(spans[0], h, constants)
    elif grid.dim == 2:
        table = _offset_table_2d(*spans)
        table *= -constants.kernel_constant * h * h
        table[0, 0] = _diagonal_entry_2d(h, constants)
    else:
        raise ValueError(f"assembly supports dimensions 1 and 2, got {grid.dim}")
    return QuadFormMatrix(grid=grid, table=table)


def assemble_form(form: QuadFormMatrix) -> np.ndarray:
    """The dense n x n matrix of a form, gathered from its table, for writing
    it out (``solve --dump-matrix``); solves and Rayleigh quotients need
    only the table.  Raises ``ValueError`` before anything is allocated
    when the matrix would not fit in memory."""
    _require_dense_memory(form)
    mask = form.grid.mask
    return _gather(form.table, (0,) * mask.ndim, mask.shape, [()], [1.0],
                   np.flatnonzero(mask), np.ones(form.grid.count))


def _require_dense_memory(form: QuadFormMatrix) -> None:
    """Raise ``ValueError`` when :func:`assemble_form`'s matrix would not fit
    in memory: ``solve --dump-matrix`` asks before its eigensolve and
    gathers the matrix after it."""
    n = form.grid.count
    _require_gather_memory(form.table, n, form.grid.mask.shape, 1, f"a dense {n} x {n} matrix")


def _require_gather_memory(table: np.ndarray, size: int, shape: tuple[int, ...],
                           copies: int, what: str) -> None:
    """Refuse, by :func:`_require_memory`, a :func:`_gather` of a ``size`` x
    ``size`` result over a ``shape`` box when ``copies`` of it, the reflected
    table and, unless the cells fill the box, two row buffers would not fit:
    a buffer holds _FILL_BLOCK_ENTRIES entries, or one row of the box."""
    reflected = math.prod(2 * s - 1 for s in table.shape)
    box = math.prod(shape)
    buffer = 0 if size == box else 2 * max(_FILL_BLOCK_ENTRIES, box // shape[0] * box)
    _require_memory(8 * (copies * size * size + reflected + buffer),
                    f"{what} and the reflected offset table")


def _gather(table: np.ndarray, corner, shape, flips, weights, cells, scale) -> np.ndarray:
    """Fill a dense block from the offset table: entry (a, b) is
    scale_a * scale_b * sum_t weights[t] * table[|p_a - r_t p_b|] for the
    cells p at the ascending flat positions ``cells`` of a ``shape`` box with
    lowest lattice corner ``corner``, and the reflections r_t of the mask
    (p_d -> S_d - p_d, S = table.shape - 1) along the axes ``flips[t]``; the
    first flips none and has weight 1.

    Every term is a window view of the reflected table R, R[S + o] =
    table[|o|] per axis, at the cells' box coordinates i and j: R[S + i - j]
    on an axis r_t keeps, R[2 corner + i + j] on one it flips, so a block is
    a signed sum of Toeplitz and Hankel pieces of R (Cantoni & Butler,
    Linear Algebra Appl. 13, 1976).  The terms are summed in the order of
    ``flips``, some rows of the box at a time, into the result where the
    cells fill their box, else into a row buffer that their entries are
    taken from.  Symmetric positions read the same slots: the result equals
    its transpose bit for bit."""
    size = len(cells)
    box = math.prod(shape)
    spans = [s - 1 for s in table.shape]
    reflected = table[np.ix_(*(abs(np.arange(-s, s + 1)) for s in spans))]
    windows = np.lib.stride_tricks.sliding_window_view(reflected, shape)  # [x, y] = R[x + y]
    views = []
    for flip in flips:  # R[S - i + j] = R[S + i - j] on a kept axis, by R's symmetry
        view = windows[tuple(slice(2 * c, 2 * c + b) if d in flip else slice(s - b + 1, s + 1)
                             for d, (c, b, s) in enumerate(zip(corner, shape, spans)))]
        views.append(np.flip(view, [d for d in range(len(shape)) if d not in flip]))
    entries = np.empty((size, size))
    fills = size == box
    line = box // shape[0]  # positions per row of the box
    rows = max(1, _FILL_BLOCK_ENTRIES // (line * box))  # rows of the box per block
    out = entries.reshape(shape + shape) if fills else np.empty((rows, *shape[1:], *shape))
    for s in range(0, shape[0], rows):
        part = out[s : s + rows] if fills else out[: min(rows, shape[0] - s)]
        total = views[0][s : s + rows]
        for weight, view in zip(weights[1:], views[1:]):
            total = (np.add if weight > 0 else np.subtract)(total, view[s : s + rows], out=part)
        if total is not part:
            part[...] = total
        if not fills:
            lo, hi = np.searchsorted(cells, [s * line, (s + rows) * line])
            np.take(part.reshape(-1, box)[cells[lo:hi] - s * line], cells, axis=1,
                    out=entries[lo:hi], mode="clip")  # all in range; "clip" is unbuffered
    lined = np.flatnonzero(scale != 1.0)  # cells that a reflection fixes
    entries[lined] *= scale[lined, None]
    entries[:, lined] *= scale[lined]
    return entries


def _fft_length(n: int) -> int:
    """The smallest 5-smooth integer >= n: an FFT size pocketfft handles fast."""
    m = n
    while True:
        r = m
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


def rayleigh_quotient(matrix: QuadFormMatrix, coefficients) -> float:
    """Energy quotient (v^T A v) / (h^N v^T v) of a coefficient vector.

    By min-max this is an upper bound for the smallest discrete eigenvalue,
    hence also for the smallest true eigenvalue (inner approximation).
    A v is one :meth:`QuadFormMatrix.matvec`: the dense matrix is never
    gathered, and the memory needed is linear in the size of the grid's mask.
    """
    v = np.asarray(coefficients, dtype=float).ravel()
    denom = float(v @ v)
    if denom == 0.0:
        raise ValueError("coefficient vector must not be identically zero")
    return float(v @ matrix.matvec(v)) / (matrix.mass_scale * denom)

