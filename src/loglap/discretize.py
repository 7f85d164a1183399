"""Piecewise-constant Galerkin assembly of the logarithmic-kernel energy form.

Grids are unions of lattice cells of side ``h`` fully contained in a domain
(inner approximation, so discrete eigenvalues sit above the true ones by
min-max).  The bilinear form splits into a singular near-range part, a
negative far-range tail, and a zero-order shift; for disjoint cells the two
range parts recombine into one full kernel integral, which is what we
assemble:

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
tangent integral, separated offsets by a fixed tensor Gauss rule.  One
row-blocked gather fills the dense matrix in every dimension, so assembly
needs the 8*n*n-byte matrix plus a small fixed block; a matrix larger than
physical memory is refused first.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .constants import DimensionConstants, dimension_constants
from .geometry import Domain
from .specfun import CATALAN, EULER_GAMMA, TI2_HALF, cosint

__all__ = [
    "Grid",
    "QuadFormMatrix",
    "build_grid",
    "assemble_form",
    "rayleigh_quotient",
    "plane_wave_symbol_1d",
]

MAX_CELL_SIDE = 0.5

# Tensor Gauss rule per axis for separated cells (center distance >= 2h).
_SEPARATED_GAUSS_N = 4

# Matrix entries gathered per row block; the index temporaries are a few
# times this size.  Of 2^14..2^18 it gave the lowest peak RSS on every
# benchmark workload and a 1D fill twice as fast as 2^16 and up.
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
    """Lattice cells of side ``h`` fully inside ``domain``, in lexicographic order."""

    domain: Domain
    h: float
    indices: np.ndarray  # (count, dim) integer lattice coordinates
    centers: np.ndarray  # (count, dim) cell centers

    @property
    def count(self) -> int:
        return self.indices.shape[0]

    @property
    def dim(self) -> int:
        return self.domain.dim


@dataclass(frozen=True, eq=False)
class QuadFormMatrix:
    """Dense symmetric Galerkin matrix of the energy form on a grid.

    The generalized eigenproblem is A v = lambda * mass_scale * v with
    mass_scale = h^N (the indicator basis is orthogonal with that norm).
    """

    grid: Grid
    entries: np.ndarray
    mass_scale: float


def build_grid(domain: Domain, h: float) -> Grid:
    """Enumerate the lattice cells of side ``h`` fully contained in the domain.

    The lattice is anchored at the bounding-box corner; ``h`` is snapped so
    that it tiles the bounding box exactly (and never exceeds 1/2).  Cells
    are ordered lexicographically by lattice index, which makes every
    downstream computation deterministic, and dyadic refinement h -> h/2
    splits each cell into 2^N children of the finer grid (nested subspaces).
    """
    if not (0.0 < h <= MAX_CELL_SIDE) or not math.isfinite(h):
        raise ValueError(f"cell side must lie in (0, {MAX_CELL_SIDE}], got {h!r}")
    lo = np.asarray(domain.lo, dtype=float)
    sides = np.asarray(domain.hi, dtype=float) - lo

    # Snap h to divide the first bounding-box side; the cap keeps the
    # snapped value admissible when h was close to 1/2.
    n0 = max(int(round(sides[0] / h)), int(math.ceil(sides[0] / MAX_CELL_SIDE - 1e-12)))
    h_eff = float(sides[0]) / n0
    counts = []
    for s in sides:
        ni = int(round(s / h_eff))
        if ni < 1 or abs(ni * h_eff - s) > 1e-9 * max(1.0, s):
            raise ValueError(
                f"cell side {h!r} cannot tile the bounding box sides {tuple(sides)!r}"
            )
        counts.append(ni)

    grids = np.meshgrid(*[np.arange(c) for c in counts], indexing="ij")
    idx = np.stack([g.ravel() for g in grids], axis=1)  # lexicographic
    centers = lo + (idx + 0.5) * h_eff

    if domain.kind == "ball":
        far = np.abs(centers - domain.center) + 0.5 * h_eff
        keep = np.linalg.norm(far, axis=1) <= domain.radius + 1e-12
        idx, centers = idx[keep], centers[keep]
    # interval/box cells tile the domain exactly; nothing to discard.

    if idx.shape[0] == 0:
        raise ValueError("no cell of this size fits inside the domain")
    return Grid(domain=domain, h=h_eff, indices=idx, centers=centers)


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


def _gauss01(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _pair_batch_gauss(offsets: np.ndarray, n: int) -> np.ndarray:
    """Tensor-Gauss integrals of |x-y|^(-2) over batches of unit-cell pairs.

    ``offsets`` holds the lattice offset of the second cell of each pair
    from the first; the rule is accurate only for separated cells.
    """
    g, w = _gauss01(n)
    # y - x separations per axis, laid out as (pair, node_y, node_x)
    sep = g[None, :, None] - g[None, None, :]
    du = offsets[:, 0][:, None, None] + sep
    dv = offsets[:, 1][:, None, None] + sep
    out = np.empty(len(offsets))
    chunk = max(1, 4_000_000 // max(n**4, 1))
    for s in range(0, len(offsets), chunk):
        e = min(s + chunk, len(offsets))
        k = 1.0 / (
            du[s:e, :, :, None, None] ** 2 + dv[s:e, None, None, :, :] ** 2
        )  # axes (pair, y1, x1, y2, x2)
        out[s:e] = np.einsum("maibj,a,i,b,j->m", k, w, w, w, w)
    return out


def _offset_table_2d(max_a: int, max_b: int) -> np.ndarray:
    """Unit-scale kernel integrals indexed by absolute lattice offset (a, b).

    Pairs a <= b are integrated once and mirrored, so the table is exactly
    symmetric.  Entry (0, 0) is left NaN; the diagonal has its own closed form.
    """
    lo, hi = sorted((max_a, max_b))
    half = np.full((lo + 1, hi + 1), np.nan)  # half[p, q] for p <= q
    touching = np.array([[np.nan, _EDGE_UNIT_2D], [_EDGE_UNIT_2D, _CORNER_UNIT_2D]])
    half[:2, :2] = touching[: lo + 1, : hi + 1]
    p, q = np.triu_indices(lo + 1, 0, hi + 1)
    p, q = p[q >= 2], q[q >= 2]
    half[p, q] = _pair_batch_gauss(np.stack([p, q], 1).astype(float), _SEPARATED_GAUSS_N)
    a, b = np.ogrid[: max_a + 1, : max_b + 1]
    return half[np.minimum(a, b), np.maximum(a, b)]


def _diagonal_entry_2d(h: float, constants: DimensionConstants) -> float:
    inner = h * h * (2.0 * math.pi * (1.0 - math.log(h)) + _DIAG_UNIT_2D)
    return constants.kernel_constant * inner + constants.zero_order_shift * h * h


def _require_memory(nbytes: int, what: str) -> None:
    """Raise ``ValueError`` when ``nbytes`` exceed the physical memory."""
    ram = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if nbytes > ram:
        raise ValueError(
            f"{what} needs {nbytes / 2**30:.1f} GiB, "
            f"more than the {ram / 2**30:.1f} GiB of physical memory"
        )


def assemble_form(grid: Grid, constants: DimensionConstants | None = None) -> QuadFormMatrix:
    """Assemble the dense symmetric energy matrix on a grid.

    One offset table (diagonal in slot 0) is built per grid and gathered
    into the matrix in row blocks, the same way in every dimension, so
    symmetric positions read the same slot and the matrix equals its
    transpose bit for bit.  Off-diagonal entries are strictly negative (the
    kernel is positive).  Peak memory is the matrix plus one block; raises
    ``ValueError`` when the matrix would not fit in physical memory.
    """
    if constants is None:
        constants = dimension_constants(grid.dim)
    elif constants.dim != grid.dim:
        raise ValueError(
            f"constants are for dimension {constants.dim}, grid has dimension {grid.dim}"
        )
    n = grid.count
    _require_memory(8 * n * n, f"a dense {n} x {n} matrix")
    h = grid.h
    cols = grid.indices.T  # (dim, n) lattice coordinates
    spans = np.ptp(cols, axis=1).tolist()
    if grid.dim == 1:
        table = _entry_row_1d(spans[0], h, constants)
    elif grid.dim == 2:
        table = -constants.kernel_constant * h * h * _offset_table_2d(*spans)
        table[0, 0] = _diagonal_entry_2d(h, constants)
    else:
        raise ValueError(f"assembly supports dimensions 1 and 2, got {grid.dim}")
    entries = np.empty((n, n))
    block = max(1, _FILL_BLOCK_ENTRIES // n)
    for s in range(0, n, block):
        offsets = (np.abs(c[s : s + block, None] - c) for c in cols)
        entries[s : s + block] = table[tuple(offsets)]
    return QuadFormMatrix(grid=grid, entries=entries, mass_scale=h**grid.dim)


def rayleigh_quotient(matrix: QuadFormMatrix, coefficients) -> float:
    """Energy quotient (v^T A v) / (h^N v^T v) of a coefficient vector.

    By min-max this is an upper bound for the smallest discrete eigenvalue,
    hence also for the smallest true eigenvalue (inner approximation).
    """
    v = np.asarray(coefficients, dtype=float).ravel()
    if v.shape[0] != matrix.grid.count:
        raise ValueError(
            f"coefficient vector has length {v.shape[0]}, grid has {matrix.grid.count} cells"
        )
    denom = float(v @ v)
    if denom == 0.0:
        raise ValueError("coefficient vector must not be identically zero")
    return float(v @ (matrix.entries @ v)) / (matrix.mass_scale * denom)


def plane_wave_symbol_1d(t: float) -> float:
    """Closed-form energy density of a 1D plane wave with frequency t > 0.

    Splitting at range 1 gives the oscillatory near integral via the
    cosine integral and the far tail exactly; together with the zero-order
    shift the expression collapses to 2 ln t, which is the operator's
    Fourier symbol.  Evaluating it this way (instead of returning 2 ln t)
    is the point: it cross-checks the kernel normalization end to end.
    """
    if not (t > 0.0) or not math.isfinite(t):
        raise ValueError(f"frequency must be positive and finite, got {t!r}")
    c = dimension_constants(1)
    ci = cosint(t)
    return (
        c.kernel_constant * 2.0 * (EULER_GAMMA + math.log(t) - ci)
        + 2.0 * ci
        + c.zero_order_shift
    )
