"""Voxel domains and the discrete differential operators on them.

A domain is a boolean occupancy mask on a uniform grid with spacing ``h``:
cells marked ``True`` belong to the open set, everything else is outside.
No regularity of the occupied region is assumed; disconnected and rough
masks are fine.

Fields live on the occupied cells only, in a fixed cell enumeration
(C-order of the index triples).  Three operators are assembled as explicit
sparse matrices over that enumeration:

* ``gradient``   : centered differences ``(p[c+e] - p[c-e]) / (2h)`` with
  zero extension outside the mask,
* ``divergence`` : exactly ``-gradient.T``, so that
  ``<grad p, u> + <p, div u> = 0`` holds to round-off (discrete
  integration by parts with zero boundary values),
* ``laplacian``  : componentwise 7-point stencil ``(6u[c] - sum u[nbr])/h^2``
  with Dirichlet (zero) values at unoccupied neighbors; symmetric positive
  definite.

Inner products and norms carry the cell volume ``h^3`` so that they are
discretizations of the corresponding integrals.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import (
    FieldMismatchError,
    MaskCharacterError,
    MaskDimensionError,
    MaskEmptyError,
    MaskHeaderError,
)

MASK_MAGIC = "mask v1"

_AXIS_SHIFTS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@dataclass(eq=False)
class DomainMask:
    """Boolean voxel occupancy on a uniform grid.

    Attributes
    ----------
    dims : (nx, ny, nz) grid extents, each >= 1.
    spacing : grid step h > 0, the same in all axes.
    occupancy : bool array of shape dims; True marks cells of the domain.
    """

    dims: tuple[int, int, int]
    spacing: float
    occupancy: np.ndarray
    cells: np.ndarray = field(init=False, repr=False)
    index_grid: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        nx, ny, nz = self.dims
        if min(nx, ny, nz) < 1:
            raise MaskHeaderError(f"grid extents must be >= 1, got {self.dims}")
        if not self.spacing > 0.0:
            raise MaskHeaderError(f"grid spacing must be positive, got {self.spacing}")
        occ = np.asarray(self.occupancy, dtype=bool)
        if occ.shape != (nx, ny, nz):
            raise MaskDimensionError(
                f"occupancy shape {occ.shape} does not match dims {self.dims}"
            )
        if not occ.any():
            raise MaskEmptyError("empty domain: no occupied cell")
        self.occupancy = occ
        # Fixed cell enumeration: C-order over (ix, iy, iz).
        self.cells = np.argwhere(occ)
        index = np.full(self.dims, -1, dtype=np.int64)
        index[occ] = np.arange(self.cells.shape[0])
        self.index_grid = index
        for arr in (self.occupancy, self.cells, self.index_grid):
            arr.flags.writeable = False

    @property
    def n_cells(self) -> int:
        return int(self.cells.shape[0])

    @property
    def cell_volume(self) -> float:
        return float(self.spacing) ** 3

    def same_as(self, other: "DomainMask") -> bool:
        return self is other or (
            self.dims == other.dims
            and self.spacing == other.spacing
            and np.array_equal(self.occupancy, other.occupancy)
        )


def _require_same_mask(a, b):
    if not a.mask.same_as(b.mask):
        raise FieldMismatchError("fields live on different masks")


@dataclass(eq=False)
class ScalarField:
    """One real value per occupied cell."""

    mask: DomainMask
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.mask.n_cells,):
            raise FieldMismatchError(
                f"scalar field has {vals.shape} values for {self.mask.n_cells} cells"
            )
        self.values = vals


@dataclass(eq=False)
class VectorField:
    """Three real values (components u1, u2, u3) per occupied cell.

    ``values`` has shape (3, n_cells); ``flat`` is the component-blocked
    vector of length 3*n_cells used by the sparse operators.
    """

    mask: DomainMask
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (3, self.mask.n_cells):
            raise FieldMismatchError(
                f"vector field has shape {vals.shape}, expected (3, {self.mask.n_cells})"
            )
        self.values = vals

    @property
    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)

    @classmethod
    def zeros(cls, mask: DomainMask) -> "VectorField":
        return cls(mask, np.zeros((3, mask.n_cells)))

    @classmethod
    def from_flat(cls, mask: DomainMask, flat: np.ndarray) -> "VectorField":
        return cls(mask, np.asarray(flat, dtype=float).reshape(3, mask.n_cells))


def field_dot(a, b) -> float:
    """Cell-volume weighted inner product of two fields of the same kind."""
    _require_same_mask(a, b)
    return a.mask.cell_volume * float(np.vdot(a.values, b.values))


def field_norm(a) -> float:
    return a.mask.cell_volume ** 0.5 * float(np.linalg.norm(a.values))


def vector_lp_norm(u: VectorField, p: float) -> float:
    """Discrete L^p cell-sum norm, with the pointwise Euclidean magnitude."""
    mag = np.sqrt((u.values ** 2).sum(axis=0))
    return float((u.mask.cell_volume * (mag ** p).sum()) ** (1.0 / p))


# ---------------------------------------------------------------------------
# Mask file format
# ---------------------------------------------------------------------------
#
# line 1:  "mask v1"
# line 2:  "nx ny nz h"
# body:    nz blocks of ny lines of nx characters from {0, 1};
#          consecutive blocks are separated by exactly one blank line.
# Anything else is a parse error.  Character (i, j) of block k sets the
# occupancy of cell (x=i, y=j, z=k).


def load_mask(source) -> DomainMask:
    """Parse a mask from bytes, text, a file-like object, or a path."""
    text = _as_text(source)
    lines = text.split("\n")
    # A single trailing newline is tolerated.
    while lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != MASK_MAGIC:
        raise MaskHeaderError(f"first line must be {MASK_MAGIC!r}")
    if len(lines) < 2:
        raise MaskHeaderError("missing dimension line")
    tokens = lines[1].split()
    if len(tokens) != 4:
        raise MaskHeaderError(f"dimension line needs 'nx ny nz h', got {lines[1]!r}")
    try:
        nx, ny, nz = (int(t) for t in tokens[:3])
        h = float(tokens[3])
    except ValueError as exc:
        raise MaskHeaderError(f"unparsable dimension line {lines[1]!r}") from exc
    if min(nx, ny, nz) < 1:
        raise MaskHeaderError(f"grid extents must be >= 1, got ({nx}, {ny}, {nz})")
    if not h > 0.0:
        raise MaskHeaderError(f"grid spacing must be positive, got {h}")

    body = lines[2:]
    expected = nz * ny + (nz - 1)  # ny lines per block, one blank between blocks
    if len(body) != expected:
        raise MaskDimensionError(
            f"expected {expected} body lines for {nz} blocks of {ny} lines, got {len(body)}"
        )
    occ = np.zeros((nx, ny, nz), dtype=bool)
    pos = 0
    for k in range(nz):
        if k > 0:
            if body[pos] != "":
                raise MaskDimensionError(
                    f"expected a blank line between blocks, got {body[pos]!r}"
                )
            pos += 1
        for j in range(ny):
            row = body[pos]
            pos += 1
            if len(row) != nx:
                raise MaskDimensionError(
                    f"block {k} line {j} has {len(row)} characters, expected {nx}"
                )
            bad = set(row) - {"0", "1"}
            if bad:
                raise MaskCharacterError(
                    f"block {k} line {j} contains invalid characters {sorted(bad)}"
                )
            occ[:, j, k] = [c == "1" for c in row]
    return DomainMask((nx, ny, nz), h, occ)


def format_mask(mask: DomainMask) -> str:
    """Serialize a mask back to the text format (inverse of ``load_mask``)."""
    nx, ny, nz = mask.dims
    out = [MASK_MAGIC, f"{nx} {ny} {nz} {mask.spacing!r}"]
    for k in range(nz):
        if k > 0:
            out.append("")
        for j in range(ny):
            out.append("".join("1" if mask.occupancy[i, j, k] else "0" for i in range(nx)))
    return "\n".join(out) + "\n"


def _as_text(source) -> str:
    if isinstance(source, bytes):
        return source.decode("ascii")
    if isinstance(source, str) and "\n" not in source and not source.startswith(MASK_MAGIC):
        with open(source, "rb") as fh:
            return fh.read().decode("ascii")
    if isinstance(source, str):
        return source
    if isinstance(source, io.IOBase) or hasattr(source, "read"):
        data = source.read()
        return data.decode("ascii") if isinstance(data, bytes) else data
    raise TypeError(f"cannot read a mask from {type(source)!r}")


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class DiscreteOperators:
    """Sparse gradient / divergence / vector Laplacian over the enumeration.

    ``grad_blocks[j]`` is the (n x n) centered difference along axis j;
    ``gradient`` stacks the three blocks to (3n x n).  ``divergence`` is
    ``-gradient.T`` so adjointness is exact by construction.  ``laplacian``
    is block-diagonal with three copies of the scalar 7-point stencil.
    """

    mask: DomainMask
    grad_blocks: tuple
    gradient: sp.csr_matrix
    divergence: sp.csr_matrix
    laplacian: sp.csr_matrix
    scalar_laplacian: sp.csr_matrix

    def gradient_of(self, p: ScalarField) -> VectorField:
        if not p.mask.same_as(self.mask):
            raise FieldMismatchError("scalar field on a different mask")
        return VectorField.from_flat(self.mask, self.gradient @ p.values)

    def divergence_of(self, u: VectorField) -> ScalarField:
        if not u.mask.same_as(self.mask):
            raise FieldMismatchError("vector field on a different mask")
        return ScalarField(self.mask, self.divergence @ u.flat)

    def laplacian_of(self, u: VectorField) -> VectorField:
        if not u.mask.same_as(self.mask):
            raise FieldMismatchError("vector field on a different mask")
        return VectorField.from_flat(self.mask, self.laplacian @ u.flat)


def build_operators(mask: DomainMask) -> DiscreteOperators:
    """Assemble the stencil operators for a mask."""
    n = mask.n_cells
    idx = mask.index_grid
    occ = mask.occupancy
    h = mask.spacing

    grad_blocks = []
    lap_rows, lap_cols, lap_vals = [], [], []
    for axis, shift in enumerate(_AXIS_SHIFTS):
        rows_p, cols_p = _neighbor_pairs(occ, idx, shift)
        # Centered difference: +1/(2h) at c+e, -1/(2h) at c-e; missing
        # neighbors contribute the zero extension, i.e. nothing.
        data = np.concatenate(
            [np.full(rows_p.size, 1.0 / (2 * h)), np.full(rows_p.size, -1.0 / (2 * h))]
        )
        rows = np.concatenate([rows_p, cols_p])
        cols = np.concatenate([cols_p, rows_p])
        block = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
        grad_blocks.append(block)
        # 7-point Laplacian couplings for this axis (both orientations).
        lap_rows.extend([rows_p, cols_p])
        lap_cols.extend([cols_p, rows_p])
        lap_vals.extend([np.full(rows_p.size, -1.0 / h**2)] * 2)

    lap_rows.append(np.arange(n))
    lap_cols.append(np.arange(n))
    lap_vals.append(np.full(n, 6.0 / h**2))
    scalar_lap = sp.csr_matrix(
        (np.concatenate(lap_vals), (np.concatenate(lap_rows), np.concatenate(lap_cols))),
        shape=(n, n),
    )

    gradient = sp.vstack(grad_blocks, format="csr")
    divergence = (-gradient.T).tocsr()
    laplacian = sp.block_diag([scalar_lap] * 3, format="csr")
    return DiscreteOperators(
        mask, tuple(grad_blocks), gradient, divergence, laplacian, scalar_lap
    )


def _neighbor_pairs(occ, idx, shift):
    """Indices (cell, cell+shift) for pairs of occupied cells."""
    sx, sy, sz = shift
    nx, ny, nz = occ.shape
    src = (slice(0, nx - sx), slice(0, ny - sy), slice(0, nz - sz))
    dst = (slice(sx, nx), slice(sy, ny), slice(sz, nz))
    both = occ[src] & occ[dst]
    return idx[src][both], idx[dst][both]
