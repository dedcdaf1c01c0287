"""Voxel domains and the discrete differential operators on them.

A domain is a boolean occupancy mask on a uniform grid with spacing ``h``:
cells marked ``True`` belong to the open set, everything else is outside.
No regularity of the occupied region is assumed; disconnected and rough
masks are fine.

Fields live on the occupied cells only, in a fixed cell enumeration
(C-order of the index triples).  Three operators are assembled as explicit
sparse matrices over that enumeration.  Both stencils are parts of one
adjacency per axis e, P[c, c+e] = 1 for each pair of occupied neighbors; a
neighbor outside the mask has no entry, which is the zero extension:

* ``gradient``   : centered differences ``(p[c+e] - p[c-e]) / (2h)``, the
  antisymmetric part ``(P - P^T) / (2h)`` per axis,
* ``divergence`` : exactly ``-gradient.T``, so that
  ``<grad p, u> + <p, div u> = 0`` holds to round-off (discrete
  integration by parts with zero boundary values),
* ``laplacian``  : componentwise 7-point stencil ``(6u[c] - sum u[nbr])/h^2``,
  ``(6 I - sum_e (P + P^T)) / h^2``, with Dirichlet (zero) values at
  unoccupied neighbors; symmetric positive definite.

Inner products and norms carry the cell volume ``h^3`` so that they are
discretizations of the corresponding integrals.
"""

from __future__ import annotations

import os
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
    spacing : grid step h > 0, the same in all axes, stored as a float.
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
        # h^3 weights every inner product and 1/h^2 the Laplacian: both must be usable
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            h = np.float64(self.spacing)
            usable = h > 0.0 and 0.0 < h ** 3 < np.inf and 0.0 < 1.0 / h ** 2 < np.inf
        if not usable:
            raise MaskHeaderError(f"grid spacing needs finite positive h^3 and 1/h^2, got {h}")
        occ = np.asarray(self.occupancy, dtype=bool)
        if occ.shape != (nx, ny, nz):
            raise MaskDimensionError(
                f"occupancy shape {occ.shape} does not match dims {self.dims}"
            )
        if not occ.any():
            raise MaskEmptyError("empty domain: no occupied cell")
        self.occupancy, self.spacing = occ, float(h)  # format_mask writes the spacing's repr
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
        return self.spacing ** 3

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
# occupancy of cell (x=i, y=j, z=k).  Every body line is checked, in file
# order, before the header sizes any array; the first defect is reported.


def load_mask(source) -> DomainMask:
    """Parse a mask from bytes, text, a file-like object, or a path.

    A ``str`` with a newline is mask text (which always has one, after the
    magic line), and any other ``str`` is a path, as is an ``os.PathLike``."""
    text = _as_text(source)
    if "\r\n" in text:
        raise MaskHeaderError("the file has CRLF line endings; a mask needs LF line endings")
    lines = text.rstrip("\n").split("\n")  # any number of trailing newlines is accepted
    if lines[0] != MASK_MAGIC:
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

    body = lines[2:]
    expected = nz * ny + (nz - 1)  # ny lines per block, one blank between blocks
    for i, line in enumerate(body[:expected]):
        k, j = divmod(i, ny + 1)
        if j == ny:
            if line:
                raise MaskDimensionError(f"expected a blank line between blocks, got {line!r}")
        elif len(line) != nx:
            raise MaskDimensionError(f"block {k} line {j} has {len(line)} characters, expected {nx}")
        elif bad := set(line) - {"0", "1"}:
            raise MaskCharacterError(f"block {k} line {j} contains invalid characters {sorted(bad)}")
    if len(body) != expected:
        raise MaskDimensionError(
            f"expected {expected} body lines for {nz} blocks of {ny} lines, got {len(body)}"
        )
    # the blank separators join to nothing: the rows in (z, y, x) order
    rows = np.frombuffer("".join(body).encode("ascii"), np.uint8).reshape(nz, ny, nx)
    return DomainMask((nx, ny, nz), h, (rows == ord("1")).T)


def format_mask(mask: DomainMask) -> str:
    """Serialize a mask back to the text format (inverse of ``load_mask``)."""
    nx, ny, nz = mask.dims
    rows = np.full((nz, ny, nx + 1), ord("\n"), np.uint8)  # each row ends in its newline
    rows[..., :nx] = np.where(mask.occupancy.T, ord("1"), ord("0"))
    body = b"\n".join(block.tobytes() for block in rows)  # a blank line between blocks
    return f"{MASK_MAGIC}\n{nx} {ny} {nz} {mask.spacing!r}\n{body.decode('ascii')}"


def _as_text(source) -> str:
    if isinstance(source, os.PathLike) or (isinstance(source, str) and "\n" not in source):
        with open(source, "rb") as fh:
            source = fh.read()
    elif hasattr(source, "read"):
        source = source.read()
    if isinstance(source, str):
        return source
    if not isinstance(source, bytes):
        raise TypeError(f"cannot read a mask from {type(source)!r}")
    try:
        return source.decode("ascii")
    except UnicodeDecodeError as exc:
        raise MaskCharacterError(f"non-ASCII byte at offset {exc.start} of the mask") from exc


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class DiscreteOperators:
    """Sparse gradient / divergence / vector Laplacian over the enumeration.

    ``gradient`` (3n x n) stacks the centered differences along the three
    axes: rows j*n .. (j+1)*n - 1 of ``gradient @ p`` hold d_j p.
    ``divergence`` is ``-gradient.T`` so adjointness is exact by construction.
    ``laplacian`` is block-diagonal with three copies of the scalar 7-point stencil.
    """

    mask: DomainMask
    gradient: sp.csr_matrix
    divergence: sp.csr_matrix
    laplacian: sp.csr_matrix

    def gradient_of(self, p: ScalarField) -> VectorField:
        _require_same_mask(p, self)
        return VectorField.from_flat(self.mask, self.gradient @ p.values)

    def divergence_of(self, u: VectorField) -> ScalarField:
        _require_same_mask(u, self)
        return ScalarField(self.mask, self.divergence @ u.flat)

    def laplacian_of(self, u: VectorField) -> VectorField:
        _require_same_mask(u, self)
        return VectorField.from_flat(self.mask, self.laplacian @ u.flat)


def build_operators(mask: DomainMask) -> DiscreteOperators:
    """Assemble the stencil operators for a mask from one adjacency per axis."""
    n = mask.n_cells
    h = mask.spacing
    adjacency = []
    for shift in _AXIS_SHIFTS:
        rows, cols = _neighbor_pairs(mask.occupancy, mask.index_grid, shift)
        adjacency.append(sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n)))
    gradient = sp.vstack([(p - p.T) / (2 * h) for p in adjacency], format="csr")
    scalar_lap = 6.0 / h**2 * sp.eye(n, format="csr") - sum(p + p.T for p in adjacency) / h**2
    divergence = (-gradient.T).tocsr()
    laplacian = sp.block_diag([scalar_lap] * 3, format="csr")
    return DiscreteOperators(mask, gradient, divergence, laplacian)


def _neighbor_pairs(occ, idx, shift):
    """Indices (cell, cell+shift) for pairs of occupied cells."""
    sx, sy, sz = shift
    nx, ny, nz = occ.shape
    src = (slice(0, nx - sx), slice(0, ny - sy), slice(0, nz - sz))
    dst = (slice(sx, nx), slice(sy, ny), slice(sz, nz))
    both = occ[src] & occ[dst]
    return idx[src][both], idx[dst][both]
