"""Discrete Helmholtz-Hodge decomposition and the divergence-free projector.

Square-integrable vector fields on the mask split orthogonally into

    L2 = H (+) G,    H = ker(divergence),    G = range(gradient),

which is exact here because divergence is minus the transpose of the
gradient.  An orthonormal basis Z of H is read off singular value
decompositions of the gradient: the left singular vectors beyond the
numerical rank span the orthogonal complement of range(gradient).  The
projector onto H is P = Z Z^T; it annihilates every discrete gradient
and fixes every discretely divergence-free field.

Parity blocks.  The centered difference with zero extension reads p only
at cells whose index along the difference axis has the other parity.
Group the cells into 8 parity classes k = 4 (x odd) + 2 (y odd) + (z odd);
then pressure class k reaches only u_x at class k^4, u_y at k^2 and u_z
at k^1, so after a permutation the 3n x n gradient is block diagonal in
8 blocks G_k of about 3n/8 x n/8, and H is the direct sum of the kernels
of the G_k^T.  ``build_hodge`` runs one SVD per block, cuts every block's
rank at ``RANK_TOLERANCE`` times the largest singular value over all
blocks, and writes each block's kernel into its own span of Z's columns,
blocks of even popcount(k) first.  Those blocks and spans are the one
description of the parity layout; ``stokes`` reads them from here.

The same factors provide the minimum-norm potential: for any w,
``potential(w)`` is the least-squares solution p of  grad p = (I - P) w
orthogonal to ker(gradient), block by block, which makes pressure
recovery canonical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import DiscreteOperators, DomainMask, ScalarField, VectorField
from .errors import FieldMismatchError, SpectrumError

#: Relative singular value threshold below which the gradient is rank-deficient.
RANK_TOLERANCE = 1e-10
#: The parity-class bit that the difference along each axis flips.
_AXIS_BITS = (4, 2, 1)
#: Order of the blocks in Z's columns: even popcount first, then odd.
_BLOCK_ORDER = (0, 3, 5, 6, 1, 2, 4, 7)


def parity_classes(mask: DomainMask) -> np.ndarray:
    """Parity class 4 (x odd) + 2 (y odd) + (z odd) of every cell."""
    return (mask.cells % 2) @ np.array(_AXIS_BITS)


def velocity_classes(mask: DomainMask) -> np.ndarray:
    """Block of every entry of a flat (3n,) field: u_j at class c is in block c ^ bit_j."""
    cls = parity_classes(mask)
    return np.concatenate([cls ^ bit for bit in _AXIS_BITS])


@dataclass(eq=False)
class ParityBlock:
    """One diagonal block G_k of the permuted gradient, with its SVD factors.

    ``cells`` are the pressure cells of class k, ``rows`` the entries of a
    flat field that class reaches, and ``span`` the columns of Z that hold
    the block's kernel (Z vanishes off ``rows`` in those columns).  The
    factors are the kept part of the block's SVD.
    """

    klass: int
    cells: np.ndarray
    rows: np.ndarray
    span: slice
    u_r: np.ndarray
    s_r: np.ndarray
    vt_r: np.ndarray

    @property
    def even(self) -> bool:
        return bin(self.klass).count("1") % 2 == 0


@dataclass(eq=False)
class HodgeDecomposition:
    """Orthonormal basis of the divergence-free subspace plus solve data.

    Attributes
    ----------
    ops : the operators the decomposition was built from.
    basis : (3n, m) matrix Z with orthonormal columns spanning ker(divergence).
    grad_rank : numerical rank r of the gradient; m = 3n - r.
    blocks : the 8 parity blocks in column order, even popcount first.
    margins : how close the rank cut and the divergence check came to their
        thresholds: the largest dropped and the smallest kept singular value
        over the largest (None where there is none), and the divergence
        defect of Z with its tolerance.
    """

    ops: DiscreteOperators
    basis: np.ndarray
    grad_rank: int
    blocks: tuple
    margins: dict

    @property
    def mask(self):
        return self.ops.mask

    @property
    def dim(self) -> int:
        return int(self.basis.shape[1])

    @property
    def n_even(self) -> int:
        """Number of columns of Z in even blocks, which come first."""
        return sum(b.span.stop - b.span.start for b in self.blocks if b.even)

    # -- coordinates ---------------------------------------------------------

    def coords(self, u) -> np.ndarray:
        """Coordinates of (the H-part of) a field in the Z basis."""
        flat = u.flat if isinstance(u, VectorField) else np.asarray(u, dtype=float)
        return self.basis.T @ flat

    def lift(self, coords: np.ndarray) -> VectorField:
        """Vector field Z @ coords."""
        return VectorField.from_flat(self.mask, self.basis @ np.asarray(coords, float))

    def project(self, u: VectorField) -> VectorField:
        return self.lift(self.coords(u))

    # -- potentials ----------------------------------------------------------

    def potentials(self, flat: np.ndarray) -> np.ndarray:
        """``potential`` of each column of a (3n, k) array, as an (n, k) array."""
        out = np.zeros((self.mask.n_cells, flat.shape[1]))
        for b in self.blocks:
            out[b.cells] = b.vt_r.T @ ((b.u_r.T @ flat[b.rows]) / b.s_r[:, None])
        return out

    def potential(self, w) -> ScalarField:
        """Minimum-norm least-squares solution p of  grad p = (I - P) w."""
        flat = w.flat if isinstance(w, VectorField) else np.asarray(w, dtype=float)
        return ScalarField(self.mask, self.potentials(flat[:, None])[:, 0])


def build_hodge(ops: DiscreteOperators, rank_tol: float = RANK_TOLERANCE) -> HodgeDecomposition:
    """Factor the gradient block by block and assemble the divergence-free basis.

    Singular values below ``rank_tol`` times the largest over all blocks
    are treated as zero, which fixes the discrete kernel reproducibly.
    Raises ``SpectrumError`` if the gradient couples a pressure cell to a
    velocity entry outside its parity block.
    """
    mask = ops.mask
    cell_class = parity_classes(mask)
    row_class = velocity_classes(mask)
    grad = ops.gradient.tocoo()
    coupled = grad.data != 0.0
    if np.any(row_class[grad.row[coupled]] != cell_class[grad.col[coupled]]):
        raise SpectrumError("gradient couples cells outside their parity blocks")

    factors = []
    for klass in _BLOCK_ORDER:
        cells = np.flatnonzero(cell_class == klass)
        rows = np.flatnonzero(row_class == klass)
        dense = ops.gradient[rows][:, cells].toarray()
        factors.append((klass, cells, rows, *np.linalg.svd(dense, full_matrices=True)))
    svals = np.concatenate([f[4] for f in factors])
    top = svals.max(initial=0.0)
    cut = rank_tol * top
    ranks = [int(np.count_nonzero(f[4] > cut)) for f in factors]
    rank = sum(ranks)
    n3 = 3 * mask.n_cells
    basis = np.zeros((n3, n3 - rank))
    blocks, start = [], 0
    for (klass, cells, rows, u_mat, s, vt), r in zip(factors, ranks):
        span = slice(start, start + rows.size - r)
        basis[rows, span] = u_mat[:, r:]
        blocks.append(ParityBlock(klass, cells, rows, span, u_mat[:, :r].copy(), s[:r], vt[:r]))
        start = span.stop
    if start + rank != n3:
        raise SpectrumError(
            f"rank bookkeeping broken: dim H = {start}, rank = {rank}, 3n = {n3}"
        )
    # ker(divergence) must contain the basis exactly up to round-off.
    defect = float(np.abs(ops.divergence @ basis).max()) if basis.size else 0.0
    defect_tol = 1e-10 * max(top, 1.0)
    if defect > defect_tol:
        raise SpectrumError(f"basis is not divergence-free: defect {defect:.3e}")
    kept, rel = svals > cut, svals / top if top > 0.0 else svals
    margins = {
        "rank_tolerance": rank_tol,
        # the gradient has n singular values; those no block computes are exact zeros
        "max_dropped_singular_rel":
            float(rel[~kept].max(initial=0.0)) if rank < mask.n_cells else None,
        "min_kept_singular_rel": float(rel[kept].min()) if rank else None,
        "divergence_defect": defect,
        "divergence_tolerance": defect_tol,
    }
    return HodgeDecomposition(ops, basis, rank, tuple(blocks), margins)


def decompose(hodge: HodgeDecomposition, u: VectorField):
    """Split u = u_H + u_G with u_G = grad p, p the canonical potential.

    Returns ``(u_H, u_G, p)``; the two parts are orthogonal and
    ``divergence(u_H) = 0`` to round-off.
    """
    if not u.mask.same_as(hodge.mask):
        raise FieldMismatchError("field on a different mask")
    u_h = hodge.project(u)
    u_g = VectorField(hodge.mask, u.values - u_h.values)
    p = hodge.potential(u)
    return u_h, u_g, p
