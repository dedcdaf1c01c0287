"""Discrete Helmholtz-Hodge decomposition and the divergence-free projector.

Square-integrable vector fields on the mask split orthogonally into

    L2 = H (+) G,    H = ker(divergence),    G = range(gradient),

which is exact here because divergence is minus the transpose of the
gradient.  An orthonormal basis Z of H is read off a full singular value
decomposition of the gradient: the left singular vectors beyond the
numerical rank span the orthogonal complement of range(gradient).  The
projector onto H is P = Z Z^T; it annihilates every discrete gradient
and fixes every discretely divergence-free field.

The same factorization provides the minimum-norm potential: for any w,
``potential(w)`` is the least-squares solution p of  grad p = (I - P) w
orthogonal to ker(gradient), which makes pressure recovery canonical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import DiscreteOperators, ScalarField, VectorField
from .errors import FieldMismatchError, SpectrumError

#: Relative singular value threshold below which the gradient is rank-deficient.
RANK_TOLERANCE = 1e-10


@dataclass(eq=False)
class HodgeDecomposition:
    """Orthonormal basis of the divergence-free subspace plus solve data.

    Attributes
    ----------
    ops : the operators the decomposition was built from.
    basis : (3n, m) matrix Z with orthonormal columns spanning ker(divergence).
    grad_rank : numerical rank r of the gradient; m = 3n - r.
    """

    ops: DiscreteOperators
    basis: np.ndarray
    grad_rank: int
    _u_r: np.ndarray
    _s_r: np.ndarray
    _vt_r: np.ndarray

    @property
    def mask(self):
        return self.ops.mask

    @property
    def dim(self) -> int:
        return int(self.basis.shape[1])

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
        return self._vt_r.T @ ((self._u_r.T @ flat) / self._s_r[:, None])

    def potential(self, w) -> ScalarField:
        """Minimum-norm least-squares solution p of  grad p = (I - P) w."""
        flat = w.flat if isinstance(w, VectorField) else np.asarray(w, dtype=float)
        return ScalarField(self.mask, self.potentials(flat[:, None])[:, 0])


def build_hodge(ops: DiscreteOperators, rank_tol: float = RANK_TOLERANCE) -> HodgeDecomposition:
    """Factor the gradient and assemble the divergence-free basis.

    Singular values below ``rank_tol`` times the largest are treated as
    zero, which fixes the discrete kernel reproducibly.
    """
    dense_grad = ops.gradient.toarray()
    u_mat, svals, vt = np.linalg.svd(dense_grad, full_matrices=True)
    if svals.size and svals[0] > 0:
        rank = int(np.count_nonzero(svals > rank_tol * svals[0]))
    else:
        rank = 0
    basis = u_mat[:, rank:]
    n3 = dense_grad.shape[0]
    if basis.shape[1] + rank != n3:
        raise SpectrumError(
            f"rank bookkeeping broken: dim H = {basis.shape[1]}, rank = {rank}, 3n = {n3}"
        )
    # ker(divergence) must contain the basis exactly up to round-off.
    defect = np.abs(ops.divergence @ basis).max() if basis.size else 0.0
    scale = svals[0] if svals.size else 1.0
    if defect > 1e-10 * max(scale, 1.0):
        raise SpectrumError(f"basis is not divergence-free: defect {defect:.3e}")
    return HodgeDecomposition(
        ops, basis, rank, u_mat[:, :rank], svals[:rank], vt[:rank]
    )


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
