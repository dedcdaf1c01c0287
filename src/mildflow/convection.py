"""The convective term (u . grad) v on the discrete operators.

Directional derivatives use the same centered differences with zero
extension as the rest of the discretization, so the projected convective
forcing built from them (``mildflow.mild.modal_forcing``) is orthogonal
to every discrete gradient by construction.

``advect_flat`` is the batched array core (columns = independent
samples) under that kernel and the strong audit; ``advect`` works on fields.
"""

from __future__ import annotations

import numpy as np

from .domain import DiscreteOperators, VectorField, _require_same_mask


def advect_flat(ops: DiscreteOperators, xu: np.ndarray, xv: np.ndarray) -> np.ndarray:
    """(u . grad) v on component-blocked flat arrays, batch-aware.

    Accepts shape (3n,) or (3n, k); the directional derivative is
    sum_j u_j d_j v_i per component i, all three d_j v_i from one product.
    """
    n = ops.mask.n_cells
    u = xu.reshape(3, n, -1)
    v = xv.reshape(3, n, -1)
    out = np.empty_like(v)
    for i in range(3):
        out[i] = (u * (ops.gradient @ v[i]).reshape(3, n, -1)).sum(axis=0)
    return out.reshape(xu.shape)


def advect(ops: DiscreteOperators, u: VectorField, v: VectorField) -> VectorField:
    """Directional derivative (u . grad) v as a vector field."""
    _require_same_mask(u, ops)
    _require_same_mask(v, ops)
    return VectorField.from_flat(ops.mask, advect_flat(ops, u.flat, v.flat))
