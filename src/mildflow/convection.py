"""The convective term (u . grad) v on the discrete operators.

Directional derivatives use the same centered differences with zero
extension as the rest of the discretization, so the projected convective
forcing built from them (``mildflow.mild.modal_forcing``) is orthogonal
to every discrete gradient by construction.

``advect_flat`` is the batched array core used by the time integrators
(columns = independent samples); ``advect`` works on fields.
"""

from __future__ import annotations

import numpy as np

from .domain import DiscreteOperators, VectorField
from .errors import FieldMismatchError


def advect_flat(ops: DiscreteOperators, xu: np.ndarray, xv: np.ndarray) -> np.ndarray:
    """(u . grad) v on component-blocked flat arrays, batch-aware.

    Accepts shape (3n,) or (3n, k); the directional derivative is
    sum_j u_j d_j v_i per component i.
    """
    n = ops.mask.n_cells
    u = xu.reshape(3, n, -1)
    v = xv.reshape(3, n, -1)
    out = np.empty_like(v)
    for i in range(3):
        acc = u[0] * (ops.grad_blocks[0] @ v[i])
        acc += u[1] * (ops.grad_blocks[1] @ v[i])
        acc += u[2] * (ops.grad_blocks[2] @ v[i])
        out[i] = acc
    return out.reshape(xu.shape)


def advect(ops: DiscreteOperators, u: VectorField, v: VectorField) -> VectorField:
    """Directional derivative (u . grad) v as a vector field."""
    for f in (u, v):
        if not f.mask.same_as(ops.mask):
            raise FieldMismatchError("advection operands on a different mask")
    return VectorField.from_flat(ops.mask, advect_flat(ops, u.flat, v.flat))
