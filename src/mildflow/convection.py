"""Convective term and its projections onto the divergence-free subspace.

The symmetrized forcing driving the bilinear fixed-point map is

    f = -1/2 P ((u . grad) v + (v . grad) u),

and its time derivative follows the product rule over the four terms.
Directional derivatives use the same centered differences with zero
extension as the rest of the discretization, so the projected forcing is
orthogonal to every discrete gradient by construction.

The module-level functions work on fields; ``advect_flat`` is the batched
array core used by the time integrators (columns = independent samples).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import DiscreteOperators, VectorField
from .errors import FieldMismatchError
from .hodge import HodgeDecomposition


@dataclass(eq=False)
class ForcingSample:
    """The convective forcing at one instant.

    ``raw`` is the unprojected field; ``projected`` holds the Z-basis
    coordinates of -1/2 times its divergence-free part.
    """

    time: float
    raw: VectorField
    projected: np.ndarray


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


def _symmetrized(ops: DiscreteOperators, u: VectorField, v: VectorField) -> np.ndarray:
    """(u.grad)v + (v.grad)u as a flat array."""
    return advect_flat(ops, u.flat, v.flat) + advect_flat(ops, v.flat, u.flat)


def _sample(hodge: HodgeDecomposition, raw_flat: np.ndarray, time: float) -> ForcingSample:
    raw = VectorField.from_flat(hodge.mask, raw_flat)
    return ForcingSample(time, raw, -0.5 * (hodge.basis.T @ raw_flat))


def forcing(hodge: HodgeDecomposition, u: VectorField, v: VectorField,
            time: float = 0.0) -> ForcingSample:
    """Symmetrized convective forcing -1/2 P ((u.grad)v + (v.grad)u)."""
    return _sample(hodge, _symmetrized(hodge.ops, u, v), time)


def forcing_derivative(hodge: HodgeDecomposition, u: VectorField, du: VectorField,
                       v: VectorField, dv: VectorField, time: float = 0.0) -> ForcingSample:
    """Product-rule time derivative of the symmetrized forcing.

    ``du`` and ``dv`` are the time derivatives of u and v at the same
    instant; by bilinearity the derivative is forcing(du, v) + forcing(u, dv).
    """
    ops = hodge.ops
    return _sample(hodge, _symmetrized(ops, du, v) + _symmetrized(ops, u, dv), time)
