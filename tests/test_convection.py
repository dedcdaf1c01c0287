"""Convective term, the projected forcing kernel, and its product-rule derivative."""

import numpy as np
import pytest

from mildflow import (
    FieldMismatchError,
    ScalarField,
    VectorField,
    advect,
    field_dot,
    load_mask,
    modal_forcing,
    vector_lp_norm,
)
from conftest import mask_path, random_scalar_values, random_vector_field


def _loop_advect(ops, u, v):
    """Plain triple-loop stencil oracle for (u . grad) v."""
    mask = ops.mask
    h = mask.spacing
    occ = mask.occupancy
    idx = mask.index_grid
    nx, ny, nz = mask.dims
    out = np.zeros_like(v.values)

    def comp(field, i, x, y, z):
        if 0 <= x < nx and 0 <= y < ny and 0 <= z < nz and occ[x, y, z]:
            return field.values[i, idx[x, y, z]]
        return 0.0

    shifts = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for (x, y, z) in mask.cells:
        c = idx[x, y, z]
        for i in range(3):
            acc = 0.0
            for j, (sx, sy, sz) in enumerate(shifts):
                dv = (
                    comp(v, i, x + sx, y + sy, z + sz)
                    - comp(v, i, x - sx, y - sy, z - sz)
                ) / (2.0 * h)
                acc += u.values[j, c] * dv
            out[i, c] = acc
    return out


def test_advect_zero(box4_ops):
    rng = np.random.default_rng(0)
    v = random_vector_field(box4_ops.mask, rng)
    zero = VectorField.zeros(box4_ops.mask)
    assert not advect(box4_ops, zero, v).values.any()


def test_advect_constant_interior(box4_ops):
    # constant field: centered differences vanish wherever all six
    # neighbors are inside the mask (only the boundary ring sees the
    # zero extension)
    mask = box4_ops.mask
    u = VectorField(mask, np.ones((3, mask.n_cells)))
    out = advect(box4_ops, u, u)
    interior = [
        mask.index_grid[x, y, z]
        for (x, y, z) in mask.cells
        if 0 < x < 3 and 0 < y < 3 and 0 < z < 3
    ]
    assert interior  # the 4^3 box has a 2^3 interior
    assert np.abs(out.values[:, interior]).max() == 0.0


def test_advect_matches_loop_oracle(box4_ops, box4_spectrum):
    u = box4_spectrum.eigenfield(0)
    v = box4_spectrum.eigenfield(1)
    fast = advect(box4_ops, u, v)
    slow = _loop_advect(box4_ops, u, v)
    assert np.allclose(fast.values, slow, rtol=1e-13, atol=1e-15)
    diag = advect(box4_ops, u, u)
    assert np.allclose(diag.values, _loop_advect(box4_ops, u, u), rtol=1e-13, atol=1e-15)


def test_advect_mask_mismatch(box4_ops):
    other = load_mask(mask_path("box2"))
    with pytest.raises(FieldMismatchError):
        advect(box4_ops, VectorField.zeros(other), VectorField.zeros(other))


def _field(spectrum, modal):
    return VectorField.from_flat(spectrum.hodge.mask, spectrum.fields @ modal)


def _forcing_derivative(spectrum, u, du, v, dv):
    """Product-rule derivative of the forcing: K(du, v) + K(u, dv) by bilinearity."""
    return modal_forcing(spectrum, du.flat, v.flat) + modal_forcing(spectrum, u.flat, dv.flat)


class TestForcing:
    def test_diagonal_matches_single_advection(self, box4_ops, box4_spectrum):
        rng = np.random.default_rng(1)
        u = random_vector_field(box4_ops.mask, rng)
        projected = modal_forcing(box4_spectrum, u.flat, u.flat)
        direct = -box4_spectrum.fields.T @ advect(box4_ops, u, u).flat
        assert np.allclose(projected, direct, rtol=1e-12, atol=1e-14)

    def test_zero_operand(self, box4_ops, box4_spectrum):
        rng = np.random.default_rng(2)
        u = random_vector_field(box4_ops.mask, rng)
        zero = VectorField.zeros(box4_ops.mask)
        raw = advect(box4_ops, u, zero).values + advect(box4_ops, zero, u).values
        assert not raw.any()
        assert not modal_forcing(box4_spectrum, u.flat, zero.flat).any()

    def test_symmetry(self, box4_spectrum):
        rng = np.random.default_rng(3)
        for _ in range(5):
            u = random_vector_field(box4_spectrum.hodge.mask, rng)
            v = random_vector_field(box4_spectrum.hodge.mask, rng)
            uv = modal_forcing(box4_spectrum, u.flat, v.flat)
            vu = modal_forcing(box4_spectrum, v.flat, u.flat)
            scale = max(np.abs(uv).max(), 1.0)
            assert np.abs(uv - vu).max() <= 1e-12 * scale

    def test_bilinearity(self, box4_spectrum):
        rng = np.random.default_rng(8)
        mask = box4_spectrum.hodge.mask
        u = random_vector_field(mask, rng)
        w = random_vector_field(mask, rng)
        v = random_vector_field(mask, rng)
        a, b = 0.6, -2.1
        mixed = a * u.flat + b * w.flat
        left = modal_forcing(box4_spectrum, mixed, v.flat)
        right = (a * modal_forcing(box4_spectrum, u.flat, v.flat)
                 + b * modal_forcing(box4_spectrum, w.flat, v.flat))
        assert np.allclose(left, right, rtol=1e-12, atol=1e-12)

    def test_projection_orthogonal_to_gradients(self, box4_ops, box4_spectrum):
        rng = np.random.default_rng(4)
        u = random_vector_field(box4_ops.mask, rng)
        v = random_vector_field(box4_ops.mask, rng)
        lifted = _field(box4_spectrum, modal_forcing(box4_spectrum, u.flat, v.flat))
        p = ScalarField(box4_ops.mask, random_scalar_values(box4_ops.mask, rng))
        g = box4_ops.gradient_of(p)
        inner = field_dot(lifted, g)
        assert abs(inner) <= 1e-12 * max(
            np.linalg.norm(lifted.values) * np.linalg.norm(g.values), 1.0
        )
        div = box4_ops.divergence_of(lifted)
        assert np.linalg.norm(div.values) <= 1e-12 * max(np.linalg.norm(lifted.values), 1.0)


class TestForcingDerivative:
    def test_zero_rates(self, box4_spectrum):
        rng = np.random.default_rng(5)
        mask = box4_spectrum.hodge.mask
        u = random_vector_field(mask, rng)
        v = random_vector_field(mask, rng)
        zero = VectorField.zeros(mask)
        assert not _forcing_derivative(box4_spectrum, u, zero, v, zero).any()

    def test_diagonal_product_rule(self, box4_ops, box4_spectrum):
        rng = np.random.default_rng(6)
        u = random_vector_field(box4_ops.mask, rng)
        du = random_vector_field(box4_ops.mask, rng)
        projected = _forcing_derivative(box4_spectrum, u, du, u, du)
        direct = -box4_spectrum.fields.T @ (
            advect(box4_ops, du, u).flat + advect(box4_ops, u, du).flat
        )
        assert np.allclose(projected, direct, rtol=1e-12, atol=1e-13)

    def test_finite_difference_sweep(self, box4_spectrum):
        # smooth synthetic path u(t) = cos(w t) a + sin(w t) b; central
        # differences of the forcing must converge at second order
        rng = np.random.default_rng(7)
        mask = box4_spectrum.hodge.mask
        a = random_vector_field(mask, rng)
        b = random_vector_field(mask, rng)
        c = random_vector_field(mask, rng)
        d = random_vector_field(mask, rng)
        w1, w2 = 1.3, 0.7
        t = 0.4

        def u_at(s):
            return VectorField(mask, np.cos(w1 * s) * a.values + np.sin(w1 * s) * b.values)

        def v_at(s):
            return VectorField(mask, np.cos(w2 * s) * c.values + np.sin(w2 * s) * d.values)

        def du_at(s):
            return VectorField(
                mask, w1 * (-np.sin(w1 * s) * a.values + np.cos(w1 * s) * b.values)
            )

        def dv_at(s):
            return VectorField(
                mask, w2 * (-np.sin(w2 * s) * c.values + np.cos(w2 * s) * d.values)
            )

        def forcing_at(s):
            return modal_forcing(box4_spectrum, u_at(s).flat, v_at(s).flat)

        exact = _forcing_derivative(box4_spectrum, u_at(t), du_at(t), v_at(t), dv_at(t))
        errors = []
        for eps in (1e-2, 5e-3, 2.5e-3):
            fd = (forcing_at(t + eps) - forcing_at(t - eps)) / (2.0 * eps)
            errors.append(np.linalg.norm(fd - exact))
        # halving eps divides the error by about four
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.15)
        assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.15)


def test_weighted_convective_l32_constant_recorded(box4_ops, box4_spectrum, capsys):
    # the sqrt(t)-weighted L^{3/2} size of the raw convective term stays
    # bounded by a mask-dependent multiple of the trajectory norms; the
    # empirical constant is recorded, not asserted a priori
    from mildflow import TimeGrid, alpha_trajectory, et_norm

    grid = TimeGrid.graded(0.5, 16, 6)
    u0 = box4_spectrum.eigenfield(0)
    u0 = VectorField(u0.mask, 0.2 * u0.values)
    traj = alpha_trajectory(box4_spectrum, u0, grid)
    norm_u = et_norm(box4_spectrum, traj).total
    best = 0.0
    for j in range(1, grid.nodes.size):
        field = _field(box4_spectrum, traj.samples[j])
        # the raw symmetrized term (u.grad)u + (u.grad)u
        raw = VectorField(field.mask, 2.0 * advect(box4_ops, field, field).values)
        weighted = grid.nodes[j] ** 0.5 * vector_lp_norm(raw, 1.5)
        best = max(best, weighted / norm_u**2)
    assert np.isfinite(best) and best > 0.0
    print(f"[recorded] weighted L^(3/2) convection constant on box4: {best:.6g}")
