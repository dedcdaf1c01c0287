"""Orthogonal splitting into divergence-free fields and gradients."""

import numpy as np
import pytest

from mildflow import (
    FieldMismatchError,
    ScalarField,
    VectorField,
    build_operators,
    decompose,
    field_dot,
    field_norm,
    load_mask,
)
from conftest import mask_path, random_scalar_values, random_vector_field


def test_projector_kills_gradients(box4_ops, box4_hodge):
    rng = np.random.default_rng(0)
    mask = box4_ops.mask
    for _ in range(10):
        p = ScalarField(mask, random_scalar_values(mask, rng))
        g = box4_ops.gradient_of(p)
        proj = box4_hodge.project(g)
        assert field_norm(proj) <= 1e-12 * max(field_norm(g), 1.0)


def test_divergence_free_fields_are_fixed(box4_hodge):
    rng = np.random.default_rng(1)
    coords = rng.standard_normal(box4_hodge.dim)
    u = box4_hodge.lift(coords)
    pu = box4_hodge.project(u)
    assert np.linalg.norm(pu.values - u.values) <= 1e-12 * np.linalg.norm(u.values)


def test_basis_dimension_matches_gradient_rank(box4_ops, box4_hodge):
    # independent rank computation over the dense gradient
    rank = np.linalg.matrix_rank(box4_ops.gradient.toarray(), tol=None)
    assert box4_hodge.grad_rank == rank
    assert box4_hodge.dim == 3 * box4_ops.mask.n_cells - rank


def test_projector_symmetric_idempotent(box4_hodge):
    rng = np.random.default_rng(2)
    mask = box4_hodge.mask
    for _ in range(10):
        u = random_vector_field(mask, rng)
        v = random_vector_field(mask, rng)
        pu = box4_hodge.project(u)
        ppu = box4_hodge.project(pu)
        assert np.linalg.norm(ppu.values - pu.values) <= 1e-12 * max(
            np.linalg.norm(pu.values), 1.0
        )
        lhs = field_dot(pu, v)
        rhs = field_dot(u, box4_hodge.project(v))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)
        # orthogonality of the split
        residual = VectorField(mask, u.values - pu.values)
        assert abs(field_dot(pu, residual)) <= 1e-12 * max(field_dot(u, u), 1.0)


class TestDecompose:
    def test_zero_field(self, box4_hodge):
        u = VectorField.zeros(box4_hodge.mask)
        u_h, u_g, p = decompose(box4_hodge, u)
        assert not u_h.values.any() and not u_g.values.any() and not p.values.any()

    def test_pure_gradient_input(self, box4_ops, box4_hodge):
        rng = np.random.default_rng(3)
        p0 = ScalarField(box4_ops.mask, random_scalar_values(box4_ops.mask, rng))
        g = box4_ops.gradient_of(p0)
        u_h, u_g, p = decompose(box4_hodge, g)
        assert field_norm(u_h) <= 1e-10 * field_norm(g)
        recon = box4_ops.gradient_of(p)
        assert np.linalg.norm(recon.values - g.values) <= 1e-10 * np.linalg.norm(g.values)

    def test_pythagoras(self, box4_hodge):
        rng = np.random.default_rng(4)
        for _ in range(10):
            u = random_vector_field(box4_hodge.mask, rng)
            u_h, u_g, _ = decompose(box4_hodge, u)
            total = field_dot(u, u)
            parts = field_dot(u_h, u_h) + field_dot(u_g, u_g)
            assert abs(total - parts) <= 1e-12 * total

    def test_mask_mismatch(self, box4_hodge):
        other = load_mask(mask_path("box2"))
        with pytest.raises(FieldMismatchError):
            decompose(box4_hodge, VectorField.zeros(other))


class TestKernelCharacterization:
    """Coordinates vanish exactly on gradients, and only on them."""

    def test_gradient_has_zero_coordinates(self, box4_ops, box4_hodge):
        rng = np.random.default_rng(5)
        p = ScalarField(box4_ops.mask, random_scalar_values(box4_ops.mask, rng))
        w = box4_ops.gradient_of(p)
        coords = box4_hodge.coords(w)
        assert np.linalg.norm(coords) <= 1e-10 * np.linalg.norm(w.values)

    def test_zero_coordinates_imply_gradient(self, box4_ops, box4_hodge):
        # build w with Z^T w = 0 by removing the divergence-free part,
        # then check the least-squares potential reproduces it
        rng = np.random.default_rng(6)
        u = random_vector_field(box4_ops.mask, rng)
        w = VectorField(
            box4_ops.mask, u.values - box4_hodge.project(u).values
        )
        assert np.linalg.norm(box4_hodge.coords(w)) <= 1e-10 * np.linalg.norm(w.values)
        potential = box4_hodge.potential(w)
        recon = box4_ops.gradient_of(potential)
        assert np.linalg.norm(recon.values - w.values) <= 1e-10 * np.linalg.norm(w.values)

    def test_works_on_irregular_mask(self, lmask_hodge):
        ops = lmask_hodge.ops
        rng = np.random.default_rng(7)
        u = random_vector_field(ops.mask, rng)
        w = VectorField(ops.mask, u.values - lmask_hodge.project(u).values)
        recon = ops.gradient_of(lmask_hodge.potential(w))
        assert np.linalg.norm(recon.values - w.values) <= 1e-10 * np.linalg.norm(w.values)


def test_degenerate_2d_mask_pipeline(box4_spectrum):
    # nz = 1 masks are legal and run through the whole linear machinery
    from mildflow import TimeGrid, alpha_trajectory, assemble_stokes, build_hodge, et_norm

    mask = load_mask(mask_path("lshape_3x3x1"))
    hodge = build_hodge(build_operators(mask))
    assert hodge.dim + hodge.grad_rank == 3 * mask.n_cells
    spectrum = assemble_stokes(hodge)
    assert spectrum.eigenvalues[0] > 0.0
    grid = TimeGrid.graded(0.2, 8, 4)
    traj = alpha_trajectory(spectrum, spectrum.eigenfield(0), grid)
    assert et_norm(spectrum, traj).total > 0.0


def test_potential_is_minimum_norm(box4_ops, box4_hodge):
    # the canonical potential has no component in ker(gradient)
    rng = np.random.default_rng(8)
    u = random_vector_field(box4_ops.mask, rng)
    p = box4_hodge.potential(u)
    dense = box4_ops.gradient.toarray()
    lstsq_p, *_ = np.linalg.lstsq(dense, u.flat - box4_hodge.project(u).flat, rcond=None)
    assert np.allclose(p.values, lstsq_p, rtol=1e-9, atol=1e-11)


def test_rank_margins_on_a_rank_deficient_gradient():
    # the 3 x 3 x 1 L-shape's gradient loses one rank; the margins show the
    # dropped and kept singular values on either side of the cut
    from mildflow import build_hodge

    ops = build_operators(load_mask(mask_path("lshape_3x3x1")))
    hodge = build_hodge(ops)
    margins = hodge.margins
    assert hodge.grad_rank < ops.mask.n_cells
    svals = np.linalg.svd(ops.gradient.toarray(), compute_uv=False)
    kept = svals[:hodge.grad_rank]
    assert margins["max_dropped_singular_rel"] <= margins["rank_tolerance"]
    assert margins["min_kept_singular_rel"] == pytest.approx(kept[-1] / svals[0], rel=1e-12)
    assert margins["divergence_defect"] <= margins["divergence_tolerance"]
