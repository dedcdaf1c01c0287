"""Algebraic identities on random, possibly disconnected voxel masks.

Masks have at most 5^3 cells, drawn cell by cell, so rough boundaries,
isolated cells and several components all occur.  Hypothesis runs with a
fixed derivation of its examples and no example database, so the suite
stays deterministic.
"""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import configuration, given, settings
from hypothesis import strategies as st

from mildflow import (
    DomainMask,
    ScalarField,
    SpectrumError,
    TimeGrid,
    alpha_from_coords,
    assemble_stokes,
    build_hodge,
    build_operators,
    combine_trajectories,
    et_norm,
    field_dot,
    format_mask,
    load_mask,
    phi,
)
from mildflow.hodge import RANK_TOLERANCE, velocity_classes
from conftest import dense_reference_spectrum, mask_path, random_vector_field

# Hypothesis caches the literals of the local source files in its storage
# directory while it collects this module; keep that cache out of the checkout.
configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "mildflow-hypothesis")

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=25)


@st.composite
def masks(draw):
    dims = tuple(draw(st.integers(1, 5)) for _ in range(3))
    cells = int(np.prod(dims))
    occupied = draw(st.lists(st.booleans(), min_size=cells, max_size=cells))
    occupied[draw(st.integers(0, cells - 1))] = True
    return DomainMask(dims, 1.0 / max(dims), np.reshape(occupied, dims))


seeds = st.integers(0, 2**32 - 1)


@PROPERTY_SETTINGS
@given(masks())
def test_mask_format_load_round_trip(mask):
    again = load_mask(format_mask(mask))
    assert again.same_as(mask)
    assert format_mask(again) == format_mask(mask)


@PROPERTY_SETTINGS
@given(masks(), seeds)
def test_adjointness_and_projector_identities(mask, seed):
    ops = build_operators(mask)
    hodge = build_hodge(ops)
    rng = np.random.default_rng(seed)
    u, v = random_vector_field(mask, rng), random_vector_field(mask, rng)
    p = ScalarField(mask, rng.standard_normal(mask.n_cells))
    grad = ops.gradient_of(p)
    # <grad p, u> = -<p, div u>
    lhs, rhs = field_dot(grad, u), -field_dot(p, ops.divergence_of(u))
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(grad.values) * np.linalg.norm(u.values)

    scale = np.linalg.norm(u.values)
    pu = hodge.project(u)
    assert np.linalg.norm(hodge.project(pu).values - pu.values) <= 1e-12 * scale
    lhs, rhs = field_dot(pu, v), field_dot(u, hodge.project(v))
    assert abs(lhs - rhs) <= 1e-12 * max(field_dot(u, u), field_dot(v, v))
    assert np.linalg.norm(ops.divergence @ pu.flat) <= 1e-12 * scale
    assert np.linalg.norm(hodge.project(grad).values) <= 1e-12 * max(
        np.linalg.norm(grad.values), 1.0
    )


@PROPERTY_SETTINGS
@given(masks(), seeds)
def test_stokes_spectrum_positive_and_phi_symmetric_bilinear(mask, seed):
    hodge = build_hodge(build_operators(mask))
    spectrum = assemble_stokes(hodge)
    assert spectrum.eigenvalues.min() > 0.0

    grid = TimeGrid.graded(0.5, 4, 3)
    rng = np.random.default_rng(seed)
    u, v, w = (alpha_from_coords(spectrum, rng.standard_normal(spectrum.dim), grid)
               for _ in range(3))

    def norm(traj):
        return et_norm(spectrum, traj).total

    def gap(x, y):
        return norm(combine_trajectories(1.0, x, -1.0, y))

    uv = phi(spectrum, hodge, u, v)
    assert gap(uv, phi(spectrum, hodge, v, u)) <= 1e-12 * norm(uv)
    a, b = rng.uniform(-2.0, 2.0, 2)
    wv = phi(spectrum, hodge, w, v)
    left = phi(spectrum, hodge, combine_trajectories(a, u, b, w), v)
    right = combine_trajectories(a, uv, b, wv)
    assert gap(left, right) <= 1e-12 * (abs(a) * norm(uv) + abs(b) * norm(wv))


def _dense_reference_hodge(ops):
    """Basis, rank and potentials from one full SVD of the dense gradient."""
    u_mat, svals, vt = np.linalg.svd(ops.gradient.toarray(), full_matrices=True)
    rank = int(np.count_nonzero(svals > RANK_TOLERANCE * svals[0])) if svals.size else 0

    def potentials(flat):
        return vt[:rank].T @ ((u_mat[:, :rank].T @ flat) / svals[:rank, None])

    return u_mat[:, rank:], rank, potentials


def _assert_matches_dense_reference(mask, seed):
    ops = build_operators(mask)
    hodge = build_hodge(ops)
    basis, rank, potentials = _dense_reference_hodge(ops)
    assert (hodge.grad_rank, hodge.dim) == (rank, basis.shape[1])
    projector = hodge.basis @ hodge.basis.T
    assert np.abs(projector - basis @ basis.T).max() <= 1e-12
    flat = np.random.default_rng(seed).standard_normal((3 * mask.n_cells, 3))
    reference = potentials(flat)
    assert np.abs(hodge.potentials(flat) - reference).max() <= 1e-12 * max(
        np.abs(reference).max(), 1.0)

    spectrum = assemble_stokes(hodge)
    lam = dense_reference_spectrum(hodge, basis).eigenvalues
    assert np.abs(spectrum.eigenvalues - lam).max() <= 1e-12 * lam[-1]
    return hodge


@PROPERTY_SETTINGS
@given(masks(), seeds)
def test_parity_blocks_match_dense_reference(mask, seed):
    _assert_matches_dense_reference(mask, seed)


def _two_pieces():
    occupied = np.zeros((5, 2, 2), dtype=bool)
    occupied[:2] = occupied[3:] = True
    return DomainMask((5, 2, 2), 0.2, occupied)


@pytest.mark.parametrize("name", ["single", "box2", "lshape_3x3x1", "two_pieces"])
def test_parity_blocks_match_dense_reference_on_shipped_masks(name):
    mask = _two_pieces() if name == "two_pieces" else load_mask(mask_path(name))
    hodge = _assert_matches_dense_reference(mask, seed=0)
    if name == "single":
        # the one cell reaches only odd blocks, so C is 0 x 3
        assert (hodge.n_even, hodge.dim) == (0, 3)


def test_gradient_entry_outside_blocks_raises():
    ops = build_operators(load_mask(mask_path("box2")))
    gradient = ops.gradient.tolil()
    gradient[0, 0] = 1.0  # u_x at cell 0 belongs to block 4, pressure cell 0 to block 0
    with pytest.raises(SpectrumError):
        build_hodge(dataclasses.replace(ops, gradient=gradient.tocsr()))


@pytest.mark.parametrize("defect", ["diagonal", "same_parity"])
def test_laplacian_outside_block_structure_raises(defect):
    ops = build_operators(load_mask(mask_path("box2")))
    hodge = build_hodge(ops)
    laplacian = ops.laplacian.tolil()
    if defect == "diagonal":
        laplacian[0, 0] *= 1.5
    else:
        rows = np.flatnonzero(velocity_classes(ops.mask) == velocity_classes(ops.mask)[0])
        laplacian[rows[0], rows[1]] = laplacian[rows[1], rows[0]] = -1.0
    broken = dataclasses.replace(hodge, ops=dataclasses.replace(ops, laplacian=laplacian.tocsr()))
    with pytest.raises(SpectrumError):
        assemble_stokes(broken)
