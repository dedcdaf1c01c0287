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
from scipy.linalg import block_diag

from mildflow import (
    DomainMask,
    MildTrajectory,
    ScalarField,
    SpectrumError,
    TimeGrid,
    alpha_from_coords,
    assemble_stokes,
    build_hodge,
    build_operators,
    combine_trajectories,
    energy_audit,
    et_norm,
    field_dot,
    format_mask,
    load_mask,
    phi,
)
from mildflow.hodge import RANK_TOLERANCE, velocity_classes
from mildflow.stokes import _coupling_svd
from conftest import DATA, dense_reference_spectrum, mask_path, random_vector_field

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
@given(masks(), st.sampled_from([1e-3, 1.0 / 3.0, 7.0]), seeds)
def test_stencils_match_their_definitions(mask, h, seed):
    # the reference reads the neighbors c +- e off the zero-padded grid
    mask = DomainMask(mask.dims, h, mask.occupancy)
    ops = build_operators(mask)
    u = np.random.default_rng(seed).standard_normal((3, mask.n_cells))
    grid = np.zeros((3,) + mask.dims)
    grid[:, mask.occupancy] = u
    padded = np.pad(grid, [(0, 0)] + [(1, 1)] * 3)

    def neighbors(axis, step):  # u[c + step e_axis], zero outside the mask
        return np.roll(padded, -step, axis + 1)[:, 1:-1, 1:-1, 1:-1][:, mask.occupancy]

    scale = np.abs(u).max()
    grad = (ops.gradient @ u[0]).reshape(3, -1)
    for axis in range(3):
        want = (neighbors(axis, 1)[0] - neighbors(axis, -1)[0]) / (2 * h)
        assert np.abs(grad[axis] - want).max() <= 1e-14 * scale / h
    lap = (ops.laplacian @ u.reshape(-1)).reshape(3, -1)
    want = (6 * u - sum(neighbors(axis, step) for axis in range(3) for step in (1, -1))) / h**2
    assert np.abs(lap - want).max() <= 1e-14 * scale / h**2
    assert np.array_equal(ops.laplacian.diagonal(), np.full(3 * mask.n_cells, 6.0 / h**2))
    for matrix in (ops.gradient, ops.divergence, ops.laplacian):
        rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
        assert np.all((np.diff(matrix.indices) > 0) | (np.diff(rows) > 0))  # sorted, unique
        assert np.all(matrix.data != 0.0)


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

    uv = phi(spectrum, u, v)
    assert gap(uv, phi(spectrum, v, u)) <= 1e-12 * norm(uv)
    a, b = rng.uniform(-2.0, 2.0, 2)
    wv = phi(spectrum, w, v)
    left = phi(spectrum, combine_trajectories(a, u, b, w), v)
    right = combine_trajectories(a, uv, b, wv)
    assert gap(left, right) <= 1e-12 * (abs(a) * norm(uv) + abs(b) * norm(wv))


def _assert_modal_energy_audit_matches_the_lifted_fields(mask, seed):
    ops = build_operators(mask)
    spectrum = assemble_stokes(build_hodge(ops))
    grid = TimeGrid.graded(0.5, 6, 3)
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((grid.nodes.size, spectrum.dim))
    traj = MildTrajectory(grid, samples, np.zeros((grid.segments, spectrum.dim)))
    # the reference lifts every sample and applies the sparse Laplacian
    u = spectrum.fields @ samples.T
    vol = mask.cell_volume
    energies = vol * np.einsum("ij,ij->j", u, u)
    dissipation = vol * np.einsum("ij,ij->j", u, ops.laplacian @ u)
    steps = np.diff(grid.nodes)
    cumulative = np.cumsum(0.5 * steps * (dissipation[1:] + dissipation[:-1]))
    want = energies - energies[0] + 2.0 * np.concatenate([[0.0], cumulative])
    got = energy_audit(spectrum, traj)
    assert np.abs(got - want).max() <= 1e-12 * energies.max()


@PROPERTY_SETTINGS
@given(masks(), seeds)
def test_modal_energy_audit_matches_the_lifted_fields(mask, seed):
    _assert_modal_energy_audit_matches_the_lifted_fields(mask, seed)


def _assert_factored_form_matches_the_dense_arrays(mask, seed):
    ops = build_operators(mask)
    hodge = build_hodge(ops)
    spectrum = assemble_stokes(hodge)
    basis, fields, modes = hodge.basis, spectrum.fields, spectrum.modes
    m, lam = spectrum.dim, spectrum.eigenvalues
    rng = np.random.default_rng(seed)
    a, x = rng.standard_normal((m, 3)), rng.standard_normal((3 * mask.n_cells, 3))

    def close(got, want):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)

    # the dense arrays are what they claim: Z and Y orthonormal, Y = Z Q
    # made of eigenvectors of the reduced operator, Q = blockdiag(U, V) R
    close(basis.T @ basis, np.eye(m))
    close(fields.T @ fields, np.eye(m))
    close(basis @ modes, fields)
    assert np.abs(fields.T @ (ops.laplacian @ fields) - np.diag(lam)).max() <= 1e-12 * lam[-1]
    mixing = spectrum.mixing.toarray()
    close(block_diag(spectrum.u_mat, spectrum.v_mat) @ mixing, modes)
    close(mixing.T @ mixing, np.eye(m))
    # batched and single columns through the factors and the blocks
    for cols in (slice(None), 0):
        close(spectrum.from_modal(a[:, cols]), modes @ a[:, cols])
        close(spectrum.to_modal(a[:, cols]), modes.T @ a[:, cols])
        close(spectrum.lift(a[:, cols]), fields @ a[:, cols])
        close(spectrum.project(x[:, cols]), fields.T @ x[:, cols])
        close(hodge.coords(x[:, cols]), basis.T @ x[:, cols])
        close(hodge.lift_flat(a[:, cols]), basis @ a[:, cols])
    u = random_vector_field(mask, rng)
    close(hodge.project(u).flat, basis @ (basis.T @ u.flat))
    return spectrum


@PROPERTY_SETTINGS
@given(masks(), seeds)
def test_factored_form_matches_the_dense_arrays(mask, seed):
    _assert_factored_form_matches_the_dense_arrays(mask, seed)


def test_factored_form_without_even_blocks():
    # the one cell reaches only odd blocks, so U is 0 x 0
    spectrum = _assert_factored_form_matches_the_dense_arrays(load_mask(mask_path("single")), 0)
    assert spectrum.u_mat.shape == (0, 0) and spectrum.v_mat.shape == (3, 3)


def _assert_is_svd(coupling):
    """``_coupling_svd`` against LAPACK's SVD of C: the singular values,
    C v_i = sigma_i u_i and C^T u_i = sigma_i v_i (0 for the unpaired
    vectors), and orthonormal U and V.  Returns sigma, the dropped coupling
    and the tail size."""
    u_mat, sigma, v_mat, dropped, tail = _coupling_svd(lambda: coupling)
    reference = np.linalg.svd(coupling, compute_uv=False)
    bound = 1e-13 * reference.max(initial=0.0)
    assert np.abs(np.sort(sigma)[::-1] - reference).max(initial=0.0) <= bound
    paired = np.zeros(coupling.shape)
    np.fill_diagonal(paired, sigma)
    for residual in (coupling @ v_mat - u_mat @ paired, coupling.T @ u_mat - v_mat @ paired.T):
        assert np.linalg.norm(residual, axis=0).max(initial=0.0) <= bound
    for factor in (u_mat, v_mat):
        assert np.abs(factor.T @ factor - np.eye(factor.shape[1])).max(initial=0.0) <= 1e-13
    return sigma, dropped, tail


def _coupling(mask):
    hodge = build_hodge(build_operators(mask))
    return -mask.spacing ** 2 * hodge.even_odd_block(hodge.ops.laplacian)


def _assert_coupling_svd_matches_reference(mask):
    # the Gram-matrix route against LAPACK's SVD of C
    return _assert_is_svd(_coupling(mask))[0]


@PROPERTY_SETTINGS
@given(masks())
def test_coupling_svd_matches_reference(mask):
    _assert_coupling_svd_matches_reference(mask)


@pytest.mark.parametrize("name", sorted(path.stem for path in DATA.glob("*.mask")))
def test_coupling_svd_matches_reference_on_shipped_masks(name):
    # covers the transposed case (lshape_3x3x1, C 4 x 7), an empty even
    # side (single, C 0 x 3), an exact zero sigma (lmask_6x6x3) and a
    # sigma of 2.1e-4 beside seven zeros (small_sigma_5x5x5, from a seeded
    # search), where without the tail re-solve the residuals reach
    # eps ||C||^2 / sigma, 1.8e-12 sigma_max
    sigma = _assert_coupling_svd_matches_reference(load_mask(mask_path(name)))
    if name == "small_sigma_5x5x5":
        assert np.count_nonzero((sigma > 1e-10) & (sigma < 1e-3)) == 1


def _two_cells_apart():
    """The 1 x 1 x 4 mask with cells 0 and 3: no two cells touch, so C is all zero."""
    return DomainMask((1, 1, 4), 0.25, np.array([[[True, False, False, True]]]))


def test_coupling_svd_of_an_all_zero_coupling():
    # every sigma is 0, so every column is tail and nothing is divided by sqrt(w)
    mask = _two_cells_apart()
    coupling = _coupling(mask)
    assert coupling.size and not coupling.any()
    sigma, dropped, tail = _assert_is_svd(coupling)
    assert not sigma.any() and dropped is None and tail == sigma.size
    _assert_modal_energy_audit_matches_the_lifted_fields(mask, 0)


def test_coupling_svd_without_tail_or_complement():
    # square and well conditioned: every column is head, and the
    # complement of the head and the tail SVD are empty
    coupling = np.eye(40) + 0.01 * np.random.default_rng(0).standard_normal((40, 40))
    sigma, dropped, tail = _assert_is_svd(coupling)
    assert tail == 0 and dropped is None and sigma.min() > 0.9


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
