"""Orthogonal splitting into divergence-free fields and gradients."""

import dataclasses
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from mildflow import (
    ScalarField,
    SpectrumError,
    VectorField,
    build_hodge,
    build_operators,
    field_dot,
    field_norm,
    load_mask,
)
from mildflow import hodge as hodge_module
from conftest import mask_path, random_scalar_values, random_vector_field, rough_ops


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


def split(hodge, u):
    """u = u_H + u_G with u_H = P u and u_G = u - u_H, and the canonical
    potential p of u_G."""
    u_h = hodge.project(u)
    u_g = VectorField(hodge.mask, u.values - u_h.values)
    return u_h, u_g, ScalarField(hodge.mask, hodge.potentials(u.flat[:, None])[:, 0])


class TestDecompose:
    def test_zero_field(self, box4_hodge):
        u = VectorField.zeros(box4_hodge.mask)
        u_h, u_g, p = split(box4_hodge, u)
        assert not u_h.values.any() and not u_g.values.any() and not p.values.any()

    def test_pure_gradient_input(self, box4_ops, box4_hodge):
        rng = np.random.default_rng(3)
        p0 = ScalarField(box4_ops.mask, random_scalar_values(box4_ops.mask, rng))
        g = box4_ops.gradient_of(p0)
        u_h, u_g, p = split(box4_hodge, g)
        assert field_norm(u_h) <= 1e-10 * field_norm(g)
        recon = box4_ops.gradient_of(p)
        assert np.linalg.norm(recon.values - g.values) <= 1e-10 * np.linalg.norm(g.values)

    def test_pythagoras(self, box4_hodge):
        rng = np.random.default_rng(4)
        for _ in range(10):
            u = random_vector_field(box4_hodge.mask, rng)
            u_h, u_g, _ = split(box4_hodge, u)
            total = field_dot(u, u)
            parts = field_dot(u_h, u_h) + field_dot(u_g, u_g)
            assert abs(total - parts) <= 1e-12 * total


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
        p = box4_hodge.potentials(w.flat[:, None])[:, 0]
        recon = box4_ops.gradient_of(ScalarField(box4_ops.mask, p))
        assert np.linalg.norm(recon.values - w.values) <= 1e-10 * np.linalg.norm(w.values)

    def test_works_on_irregular_mask(self, lmask_hodge):
        ops = lmask_hodge.ops
        rng = np.random.default_rng(7)
        u = random_vector_field(ops.mask, rng)
        w = VectorField(ops.mask, u.values - lmask_hodge.project(u).values)
        p = lmask_hodge.potentials(w.flat[:, None])[:, 0]
        recon = ops.gradient_of(ScalarField(ops.mask, p))
        assert np.linalg.norm(recon.values - w.values) <= 1e-10 * np.linalg.norm(w.values)


def test_degenerate_2d_mask_pipeline(box4_spectrum):
    # nz = 1 masks are legal and run through the whole linear machinery
    from mildflow import TimeGrid, alpha_trajectory, assemble_stokes, et_norm

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
    p = box4_hodge.potentials(u.flat[:, None])[:, 0]
    dense = box4_ops.gradient.toarray()
    lstsq_p, *_ = np.linalg.lstsq(dense, u.flat - box4_hodge.project(u).flat, rcond=None)
    assert np.allclose(p, lstsq_p, rtol=1e-9, atol=1e-11)


def test_rank_margins_on_a_rank_deficient_gradient():
    # the 3 x 3 x 1 L-shape's gradient loses one rank; the margins show the
    # dropped and kept singular values on either side of the cut
    ops = build_operators(load_mask(mask_path("lshape_3x3x1")))
    hodge = build_hodge(ops)
    margins = hodge.margins
    assert hodge.grad_rank < ops.mask.n_cells
    svals = np.linalg.svd(ops.gradient.toarray(), compute_uv=False)
    kept = svals[:hodge.grad_rank]
    assert margins["max_dropped_singular_rel"] <= margins["rank_tolerance"]
    assert margins["min_kept_singular_rel"] == pytest.approx(kept[-1] / svals[0], rel=1e-12)
    assert margins["divergence_defect"] <= margins["divergence_tolerance"]


def test_divergence_defect_raises(box4_ops):
    # a divergence that is no longer -gradient^T leaves the basis outside its kernel
    divergence = box4_ops.divergence.copy()
    divergence.data *= 1.0 + 1e-6 * np.random.default_rng(9).standard_normal(divergence.nnz)
    with pytest.raises(SpectrumError, match="not divergence-free"):
        build_hodge(dataclasses.replace(box4_ops, divergence=divergence))


def test_divergence_tolerance_is_relative(box4):
    # the gradient scales as 1/h, so a tolerance relative to its largest
    # singular value, times h, is the same number on every grid spacing
    from mildflow.domain import DomainMask

    scaled = [build_hodge(build_operators(DomainMask(box4.dims, h, box4.occupancy))).margins
              for h in (1.0, 1e6)]
    assert scaled[1]["divergence_tolerance"] * 1e6 == pytest.approx(
        scaled[0]["divergence_tolerance"], rel=1e-12)
    for margins in scaled:
        assert margins["divergence_defect"] <= margins["divergence_tolerance"]


def test_rank_cut_is_global_across_parity_blocks(box4_ops, box4_hodge):
    # one parity block's gradient scaled by 1e-12 (the divergence with it):
    # its singular values fall below RANK_TOLERANCE times the largest over
    # all blocks but stay far above RANK_TOLERANCE times the block's own
    # largest, so the one global cut drops every one of them
    from mildflow.hodge import RANK_TOLERANCE, velocity_classes

    rows = velocity_classes(box4_ops.mask) == 3
    gradient = (sp.diags(np.where(rows, 1e-12, 1.0)) @ box4_ops.gradient).tocsr()
    ops = dataclasses.replace(box4_ops, gradient=gradient, divergence=(-gradient.T).tocsr())
    svals = np.linalg.svd(gradient.toarray(), compute_uv=False)
    block = np.linalg.svd(gradient[rows].toarray(), compute_uv=False)
    kept_by_own_cut = block[block > RANK_TOLERANCE * block.max()]
    assert kept_by_own_cut.size and kept_by_own_cut.max() < RANK_TOLERANCE * svals[0]
    hodge = build_hodge(ops)
    assert hodge.grad_rank == np.count_nonzero(svals > RANK_TOLERANCE * svals[0])
    assert hodge.grad_rank == box4_hodge.grad_rank - kept_by_own_cut.size
    assert hodge.dim == box4_hodge.dim + kept_by_own_cut.size


@pytest.fixture
def blas_threads():
    """The BLAS thread-count setter and getter; the count is restored after the test."""
    control = hodge_module._blas_thread_control()
    if control is None:
        pytest.skip("numpy's BLAS thread count cannot be set in this process")
    before = control[1]()
    yield control
    control[0](before)


@pytest.mark.parametrize("name", ["box4", "lmask", "rough"])
def test_worker_pool_matches_the_serial_loop(name, request, monkeypatch):
    ops = rough_ops() if name == "rough" else request.getfixturevalue(f"{name}_hodge").ops
    pooled = build_hodge(ops)
    monkeypatch.setattr(hodge_module, "_blas_thread_control", lambda: None)
    serial = build_hodge(ops)
    assert pooled.grad_rank == serial.grad_rank
    for got, want in zip(pooled.blocks, serial.blocks):
        assert got.span == want.span and np.array_equal(got.s_r, want.s_r)
    projector = pooled.basis @ pooled.basis.T
    assert np.abs(projector - serial.basis @ serial.basis.T).max() <= 1e-12


def test_serial_fallback_factors_on_the_calling_thread(box4_ops, monkeypatch):
    # without a thread-count setter no worker thread is started
    threads = []
    svd = np.linalg.svd

    def recording_svd(*args, **kwargs):
        threads.append(threading.current_thread())
        return svd(*args, **kwargs)

    monkeypatch.setattr(hodge_module, "_blas_thread_control", lambda: None)
    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    hodge = build_hodge(box4_ops)
    assert threads == [threading.main_thread()] * 8
    assert hodge.dim + hodge.grad_rank == 3 * box4_ops.mask.n_cells


@pytest.mark.parametrize("start", [1, 2])
def test_blas_thread_count_is_restored(start, box4_ops, blas_threads, monkeypatch):
    set_threads, get_threads = blas_threads
    set_threads(start)
    build_hodge(box4_ops)
    assert get_threads() == start

    calls, svd, lock = [], np.linalg.svd, threading.Lock()

    def third_block_fails(*args, **kwargs):
        with lock:
            calls.append(get_threads())
            if len(calls) == 3:
                raise np.linalg.LinAlgError("SVD did not converge")
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", third_block_fails)
    with pytest.raises(np.linalg.LinAlgError):
        build_hodge(box4_ops)
    # every block ran at one BLAS thread, and the count is back where it was
    assert set(calls) == {1} and get_threads() == start


def test_factors_do_not_depend_on_the_blas_thread_count(blas_threads):
    # the serial loop at 1 and at 2 BLAS threads gives factors that differ
    # at round-off on this mask; one-thread workers give the same bits
    set_threads, _ = blas_threads
    ops, factors = rough_ops(), []
    for threads in (1, 2):
        set_threads(threads)
        factors.append([(b.kernel, b.u_r, b.s_r, b.vt_r) for b in build_hodge(ops).blocks])
    for got, want in zip(*factors):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_coords_and_lift_keep_their_float64_bits(box4_hodge):
    # float64 factors: the block products of a float64 input, bit for bit,
    # and a narrower input is read as float64, as a cast before would
    rng = np.random.default_rng(12)
    x = rng.standard_normal((3 * box4_hodge.mask.n_cells, 5))
    c = rng.standard_normal((box4_hodge.dim, 5))
    want_coords, want_flat = np.empty_like(c), np.empty_like(x)
    for b in box4_hodge.blocks:
        want_coords[b.span] = b.kernel.T @ x[b.rows]
        want_flat[b.rows] = b.kernel @ c[b.span]
    assert np.array_equal(box4_hodge.coords(x), want_coords)
    assert np.array_equal(box4_hodge.lift_flat(c), want_flat)
    for narrow in (x.astype(np.float32), np.rint(4.0 * x).astype(int)):
        got = box4_hodge.coords(narrow)
        assert got.dtype == np.float64
        assert np.array_equal(got, box4_hodge.coords(narrow.astype(float)))
    assert np.array_equal(box4_hodge.lift_flat(c.astype(np.float32)),
                          box4_hodge.lift_flat(c.astype(np.float32).astype(float)))

