"""Reduced operator assembly and the spectral functional calculus."""

import dataclasses
import random
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from mildflow import (
    DomainMask,
    PicardConfig,
    SpectrumError,
    TimeGrid,
    VectorField,
    apply_frac_power,
    apply_semigroup,
    assemble_stokes,
    build_hodge,
    build_operators,
    estimate_phi_norm,
    field_dot,
    load_mask,
    picard_solve,
    smoothing_bound,
    smoothing_envelope,
)
from mildflow import hodge as hodge_module
from mildflow import stokes as stokes_module
from mildflow.hodge import HodgeDecomposition, velocity_classes
from mildflow.stokes import TAIL, _coupling_svd
from conftest import blas_thread_control, dense_reference_spectrum, mask_path, rough_ops


def _random_coords(hodge, rng):
    return rng.standard_normal(hodge.dim)


class TestAssembly:
    def test_single_cell_reduction_is_rayleigh_quotient(self):
        # A single cell has a trivial gradient, so every direction is
        # divergence-free and each eigenvalue equals the Rayleigh quotient
        # of its eigenvector: 6 / h^2 here.
        mask = load_mask(mask_path("single"))
        hodge = build_hodge(build_operators(mask))
        spectrum = assemble_stokes(hodge)
        assert spectrum.dim == 3
        assert np.allclose(spectrum.eigenvalues, 6.0)
        lap = hodge.ops.laplacian.toarray()
        for k in range(spectrum.dim):
            z = hodge.basis @ spectrum.modes[:, k]
            rayleigh = (z @ lap @ z) / (z @ z)
            assert abs(spectrum.eigenvalues[k] - rayleigh) <= 1e-12 * rayleigh

    @pytest.mark.parametrize("spacing", [1.5e6, 1e30])
    def test_positivity_check_does_not_depend_on_scale(self, box4, box4_spectrum, spacing):
        # the spectrum scales as 1/h^2, so at a coarse spacing every
        # eigenvalue lies below any absolute floor and is still positive
        mask = DomainMask(box4.dims, spacing, box4.occupancy)
        spectrum = assemble_stokes(build_hodge(build_operators(mask)))
        reference = box4_spectrum.eigenvalues[0] * box4.spacing ** 2
        assert abs(spectrum.eigenvalues[0] * spacing ** 2 - reference) <= 1e-12 * reference

    def test_positivity_check(self, box4_ops):
        # doubled couplings keep the 6/h^2 diagonal and the parity pattern,
        # so the structure check passes, but (6 - 2 sigma_max)/h^2 < 0
        lap = box4_ops.laplacian
        diagonal = sp.diags(lap.diagonal())
        ops = dataclasses.replace(box4_ops, laplacian=(diagonal + 2.0 * (lap - diagonal)).tocsr())
        with pytest.raises(SpectrumError, match="not positive definite"):
            assemble_stokes(build_hodge(ops))

    @pytest.mark.parametrize("name", ["box4", "lmask"])
    def test_factorization_margins(self, request, name):
        # the re-solved block holds the singular values of C below TAIL
        # sigma_max, and the coupling the factorization drops is round-off
        hodge = request.getfixturevalue(f"{name}_hodge")
        margins = assemble_stokes(hodge).margins
        svals = np.linalg.svd(hodge.coupling(), compute_uv=False)
        assert margins["resolved_tail"] == np.count_nonzero(svals < TAIL * svals[0]) > 0
        assert 0.0 < margins["max_dropped_coupling_rel"] <= 1e-13

    def test_factorization_is_deterministic(self, small_sigma_hodge):
        # the complement of the head comes from a seeded draw, so two calls
        # give the same bits
        coupling = small_sigma_hodge.coupling()
        first, second = _coupling_svd(lambda: coupling), _coupling_svd(lambda: coupling)
        assert first[3:] == second[3:]
        assert all(np.array_equal(a, b) for a, b in zip(first[:3], second[:3]))

    def test_coupling_across_more_than_one_bit(self, box4_hodge, box4_spectrum):
        # classes 0 and 7 differ in three bits, but one is even and one odd:
        # the coupling is in C, and the spectrum is the dense one
        ops = box4_hodge.ops
        klass = velocity_classes(ops.mask)
        first, last = np.flatnonzero(klass == 0)[0], np.flatnonzero(klass == 7)[0]
        laplacian = ops.laplacian.tolil()
        laplacian[first, last] = laplacian[last, first] = -0.5 / ops.mask.spacing ** 2
        hodge = dataclasses.replace(
            box4_hodge, ops=dataclasses.replace(ops, laplacian=laplacian.tocsr()))
        spectrum = assemble_stokes(hodge)
        reference = dense_reference_spectrum(hodge, hodge.basis)
        lam = reference.eigenvalues
        assert np.abs(spectrum.eigenvalues - lam).max() <= 1e-12 * lam[-1]
        assert np.abs(lam - box4_spectrum.eigenvalues).max() > 1e-3 * lam[-1]
        assert np.abs(spectrum.fields - reference.fields).max() <= 1e-10

    def test_rayleigh_quotient_per_mode(self, box4_hodge, box4_spectrum):
        lap = box4_hodge.ops.laplacian
        for k in (0, 5, box4_spectrum.dim - 1):
            z = box4_hodge.basis @ box4_spectrum.modes[:, k]
            rayleigh = (z @ (lap @ z)) / (z @ z)
            assert abs(box4_spectrum.eigenvalues[k] - rayleigh) <= 1e-12 * rayleigh

    def test_projection_cannot_lower_the_infimum(self, box4_hodge, box4_spectrum):
        ambient_min = np.linalg.eigvalsh(box4_hodge.ops.laplacian.toarray())[0]
        assert box4_spectrum.eigenvalues[0] >= ambient_min - 1e-10 * abs(ambient_min)

    def test_reduced_operator_symmetric(self, box4_hodge):
        z = box4_hodge.basis
        reduced = z.T @ (box4_hodge.ops.laplacian @ z)
        asym = np.linalg.norm(reduced - reduced.T)
        assert asym <= 1e-12 * np.linalg.norm(reduced)

    def test_eigen_residuals(self, box4_hodge, box4_spectrum):
        z = box4_hodge.basis
        reduced = z.T @ (box4_hodge.ops.laplacian @ z)
        for k in range(0, box4_spectrum.dim, 7):
            q = box4_spectrum.modes[:, k]
            lam = box4_spectrum.eigenvalues[k]
            assert np.linalg.norm(reduced @ q - lam * q) <= 1e-10 * lam

    def test_eigenvalues_positive_ascending(self, box4_spectrum):
        assert box4_spectrum.eigenvalues[0] > 0.0
        assert np.all(np.diff(box4_spectrum.eigenvalues) >= 0.0)

    def test_orthonormal_eigenfields(self, box4_hodge, box4_spectrum):
        for j, k in ((0, 0), (0, 1), (3, 10)):
            fj = box4_spectrum.eigenfield(j)
            fk = box4_spectrum.eigenfield(k)
            expected = 1.0 if j == k else 0.0
            assert abs(field_dot(fj, fk) - expected) <= 1e-12


class TestFunctionalCalculus:
    def test_zero_power_is_identity(self, box4_hodge, box4_spectrum):
        rng = np.random.default_rng(0)
        c = _random_coords(box4_hodge, rng)
        out = apply_frac_power(box4_spectrum, 0.0)(c)
        assert np.allclose(out, c, rtol=1e-12, atol=1e-14)

    def test_first_power_on_eigenvector(self, box4_spectrum):
        k = 4
        c = box4_spectrum.modes[:, k]
        out = apply_frac_power(box4_spectrum, 1.0)(c)
        assert np.allclose(out, box4_spectrum.eigenvalues[k] * c, rtol=1e-12)

    def test_half_power_norm_identity(self, box4_hodge, box4_spectrum):
        # ||A^{1/2} u||^2 and <Lap u, u> are computed through different
        # routes and must agree: the domain of the square root carries the
        # gradient norm.
        rng = np.random.default_rng(1)
        vol = box4_hodge.mask.cell_volume
        for _ in range(5):
            c = _random_coords(box4_hodge, rng)
            half = apply_frac_power(box4_spectrum, 0.5)(c)
            lhs = vol * np.linalg.norm(half) ** 2
            u = box4_hodge.basis @ c
            rhs = vol * (u @ (box4_hodge.ops.laplacian @ u))
            assert abs(lhs - rhs) <= 1e-10 * rhs

    def test_quarter_powers_compose_to_half(self, box4_hodge, box4_spectrum):
        rng = np.random.default_rng(2)
        c = _random_coords(box4_hodge, rng)
        quarter = apply_frac_power(box4_spectrum, 0.25)
        direct = apply_frac_power(box4_spectrum, 0.5)(c)
        composed = quarter(quarter(c))
        assert np.linalg.norm(composed - direct) <= 1e-10 * np.linalg.norm(direct)

    def test_composition_with_negative_power(self, box4_hodge, box4_spectrum):
        rng = np.random.default_rng(3)
        c = _random_coords(box4_hodge, rng)
        forward = apply_frac_power(box4_spectrum, 0.25)(c)
        back = apply_frac_power(box4_spectrum, -0.25)(forward)
        assert np.linalg.norm(back - c) <= 1e-10 * np.linalg.norm(c)

    def test_self_adjointness(self, box4_hodge, box4_spectrum):
        rng = np.random.default_rng(4)
        vol = box4_hodge.mask.cell_volume
        for s in (-0.25, 0.25, 0.5, 1.0):
            op = apply_frac_power(box4_spectrum, s)
            u = _random_coords(box4_hodge, rng)
            v = _random_coords(box4_hodge, rng)
            lhs = vol * (op(u) @ v)
            rhs = vol * (u @ op(v))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_overflow_guard(self, box4_spectrum):
        with pytest.raises(OverflowError):
            apply_frac_power(box4_spectrum, 1e6)


class TestSemigroup:
    def test_time_zero_identity(self, box4_hodge, box4_spectrum):
        rng = np.random.default_rng(5)
        c = _random_coords(box4_hodge, rng)
        assert np.allclose(apply_semigroup(box4_spectrum, 0.0)(c), c, rtol=1e-13)

    def test_single_mode_decay(self, box4_spectrum):
        k = 3
        t = 0.2
        c = box4_spectrum.modes[:, k]
        out = apply_semigroup(box4_spectrum, t)(c)
        assert np.allclose(out, np.exp(-t * box4_spectrum.eigenvalues[k]) * c, rtol=1e-13)

    def test_semigroup_law(self, box4_hodge, box4_spectrum):
        rng = np.random.default_rng(6)
        c = _random_coords(box4_hodge, rng)
        composed = apply_semigroup(box4_spectrum, 0.3)(apply_semigroup(box4_spectrum, 0.1)(c))
        direct = apply_semigroup(box4_spectrum, 0.4)(c)
        assert np.linalg.norm(composed - direct) <= 1e-12 * np.linalg.norm(direct)

    def test_commutes_with_fractional_powers(self, box4_hodge, box4_spectrum):
        rng = np.random.default_rng(7)
        c = _random_coords(box4_hodge, rng)
        sg = apply_semigroup(box4_spectrum, 0.15)
        fp = apply_frac_power(box4_spectrum, 0.25)
        a = sg(fp(c))
        b = fp(sg(c))
        assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(a)

    def test_norm_decay_monotone(self, box4_hodge, box4_spectrum):
        rng = np.random.default_rng(8)
        c = _random_coords(box4_hodge, rng)
        norms = [
            np.linalg.norm(apply_semigroup(box4_spectrum, t)(c))
            for t in np.linspace(0.0, 2.0, 9)
        ]
        assert all(b <= a + 1e-14 for a, b in zip(norms, norms[1:]))

    def test_negative_time_rejected(self, box4_spectrum):
        with pytest.raises(ValueError):
            apply_semigroup(box4_spectrum, -0.1)


class TestSmoothingBounds:
    def test_zero_exponent(self, box4_spectrum):
        t_grid = [0.01, 0.1, 1.0]
        out = smoothing_bound(box4_spectrum, 0.0, t_grid)
        expected = np.exp(-np.asarray(t_grid) * box4_spectrum.eigenvalues[0])
        assert np.allclose(out, expected, rtol=1e-13)
        assert np.all(out <= 1.0)

    def test_first_exponent_below_inverse_e(self, box4_spectrum):
        t_grid = np.logspace(-4, 1, 60)
        out = smoothing_bound(box4_spectrum, 1.0, t_grid)
        assert np.all(out <= 1.0 / np.e)
        # per-eigenvalue scalar evaluation as the oracle
        lam = box4_spectrum.eigenvalues
        manual = np.array([np.max(t * lam * np.exp(-t * lam)) for t in t_grid])
        assert np.allclose(out, manual, rtol=1e-13)

    def test_quarter_exponent_envelope(self, box4_spectrum):
        t_grid = np.logspace(-4, 0, 50)
        out = smoothing_bound(box4_spectrum, 0.25, t_grid)
        assert np.all(out <= smoothing_envelope(0.25))

    def test_negative_exponent_rejected(self, box4_spectrum):
        with pytest.raises(ValueError, match="nonnegative"):
            smoothing_bound(box4_spectrum, -0.5, [0.1])

    def test_envelope_values(self):
        assert smoothing_envelope(0.0) == 1.0
        assert abs(smoothing_envelope(1.0) - 1.0 / np.e) <= 1e-15


@pytest.mark.parametrize("hodge_name", ["box4_hodge", "lmask_hodge", "small_sigma_hodge"])
def test_results_do_not_depend_on_the_hodge_basis(hodge_name, request):
    # the box's eigenvalues are highly degenerate, so eigh may return any
    # basis inside a cluster; a rotated Z must give the same eigenfields.
    # small_sigma's 21-member cluster at 6/h^2 holds 7 unpaired vectors
    hodge = request.getfixturevalue(hodge_name)
    spectrum = assemble_stokes(hodge)
    rng = np.random.default_rng(11)
    rotation, _ = np.linalg.qr(rng.standard_normal((hodge.dim, hodge.dim)))
    rotated = dense_reference_spectrum(hodge, hodge.basis @ rotation)
    assert np.abs(rotated.fields - spectrum.fields).max() <= 1e-10

    grid = TimeGrid.graded(0.5, 8, 4)
    probes = [estimate_phi_norm(s, s.hodge, grid, trials=6, seed=3) for s in (spectrum, rotated)]
    assert abs(probes[1] - probes[0]) <= 1e-12 * probes[0]

    coords = hodge.coords(rng.standard_normal(3 * hodge.mask.n_cells))
    u0 = hodge.lift(coords / (np.linalg.norm(coords) * hodge.mask.cell_volume ** 0.5))
    u0 = VectorField(u0.mask, 0.5 * u0.values)
    logs = [picard_solve(s, s.hodge, u0, PicardConfig(grid=grid))[1] for s in (spectrum, rotated)]
    assert logs[0].converged and logs[1].iterations == logs[0].iterations
    distances = np.array([log.distances for log in logs])
    assert np.abs(distances[1] - distances[0]).max() <= 1e-12 * distances[0, 0]


def test_astype_casts_the_factors_and_keeps_the_eigenvalues(box4_spectrum):
    def factors(spectrum):
        return [spectrum.u_mat, spectrum.v_mat, spectrum.mixing, spectrum.hodge.ops.gradient,
                *(b.kernel for b in spectrum.hodge.blocks)]

    low = box4_spectrum.astype(np.float32)
    assert low.eigenvalues is box4_spectrum.eigenvalues
    assert low.eigenvalues.dtype == np.float64
    assert {f.dtype for f in factors(low)} == {np.dtype(np.float32)}
    assert {f.dtype for f in factors(box4_spectrum)} == {np.dtype(np.float64)}
    # the dtype a factor has already is shared, not copied
    same = box4_spectrum.astype(np.float64)
    assert all(a is b for a, b in zip(factors(same), factors(box4_spectrum)))
    half = box4_spectrum.astype(np.float64, gradient_scale=0.5).hodge.ops.gradient
    assert (half != 0.5 * box4_spectrum.hodge.ops.gradient).nnz == 0
    rng = np.random.default_rng(14)
    modal = rng.standard_normal((box4_spectrum.dim, 4))
    flat = low.lift(modal.astype(np.float32))
    assert flat.dtype == np.float32 and low.project(flat).dtype == np.float32
    np.testing.assert_allclose(flat, box4_spectrum.lift(modal), rtol=0, atol=1e-5)
    np.testing.assert_allclose(low.project(flat), modal, rtol=0, atol=1e-5)


def _rough12_seed1_hodge():
    """The ``setup_rough12`` benchmark mask of seed 1: 1,382 of the 12^3 cells,
    drawn as ``perfbench/workloads.py`` draws them; C is 1,438 x 1,327."""
    cells = [(i, j, k) for k in range(12) for j in range(12) for i in range(12)]
    occupancy = np.zeros((12, 12, 12), dtype=bool)
    occupancy[tuple(np.array(random.Random(1).sample(cells, round(0.8 * len(cells)))).T)] = True
    return build_hodge(build_operators(DomainMask((12, 12, 12), 1.0 / 12, occupancy)))


def _dsyevd():
    """``LAPACKE_dsyevd`` of numpy's OpenBLAS (untyped), or ``None`` where
    ``_gram_eigh`` does not find it."""
    return hodge_module._openblas("LAPACKE_dsyevd", None)


@pytest.fixture
def gram_eighs(monkeypatch):
    """A list that gets one entry per ``np.linalg.eigh`` call in the test."""
    calls, eigh = [], np.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


@pytest.mark.parametrize("name", ["box4", "lmask", "small_sigma", "rough"])
def test_in_place_eigensolve_matches_the_fallback(name, request, monkeypatch, gram_eighs):
    if _dsyevd() is None:
        pytest.skip("numpy's OpenBLAS exports no LAPACKE_dsyevd here")
    hodge = build_hodge(rough_ops()) if name == "rough" else request.getfixturevalue(f"{name}_hodge")
    coupling = hodge.coupling()
    in_place = _coupling_svd(lambda: coupling)
    assert not gram_eighs
    monkeypatch.setattr(stokes_module, "_openblas", lambda name, *types: None)
    fallback = _coupling_svd(lambda: coupling)
    assert len(gram_eighs) == 1
    assert in_place[3:] == fallback[3:]
    assert all(np.array_equal(a, b) for a, b in zip(in_place[:3], fallback[:3]))
    assert in_place[0].flags.c_contiguous and in_place[2].flags.c_contiguous
    assert fallback[0].flags.c_contiguous and fallback[2].flags.c_contiguous


@pytest.mark.parametrize("shape", [(0, 0), (3, 0), (0, 3), (4, 4)])
def test_empty_and_zero_couplings(shape):
    # p = 0 needs a leading dimension of at least 1; a zero C has no head
    u_mat, sigma, v_mat, dropped, tail = _coupling_svd(lambda: np.zeros(shape))
    p = min(shape)
    assert sigma.shape == (p,) and not sigma.any() and tail == p
    assert u_mat.shape == (shape[0],) * 2 and v_mat.shape == (shape[1],) * 2
    for factor in (u_mat, v_mat):
        assert np.abs(factor.T @ factor - np.eye(len(factor))).max(initial=0.0) <= 1e-14


def test_failed_in_place_eigensolve_raises_linalg_error(box4_hodge, monkeypatch):
    monkeypatch.setattr(stokes_module, "_openblas", lambda name, *types: lambda *args: 3)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        _coupling_svd(box4_hodge.coupling)


def test_in_place_route_is_found_with_the_blas_thread_control():
    # where numpy ships its OpenBLAS, the Gram eigensolve does not silently
    # fall back to the copying np.linalg.eigh
    if None in blas_thread_control():
        pytest.skip("numpy's OpenBLAS is not in numpy.libs in this process")
    assert _dsyevd() is not None


@pytest.mark.parametrize("name", ["rough", "rough12"])
def test_coupling_svd_allocates_about_two_factors(name):
    # numpy's allocations beyond C stay within 1.75 times U and V together
    # (tracemalloc, deterministic; LAPACK's workspace is not counted): the
    # Gram matrix becomes V, and A V, the head and the rotated complement
    # are written into U, with no reversed, concatenated or image copy
    hodge = _rough12_seed1_hodge() if name == "rough12" else build_hodge(rough_ops())
    coupling = hodge.coupling()
    rows, p = max(coupling.shape), min(coupling.shape)
    tracemalloc.start()
    try:
        _coupling_svd(lambda: coupling)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * 8 * (p * p + rows * rows)


@pytest.mark.parametrize("name", ["box4", "rough"])
def test_only_the_gram_matrix_is_alive_during_the_eigensolve(name, request, monkeypatch):
    # C is dropped before the eigensolve and rebuilt for A V afterwards, so
    # numpy holds the Gram matrix (8 p^2 bytes) and nothing of C's size
    # (8 rows p bytes) while LAPACK runs
    hodge = build_hodge(rough_ops()) if name == "rough" else request.getfixturevalue("box4_hodge")
    built, entries = [], []
    coupling, gram_eigh = HodgeDecomposition.coupling, stokes_module._gram_eigh

    def recording_coupling(self):
        out = coupling(self)
        built.append(weakref.ref(out))
        return out

    def recording_eigh(gram):
        entries.append((tracemalloc.get_traced_memory()[0], gram.nbytes,
                        [ref() is None for ref in built]))
        return gram_eigh(gram)

    monkeypatch.setattr(HodgeDecomposition, "coupling", recording_coupling)
    monkeypatch.setattr(stokes_module, "_gram_eigh", recording_eigh)
    tracemalloc.start()
    try:
        assemble_stokes(hodge)
    finally:
        tracemalloc.stop()
    (traced, gram_bytes, dead), = entries
    rows = max(hodge.n_even, hodge.dim - hodge.n_even)
    assert traced <= gram_bytes + 64 * rows + 4096
    assert len(built) == 2 and dead == [True]
