"""Momentum-equation audit, pressure recovery, oracle, energy balance."""

import numpy as np
import pytest

import mildflow.verify
from mildflow import (
    MildTrajectory,
    OracleInstabilityError,
    PicardConfig,
    ScalarField,
    TimeGrid,
    VectorField,
    alpha_trajectory,
    assemble_stokes,
    build_operators,
    energy_audit,
    imex_oracle,
    modal_forcing,
    picard_solve,
    recover_pressure,
    strong_residual,
)
from mildflow.convection import advect_flat
from mildflow.domain import vector_lp_norm
from conftest import random_scalar_values, random_vector_field


@pytest.fixture(scope="module")
def grid():
    return TimeGrid.graded(0.5, 24, 6)


@pytest.fixture(scope="module")
def small_u0(box4_spectrum, box4_hodge):
    m = box4_spectrum.dim
    modal = np.zeros(m)
    modal[0], modal[3], modal[7] = 1.0, 0.6, -0.4
    return box4_hodge.lift(0.08 * box4_spectrum.from_modal(modal / np.linalg.norm(modal)))


@pytest.fixture(scope="module")
def small_solution(box4_spectrum, box4_hodge, small_u0, grid):
    traj, log = picard_solve(
        box4_spectrum, box4_hodge, small_u0, PicardConfig(grid=grid, tol=1e-12)
    )
    assert log.converged
    return traj


class TestStrongResidual:
    def test_linear_mode_is_exact(self, box4_spectrum, box4_hodge, box4_ops, small_u0, grid):
        traj, _ = picard_solve(
            box4_spectrum, box4_hodge, small_u0,
            PicardConfig(grid=grid, nonlinearity_scale=0.0),
        )
        report = strong_residual(box4_spectrum, box4_hodge, box4_ops, traj, small_u0, scale=0.0)
        assert report.residual_rels.max() <= 1e-10
        assert report.gradient_match_rels.max() <= 1e-10
        assert report.initial_value_error <= 1e-12

    def test_divergence_free_samples(self, box4_spectrum, box4_hodge, box4_ops,
                                     small_u0, small_solution):
        report = strong_residual(
            box4_spectrum, box4_hodge, box4_ops, small_solution, small_u0
        )
        for j in range(1, small_solution.grid.nodes.size):
            sample_norm = np.linalg.norm(box4_spectrum.fields @ small_solution.samples[j])
            assert report.divergence_norms[j - 1] <= 1e-12 * max(sample_norm, 1e-30)

    def test_initial_value_exact(self, box4_spectrum, box4_hodge, box4_ops,
                                 small_u0, small_solution):
        report = strong_residual(
            box4_spectrum, box4_hodge, box4_ops, small_solution, small_u0
        )
        assert report.initial_value_error == 0.0

    def test_pressure_consistency(self, box4_spectrum, box4_hodge, box4_ops,
                                  small_u0, small_solution):
        report = strong_residual(
            box4_spectrum, box4_hodge, box4_ops, small_solution, small_u0
        )
        assert report.pressure_consistency_rels.max() <= 1e-10

    def test_residual_decreases_under_refinement(self, box4_spectrum, box4_hodge,
                                                 box4_ops, small_u0):
        maxima = []
        for segments, order in ((16, 4), (32, 8)):
            g = TimeGrid.graded(0.5, segments, order)
            traj, _ = picard_solve(
                box4_spectrum, box4_hodge, small_u0, PicardConfig(grid=g, tol=1e-12)
            )
            report = strong_residual(box4_spectrum, box4_hodge, box4_ops, traj, small_u0)
            maxima.append(report.residual_rels.max())
        assert maxima[1] < maxima[0]


def per_node_strong_residual(spectrum, hodge, ops, traj, scale):
    """The strong-residual report fields, one node at a time."""
    fields = spectrum.fields
    vol = ops.mask.cell_volume ** 0.5
    rows, pressures = [], []
    for j in range(1, traj.grid.nodes.size):
        u = fields @ traj.samples[j]
        du = fields @ traj.derivative_samples[j - 1]
        lap_u = ops.laplacian @ u
        conv = scale * advect_flat(ops, u, u)
        w = du + lap_u + conv
        denom = vol * (np.linalg.norm(du) + np.linalg.norm(lap_u))
        residual = vol * np.linalg.norm(fields.T @ w)
        recovery = recover_pressure(hodge, ops, VectorField.from_flat(ops.mask, w))
        grad_full = ops.gradient @ recovery.potential.values + w
        rows.append((
            vol * np.linalg.norm(ops.divergence @ u),
            residual / denom,
            vol * np.linalg.norm(grad_full) / denom,
            recovery.h_component,
            abs(recovery.h_component - residual) / denom,
            traj.grid.nodes[j] ** 0.5
            * vector_lp_norm(VectorField.from_flat(ops.mask, conv), 1.5),
        ))
        pressures.append(recovery.potential.values)
    return np.array(rows).T, np.array(pressures)


@pytest.fixture(scope="module")
def lmask_case(lmask_hodge, grid):
    spectrum = assemble_stokes(lmask_hodge)
    rng = np.random.default_rng(3)
    traj = MildTrajectory(
        grid,
        0.1 * rng.standard_normal((grid.nodes.size, spectrum.dim)),
        0.1 * rng.standard_normal((grid.segments, spectrum.dim)),
    )
    return spectrum, lmask_hodge, build_operators(lmask_hodge.mask), traj


class TestBatchedAudit:
    @pytest.mark.parametrize("case", ["box4", "lmask"])
    def test_strong_residual_matches_per_node_reference(self, request, case, box4_spectrum,
                                                        box4_hodge, box4_ops, small_u0,
                                                        small_solution):
        if case == "box4":
            spectrum, hodge, ops, traj = box4_spectrum, box4_hodge, box4_ops, small_solution
        else:
            spectrum, hodge, ops, traj = request.getfixturevalue("lmask_case")
        u0 = VectorField.from_flat(ops.mask, spectrum.fields @ traj.samples[0])
        report = strong_residual(spectrum, hodge, ops, traj, u0)
        ref, ref_pressures = per_node_strong_residual(spectrum, hodge, ops, traj, 1.0)
        batched = (report.divergence_norms, report.residual_rels, report.gradient_match_rels,
                   report.h_component_norms, report.pressure_consistency_rels,
                   report.convective_l32)
        for got, want in zip(batched, ref):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        pressures = np.array([p.values for p in report.pressures])
        np.testing.assert_allclose(pressures, ref_pressures, rtol=0,
                                   atol=1e-12 * np.abs(ref_pressures).max())
        np.testing.assert_array_equal(report.times, traj.grid.nodes[1:])

    def test_advection_calls(self, monkeypatch, box4_spectrum, box4_hodge, box4_ops,
                             small_u0, small_solution, grid):
        shapes = []

        def counting(ops, xu, xv):
            shapes.append(xu.shape)
            return advect_flat(ops, xu, xv)

        monkeypatch.setattr(mildflow.verify, "advect_flat", counting)
        columns = (3 * box4_ops.mask.n_cells, grid.segments)
        strong_residual(box4_spectrum, box4_hodge, box4_ops, small_solution, small_u0)
        assert shapes == [columns]
        shapes.clear()
        dt = 0.05
        imex_oracle(box4_spectrum, box4_hodge, small_u0, grid, dt)
        # the oracle lands on every multiple of dt up to T = 0.5 and on every node
        steps = np.union1d(dt * np.arange(11), grid.nodes).size - 1
        assert len(shapes) == steps + 1
        assert shapes[-1] == columns

    def test_oracle_node_derivatives(self, box4_spectrum, box4_hodge, small_u0, grid):
        oracle = imex_oracle(box4_spectrum, box4_hodge, small_u0, grid, 0.05)
        for j in range(1, grid.nodes.size):
            x = box4_spectrum.fields @ oracle.samples[j]
            want = (-box4_spectrum.eigenvalues * oracle.samples[j]
                    + modal_forcing(box4_spectrum, x, x))
            np.testing.assert_allclose(oracle.derivative_samples[j - 1], want,
                                       rtol=0, atol=1e-12 * np.abs(want).max())


class TestRecoverPressure:
    def test_pure_gradient_input(self, box4_ops, box4_hodge):
        rng = np.random.default_rng(0)
        q = ScalarField(box4_ops.mask, random_scalar_values(box4_ops.mask, rng))
        w = box4_ops.gradient_of(q)
        result = recover_pressure(box4_hodge, box4_ops, w)
        # canonical representative of -q: its projection onto the row space
        canonical = -box4_hodge.potential(box4_ops.gradient_of(q)).values
        assert np.allclose(result.potential.values, canonical, rtol=1e-10, atol=1e-12)
        assert result.gradient_residual <= 1e-10 * np.linalg.norm(w.values)
        assert result.h_component <= 1e-10 * np.linalg.norm(w.values)

    def test_divergence_free_input(self, box4_hodge, box4_ops):
        rng = np.random.default_rng(1)
        w = box4_hodge.project(random_vector_field(box4_hodge.mask, rng))
        result = recover_pressure(box4_hodge, box4_ops, w)
        scale = np.linalg.norm(w.values)
        assert np.linalg.norm(result.potential.values) <= 1e-10 * scale
        vol = box4_hodge.mask.cell_volume ** 0.5
        assert abs(result.h_component - vol * scale) <= 1e-10 * scale

    def test_random_input_matches_projector_complement(self, box4_hodge, box4_ops):
        rng = np.random.default_rng(2)
        w = random_vector_field(box4_hodge.mask, rng)
        result = recover_pressure(box4_hodge, box4_ops, w)
        grad_p = box4_ops.gradient @ result.potential.values
        complement = -(w.values.reshape(-1) - box4_hodge.project(w).flat)
        assert np.linalg.norm(grad_p - complement) <= 1e-10 * np.linalg.norm(complement)


class TestOracle:
    def test_linear_mode_exact(self, box4_spectrum, box4_hodge, small_u0, grid):
        oracle = imex_oracle(box4_spectrum, box4_hodge, small_u0, grid, 0.05, scale=0.0)
        alpha = alpha_trajectory(box4_spectrum, small_u0, grid)
        assert np.abs(oracle.samples - alpha.samples).max() <= 1e-12

    def test_zero_data(self, box4_spectrum, box4_hodge, grid):
        zero = VectorField.zeros(box4_hodge.mask)
        oracle = imex_oracle(box4_spectrum, box4_hodge, zero, grid, 0.01)
        assert not oracle.samples.any()

    def test_first_order_convergence_to_mild_solution(self, box4_spectrum, box4_hodge,
                                                      small_u0, small_solution, grid):
        ref = np.linalg.norm(small_solution.samples, axis=1).max()
        devs = []
        for dt in (0.01, 0.005, 0.0025):
            oracle = imex_oracle(box4_spectrum, box4_hodge, small_u0, grid, dt)
            devs.append(
                np.linalg.norm(oracle.samples - small_solution.samples, axis=1).max() / ref
            )
        assert devs[-1] <= 1e-3
        ratio = devs[-2] / devs[-1]
        assert 1.4 <= ratio <= 2.6
        assert devs[0] > devs[1] > devs[2]

    def test_invalid_dt(self, box4_spectrum, box4_hodge, small_u0, grid):
        with pytest.raises(ValueError):
            imex_oracle(box4_spectrum, box4_hodge, small_u0, grid, 0.0)

    def test_instability_detected(self, box4_spectrum, box4_hodge, grid):
        huge = box4_hodge.lift(
            500.0 * box4_spectrum.from_modal(np.eye(box4_spectrum.dim)[0])
        )
        with pytest.raises(OracleInstabilityError):
            imex_oracle(box4_spectrum, box4_hodge, huge, grid, 0.05)

    def test_coarse_step_warns(self, box4_spectrum, box4_hodge, small_u0, grid):
        with pytest.warns(UserWarning, match="coarse"):
            imex_oracle(box4_spectrum, box4_hodge, small_u0, grid, 0.5)


class TestEnergyAudit:
    def test_zero_trajectory(self, box4_spectrum, box4_hodge, box4_ops, grid):
        from mildflow import zero_trajectory

        balances = energy_audit(box4_spectrum, box4_ops, zero_trajectory(box4_spectrum, grid))
        assert not balances.any()

    def test_matches_per_node_reference(self, box4_spectrum, box4_ops, small_solution):
        vol = box4_ops.mask.cell_volume
        energies, dissipation = [], []
        for sample in small_solution.samples:
            u = box4_spectrum.fields @ sample
            energies.append(vol * (u @ u))
            dissipation.append(vol * (u @ (box4_ops.laplacian @ u)))
        energies, dissipation = np.array(energies), np.array(dissipation)
        steps = np.diff(small_solution.grid.nodes)
        cumulative = np.cumsum(0.5 * steps * (dissipation[1:] + dissipation[:-1]))
        want = energies - energies[0] + 2.0 * np.concatenate([[0.0], cumulative])
        got = energy_audit(box4_spectrum, box4_ops, small_solution)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * energies.max())

    def test_linear_single_mode_balance_is_quadrature_error(self, box4_spectrum,
                                                            box4_hodge, box4_ops):
        # dissipation exactly cancels the energy drop up to the trapezoid
        # defect, which the closed form bounds by (dt^2/12) * max |g''|
        # with g(s) = 2 lam^2 ||u0||^2 e^{-2 lam s}
        lam = box4_spectrum.eigenvalues[0]
        amp = 0.3
        grid = TimeGrid.graded(0.5, 32, 6)
        u0 = box4_hodge.lift(amp * box4_spectrum.from_modal(np.eye(box4_spectrum.dim)[0]))
        traj = alpha_trajectory(box4_spectrum, u0, grid)
        balances = energy_audit(box4_spectrum, box4_ops, traj)
        energy0 = amp**2
        spacing = np.diff(grid.nodes).max()
        bound = spacing**2 / 12.0 * 8.0 * lam**3 * energy0 * grid.horizon * 1.1
        assert np.abs(balances).max() <= bound

    def test_balance_shrinks_under_time_refinement(self, box4_spectrum, box4_hodge,
                                                   box4_ops, small_u0):
        maxima = []
        for segments in (16, 32):
            g = TimeGrid.graded(0.5, segments, 6)
            traj, _ = picard_solve(
                box4_spectrum, box4_hodge, small_u0, PicardConfig(grid=g, tol=1e-12)
            )
            maxima.append(np.abs(energy_audit(box4_spectrum, box4_ops, traj)).max())
        assert maxima[1] < maxima[0]
