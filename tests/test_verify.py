"""Momentum-equation audit, pressure recovery, oracle, energy balance."""

import numpy as np
import pytest

import mildflow.verify
from mildflow import (
    DomainMask,
    MildTrajectory,
    OracleInstabilityError,
    PicardConfig,
    ScalarField,
    TimeGrid,
    VectorField,
    alpha_trajectory,
    assemble_stokes,
    build_hodge,
    build_operators,
    energy_audit,
    imex_oracle,
    modal_forcing,
    picard_solve,
    strong_residual,
)
from mildflow.convection import advect_flat
from mildflow.domain import vector_lp_norm
from mildflow.verify import oracle_times
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

    def test_midpoint_residual_is_second_order(self, box4_spectrum, box4_hodge, box4_ops,
                                               small_u0):
        # criterion 09's setup: the node residual of a converged iterate sits
        # at the Picard tolerance, and the midpoint residual, the forcing's
        # interpolation error, falls by 4 per segment doubling
        midpoint = []
        for segments in (16, 32, 64):
            g = TimeGrid.graded(0.5, segments, 6)
            traj, _ = picard_solve(
                box4_spectrum, box4_hodge, small_u0, PicardConfig(grid=g, tol=1e-12)
            )
            report = strong_residual(box4_spectrum, box4_hodge, box4_ops, traj, small_u0)
            np.testing.assert_allclose(report.times[segments:], 0.5 * (g.nodes[1:] + g.nodes[:-1]))
            assert report.residual_rels[:segments].max() <= 1e-10
            midpoint.append(report.residual_rels[segments:].max())
        for coarse, fine in zip(midpoint, midpoint[1:]):
            assert 3.5 <= coarse / fine <= 4.5


def midpoint_samples(spectrum, traj, scale):
    """u and u' at the interval midpoints from the mild form on each
    interval: the forcing quadratic from direct kernel calls on the node
    pairs, its convolution by panel quadrature."""
    from mildflow.mild import _convolve

    nodes, lam = traj.grid.nodes, spectrum.eigenvalues
    x = spectrum.fields @ traj.samples.T
    diag = modal_forcing(spectrum, x, x, scale)
    cross = 2.0 * modal_forcing(spectrum, x[:, :-1], x[:, 1:], scale)

    def forcing(s):
        i = np.clip(np.searchsorted(nodes, s, side="right") - 1, 0, nodes.size - 2)
        w = (s - nodes[i]) / (nodes[i + 1] - nodes[i])
        return diag[:, i] * (1 - w) ** 2 + cross[:, i] * (w * (1 - w)) + diag[:, i + 1] * w**2

    mids = 0.5 * (nodes[1:] + nodes[:-1])
    u = np.array([np.exp(-lam * (s - t)) * a + _convolve(lam, s, t, s, nodes, 20, forcing)
                  for t, s, a in zip(nodes, mids, traj.samples)])
    return mids, u, forcing(mids).T - lam * u


def per_column_strong_residual(spectrum, hodge, ops, traj, scale):
    """The strong-residual report fields, one audited time at a time: the
    positive nodes, then the interval midpoints."""
    fields = spectrum.fields
    vol = ops.mask.cell_volume ** 0.5
    mids, u_mid, du_mid = midpoint_samples(spectrum, traj, scale)
    columns = [*zip(traj.grid.nodes[1:], traj.samples[1:], traj.derivative_samples),
               *zip(mids, u_mid, du_mid)]
    rows, pressures = [], []
    for t, a, da in columns:
        u = fields @ a
        du = fields @ da
        lap_u = ops.laplacian @ u
        conv = scale * advect_flat(ops, u, u)
        w = du + lap_u + conv
        denom = vol * (np.linalg.norm(du) + np.linalg.norm(lap_u))
        residual = vol * np.linalg.norm(fields.T @ w)
        p, _, h_component = mildflow.verify._recover_pressures(hodge, w[:, None])
        grad_full = ops.gradient @ p[:, 0] + w
        rows.append((
            vol * np.linalg.norm(ops.divergence @ u),
            residual / denom,
            vol * np.linalg.norm(grad_full) / denom,
            h_component[0],
            abs(h_component[0] - residual) / denom,
            t ** 0.5 * vector_lp_norm(VectorField.from_flat(ops.mask, conv), 1.5),
        ))
        pressures.append(p[:, 0])
    times = np.concatenate([traj.grid.nodes[1:], mids])
    return times, np.array(rows).T, np.array(pressures)


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
    def test_strong_residual_matches_per_column_reference(self, request, case, box4_spectrum,
                                                          box4_hodge, box4_ops, small_u0,
                                                          small_solution):
        if case == "box4":
            spectrum, hodge, ops, traj = box4_spectrum, box4_hodge, box4_ops, small_solution
        else:
            spectrum, hodge, ops, traj = request.getfixturevalue("lmask_case")
        u0 = VectorField.from_flat(ops.mask, spectrum.fields @ traj.samples[0])
        report = strong_residual(spectrum, hodge, ops, traj, u0)
        times, ref, ref_pressures = per_column_strong_residual(spectrum, hodge, ops, traj, 1.0)
        batched = (report.divergence_norms, report.residual_rels, report.gradient_match_rels,
                   report.h_component_norms, report.pressure_consistency_rels,
                   report.convective_l32)
        for got, want in zip(batched, ref):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        pressures = np.array([p.values for p in report.pressures])
        np.testing.assert_allclose(pressures, ref_pressures, rtol=0,
                                   atol=1e-12 * np.abs(ref_pressures).max())
        np.testing.assert_allclose(report.times, times, rtol=1e-15, atol=0)

    def test_advection_calls(self, column_counts, box4_spectrum, box4_hodge, box4_ops,
                             small_u0, small_solution, grid):
        # the audit takes one batched advection over the nodes and the
        # midpoints, plus the self-pair node forcings': one over the N + 1
        # nodes and both orders of the N neighbour pairs; the oracle advects
        # only through the kernel, once per step and once for the node
        # derivatives
        import mildflow.mild

        audit_columns = column_counts(mildflow.verify, "advect_flat")
        kernel_columns = column_counts(mildflow.mild, "advect_flat")
        n = grid.segments
        strong_residual(box4_spectrum, box4_hodge, box4_ops, small_solution, small_u0)
        assert audit_columns == [2 * n]
        assert kernel_columns == [n + 1, n, n]
        audit_columns.clear()
        kernel_columns.clear()
        dt = 0.005
        imex_oracle(box4_spectrum, box4_hodge, small_u0, grid, dt)
        # the oracle lands on every multiple of dt up to T = 0.5 and on every
        # node; each sweep forces one window of its steps in one call
        steps = oracle_times(grid, dt).size - 1
        window = mildflow.verify.WINDOW_STEPS
        assert window < steps < 2 * window
        assert audit_columns == []
        first = kernel_columns.count(window)
        last = kernel_columns.count(steps - window)
        assert first >= 1 and last >= 1
        assert kernel_columns == [window] * first + [steps - window] * last + [n]
        # the small data converge in a few sweeps, far from one call per step
        assert first + last <= 10

    def test_oracle_node_derivatives(self, box4_spectrum, box4_hodge, small_u0, grid):
        oracle = imex_oracle(box4_spectrum, box4_hodge, small_u0, grid, 0.05)
        for j in range(1, grid.nodes.size):
            x = box4_spectrum.fields @ oracle.samples[j]
            want = (-box4_spectrum.eigenvalues * oracle.samples[j]
                    + modal_forcing(box4_spectrum, x, x))
            np.testing.assert_allclose(oracle.derivative_samples[j - 1], want,
                                       rtol=0, atol=1e-12 * np.abs(want).max())


def recover_one(hodge, w):
    """Potential, gradient residual and H component of one field's recovery.

    The gradient residual, the mismatch's part outside H, is the defect of
    the recovery within the gradient subspace."""
    p, mismatch, h_component = mildflow.verify._recover_pressures(hodge, w.flat[:, None])
    mismatch = VectorField.from_flat(hodge.mask, mismatch[:, 0])
    gradient_residual = np.linalg.norm(mismatch.flat - hodge.project(mismatch).flat)
    return p[:, 0], hodge.mask.cell_volume ** 0.5 * gradient_residual, h_component[0]


class TestRecoverPressure:
    def test_pure_gradient_input(self, box4_ops, box4_hodge):
        rng = np.random.default_rng(0)
        q = ScalarField(box4_ops.mask, random_scalar_values(box4_ops.mask, rng))
        w = box4_ops.gradient_of(q)
        p, gradient_residual, h_component = recover_one(box4_hodge, w)
        # canonical representative of -q: its projection onto the row space
        canonical = -box4_hodge.potentials(w.flat[:, None])[:, 0]
        assert np.allclose(p, canonical, rtol=1e-10, atol=1e-12)
        assert gradient_residual <= 1e-10 * np.linalg.norm(w.values)
        assert h_component <= 1e-10 * np.linalg.norm(w.values)

    def test_divergence_free_input(self, box4_hodge, box4_ops):
        rng = np.random.default_rng(1)
        w = box4_hodge.project(random_vector_field(box4_hodge.mask, rng))
        p, _, h_component = recover_one(box4_hodge, w)
        scale = np.linalg.norm(w.values)
        assert np.linalg.norm(p) <= 1e-10 * scale
        vol = box4_hodge.mask.cell_volume ** 0.5
        assert abs(h_component - vol * scale) <= 1e-10 * scale

    def test_random_input_matches_projector_complement(self, box4_hodge, box4_ops):
        rng = np.random.default_rng(2)
        w = random_vector_field(box4_hodge.mask, rng)
        grad_p = box4_ops.gradient @ recover_one(box4_hodge, w)[0]
        complement = -(w.values.reshape(-1) - box4_hodge.project(w).flat)
        assert np.linalg.norm(grad_p - complement) <= 1e-10 * np.linalg.norm(complement)


def sequential_oracle(spectrum, u0, grid, dt):
    """The exponential-Euler march step by step, sampled at the grid nodes."""
    times = oracle_times(grid, dt)
    lam = spectrum.eigenvalues
    a = spectrum.project(u0.flat)
    states = [a]
    for h in np.diff(times):
        decay = np.exp(-h * lam)
        x = spectrum.lift(a)
        a = decay * a + (1.0 - decay) / lam * modal_forcing(spectrum, x, x)
        states.append(a)
    return times, np.array(states)[np.searchsorted(times, grid.nodes)]


def criterion_10_data(spectrum, hodge, amplitude):
    modal = np.zeros(spectrum.dim)
    modal[0], modal[3], modal[7] = 1.0, 0.6, -0.4
    return hodge.lift(amplitude * spectrum.from_modal(modal / np.linalg.norm(modal)))


@pytest.fixture(scope="module")
def box8_case():
    """The ``mild_box8`` benchmark's oracle input at seed 1: the 8^3 box, its
    random data at amplitude 6 smoothed by e^{-0.02 A}, its grid and dt."""
    hodge = build_hodge(build_operators(DomainMask((8, 8, 8), 1 / 8, np.ones((8, 8, 8), bool))))
    spectrum = assemble_stokes(hodge)
    coords = hodge.coords(np.random.default_rng(2).standard_normal(3 * hodge.mask.n_cells))
    coords *= 6.0 / (hodge.mask.cell_volume ** 0.5 * np.linalg.norm(coords))
    modal = np.exp(-0.02 * spectrum.eigenvalues) * spectrum.to_modal(coords)
    u0 = VectorField.from_flat(hodge.mask, spectrum.lift(modal))
    return spectrum, hodge, u0, TimeGrid.graded(0.5, 24, 6), 2.5e-4


class TestOracle:
    # the tests of the window solver's exactness sweep in float64, where the
    # stop rule is "below round-off"; test_float32_sweeps_match_float64 ties
    # the default float32 sweeps to them

    @pytest.mark.parametrize("tolerance", [None, 0.0], ids=["stop_rule", "to_cap"])
    @pytest.mark.parametrize("case", ["box4", "lmask"])
    def test_matches_sequential_loop(self, monkeypatch, request, case, tolerance,
                                     box4_spectrum, box4_hodge):
        # 141 steps of 43 distinct lengths: windows end at step 64 on a node,
        # at step 128 between nodes and at the horizon
        if case == "box4":
            spectrum, hodge = box4_spectrum, box4_hodge
        else:
            spectrum, hodge = request.getfixturevalue("lmask_case")[:2]
        monkeypatch.setattr(mildflow.verify, "SWEEP_DTYPE", np.float64)
        if tolerance is not None:  # every window sweeps until no bit moves
            monkeypatch.setattr(mildflow.verify, "SWEEP_TOLERANCE", tolerance)
        grid, dt = TimeGrid.graded(0.5, 20, 6), 0.0041
        u0 = criterion_10_data(spectrum, hodge, 3.0)
        times, want = sequential_oracle(spectrum, u0, grid, dt)
        window = mildflow.verify.WINDOW_STEPS
        assert times.size - 1 > 2 * window
        assert np.unique(np.diff(times)).size > 2
        on_node = np.isin(times[window::window], grid.nodes)
        assert on_node.any() and not on_node.all()
        got = imex_oracle(spectrum, hodge, u0, grid, dt).samples
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_windows_stop_on_the_predicted_move(self, monkeypatch, box4_spectrum, box4_hodge,
                                                small_u0):
        # the small data decay over T = 10: 7 windows of 64 steps, each
        # sweep one kernel call whose first column is the window's fixed
        # first state; the q = 1 rule sweeps 5, 4, 3, 3, 2, 2, 2 times
        monkeypatch.setattr(mildflow.verify, "SWEEP_DTYPE", np.float64)
        grid, dt = TimeGrid.graded(10.0, 24, 6), 0.025
        want = sequential_oracle(box4_spectrum, small_u0, grid, dt)[1]
        firsts = []
        real = mildflow.mild.advect_flat

        def recording(ops, xu, xv):
            firsts.append(xu[:, 0].copy())
            return real(ops, xu, xv)

        monkeypatch.setattr(mildflow.mild, "advect_flat", recording)
        got = imex_oracle(box4_spectrum, box4_hodge, small_u0, grid, dt).samples
        sweeps = [1]
        for before, after in zip(firsts[:-2], firsts[1:-1]):  # the last call: node derivatives
            if np.array_equal(before, after):
                sweeps[-1] += 1
            else:
                sweeps.append(1)
        assert len(sweeps) == -(-(oracle_times(grid, dt).size - 1) // mildflow.verify.WINDOW_STEPS)
        # nothing is carried into the first window; a decayed one needs no
        # confirming sweep
        assert sweeps[0] >= 2
        assert 1 in sweeps[1:]
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_growing_early_moves_match_sequential_loop(self, monkeypatch, lmask_case):
        # criterion 10's data on the L-mask at amplitude 100: the first moves
        # of later windows grow, so the carried factor must scale up with them
        monkeypatch.setattr(mildflow.verify, "SWEEP_DTYPE", np.float64)
        spectrum, hodge = lmask_case[:2]
        grid, dt = TimeGrid.graded(0.5, 32, 6), 0.001
        u0 = criterion_10_data(spectrum, hodge, 100.0)
        want = sequential_oracle(spectrum, u0, grid, dt)[1]
        got = imex_oracle(spectrum, hodge, u0, grid, dt).samples
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("case, amplitude, segments, dt", [
        ("box4", 3.0, 20, 0.0041), ("lmask", 3.0, 20, 0.0041),
        ("box4", 100.0, 32, 0.001), ("lmask", 100.0, 32, 0.001), ("box8", None, 24, 2.5e-4),
    ], ids=["box4", "lmask", "box4_amp100", "lmask_amp100", "box8"])
    def test_float32_sweeps_match_float64(self, monkeypatch, request, case, amplitude,
                                          segments, dt, box4_spectrum, box4_hodge):
        # the default sweeps force in float32 and stop at eps32: the result
        # stays within 1e-6 of the float64 sweeps' norm (about 2e-7 here)
        if case == "box8":
            spectrum, hodge, u0 = request.getfixturevalue("box8_case")[:3]
        else:
            spectrum, hodge = ((box4_spectrum, box4_hodge) if case == "box4"
                               else request.getfixturevalue("lmask_case")[:2])
            u0 = criterion_10_data(spectrum, hodge, amplitude)
        grid = TimeGrid.graded(0.5, segments, 6)
        assert mildflow.verify.SWEEP_DTYPE is np.float32
        low = imex_oracle(spectrum, hodge, u0, grid, dt).samples
        monkeypatch.setattr(mildflow.verify, "SWEEP_DTYPE", np.float64)
        want = imex_oracle(spectrum, hodge, u0, grid, dt).samples
        ref = np.linalg.norm(want, axis=1).max()
        assert low.dtype == np.float64
        assert np.array_equal(low[0], want[0])
        assert np.linalg.norm(low - want, axis=1).max() <= 1e-6 * ref

    @pytest.mark.parametrize("c", [1e-15, 1e15])
    def test_sweeps_keep_their_range_at_any_spacing(self, c, box4_spectrum, box4_hodge):
        # the parabolic image of criterion 10's box4 run: spacing c h, data
        # over c, times and dt c^2 times.  Unscaled float32 forcing overflows
        # to inf at c = 1e-15 (about 1e46) and goes subnormal at c = 1e15
        # (about 1e-44); the image must be the run's own field over c
        u0 = criterion_10_data(box4_spectrum, box4_hodge, 3.0)
        want = box4_spectrum.lift(imex_oracle(box4_spectrum, box4_hodge, u0,
                                              TimeGrid.graded(0.5, 20, 6), 0.0041).samples.T)
        mask = box4_hodge.mask
        hodge = build_hodge(build_operators(DomainMask(mask.dims, c * mask.spacing,
                                                       mask.occupancy)))
        spectrum = assemble_stokes(hodge)
        image = imex_oracle(spectrum, hodge, VectorField.from_flat(hodge.mask, u0.flat / c),
                            TimeGrid.graded(c**2 * 0.5, 20, 6), c**2 * 0.0041).samples
        got = c * spectrum.lift(image.T)
        assert np.isfinite(got).all()
        ref = np.linalg.norm(want, axis=0).max()
        assert np.linalg.norm(got - want, axis=0).max() <= 1e-6 * ref

    def test_sweeps_force_in_float32(self, monkeypatch, box4_spectrum, box4_hodge, small_u0,
                                     grid):
        # every sweep's kernel call runs on float32 states; the last call,
        # the node derivatives, runs in float64 on the given spectrum
        dtypes, real = [], mildflow.mild.advect_flat

        def recording(ops, xu, xv):
            dtypes.append((xu.dtype, ops.gradient.dtype))
            return real(ops, xu, xv)

        monkeypatch.setattr(mildflow.mild, "advect_flat", recording)
        imex_oracle(box4_spectrum, box4_hodge, small_u0, grid, 0.01)
        assert len(dtypes) > 2
        assert set(dtypes[:-1]) == {(np.dtype(np.float32),) * 2}
        assert dtypes[-1] == (np.float64, np.float64)

    @pytest.mark.parametrize("dt", [0.01, 0.005, 0.0025])
    def test_times_merge_round_off_into_nodes(self, dt):
        # on criterion 11's grid, t_j = j^2 / 800, some multiples of dt are
        # nodes up to round-off; each must be one time, not two a sliver apart
        grid = TimeGrid.graded(0.5, 20, 6)
        times = oracle_times(grid, dt)
        assert np.isin(grid.nodes, times).all()
        assert np.diff(times).min() >= 1e-9 * dt
        multiples = dt * np.arange(round(grid.horizon / dt) + 1)
        assert np.abs(multiples[:, None] - times).min(axis=1).max() <= 1e-9 * dt

    @pytest.mark.filterwarnings("error")
    def test_blow_up_raises_at_the_sequential_step(self, box4_spectrum, box4_hodge):
        # criterion 10's data at amplitude 300: the sequential march passes
        # the growth limit at t = 0.18; the sweeps that find that step meet
        # iterates beyond the limit first, and none of them may overflow
        u0 = criterion_10_data(box4_spectrum, box4_hodge, 300.0)
        with pytest.raises(OracleInstabilityError,
                           match=r"^oracle norm grew beyond 1e\+03 x initial at t=0\.18$"):
            imex_oracle(box4_spectrum, box4_hodge, u0, TimeGrid.graded(0.5, 32, 6), 0.01)

    def test_linear_mode_exact(self, box4_spectrum, box4_hodge, small_u0, grid):
        oracle = imex_oracle(box4_spectrum, box4_hodge, small_u0, grid, 0.05, scale=0.0)
        alpha = alpha_trajectory(box4_spectrum, small_u0, grid)
        assert np.abs(oracle.samples - alpha.samples).max() <= 1e-12

    @pytest.mark.filterwarnings("error")
    def test_zero_data(self, box4_spectrum, box4_hodge, grid):
        zero = VectorField.zeros(box4_hodge.mask)
        oracle = imex_oracle(box4_spectrum, box4_hodge, zero, grid, 0.01)
        assert not oracle.samples.any()

    @pytest.mark.filterwarnings("error")
    def test_zero_data_sweeps_each_window_once(self, column_counts, box4_spectrum, box4_hodge):
        # no sweep moves a zero state, so each window stops after one
        # kernel call; one more forces the node derivatives
        grid, dt = TimeGrid.graded(10.0, 24, 6), 0.025
        kernel_columns = column_counts(mildflow.mild, "advect_flat")
        imex_oracle(box4_spectrum, box4_hodge, VectorField.zeros(box4_hodge.mask), grid, dt)
        windows = -(-(oracle_times(grid, dt).size - 1) // mildflow.verify.WINDOW_STEPS)
        assert windows > 1
        assert len(kernel_columns) == windows + 1

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

    def test_non_finite_state_raises(self, box4_spectrum, box4_hodge, small_u0, grid):
        # a NaN norm is not above the limit, but it is not within it either
        u0 = VectorField.from_flat(box4_hodge.mask, small_u0.flat.copy())
        u0.flat[0] = np.nan
        with pytest.raises(OracleInstabilityError, match=f"at t={grid.nodes[1]:.3g}$"):
            imex_oracle(box4_spectrum, box4_hodge, u0, grid, 0.05)

    def test_coarse_step_warns(self, box4_spectrum, box4_hodge, small_u0, grid):
        with pytest.warns(UserWarning, match="coarse"):
            imex_oracle(box4_spectrum, box4_hodge, small_u0, grid, 0.5)


class TestEnergyAudit:
    def test_zero_trajectory(self, box4_spectrum, grid):
        from mildflow import zero_trajectory

        balances = energy_audit(box4_spectrum, zero_trajectory(box4_spectrum, grid))
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
        got = energy_audit(box4_spectrum, small_solution)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * energies.max())

    def test_linear_single_mode_balance_is_quadrature_error(self, box4_spectrum, box4_hodge):
        # dissipation exactly cancels the energy drop up to the trapezoid
        # defect, which the closed form bounds by (dt^2/12) * max |g''|
        # with g(s) = 2 lam^2 ||u0||^2 e^{-2 lam s}
        lam = box4_spectrum.eigenvalues[0]
        amp = 0.3
        grid = TimeGrid.graded(0.5, 32, 6)
        u0 = box4_hodge.lift(amp * box4_spectrum.from_modal(np.eye(box4_spectrum.dim)[0]))
        traj = alpha_trajectory(box4_spectrum, u0, grid)
        balances = energy_audit(box4_spectrum, traj)
        energy0 = amp**2
        spacing = np.diff(grid.nodes).max()
        bound = spacing**2 / 12.0 * 8.0 * lam**3 * energy0 * grid.horizon * 1.1
        assert np.abs(balances).max() <= bound

    def test_balance_shrinks_under_time_refinement(self, box4_spectrum, box4_hodge, small_u0):
        maxima = []
        for segments in (16, 32):
            g = TimeGrid.graded(0.5, segments, 6)
            traj, _ = picard_solve(
                box4_spectrum, box4_hodge, small_u0, PicardConfig(grid=g, tol=1e-12)
            )
            maxima.append(np.abs(energy_audit(box4_spectrum, traj)).max())
        assert maxima[1] < maxima[0]
