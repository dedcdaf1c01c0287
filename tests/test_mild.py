"""Trajectory space, semigroup convolution, smallness gate, Picard iteration."""

import numpy as np
import pytest

from mildflow import (
    GateUnreachableError,
    MildTrajectory,
    PicardConfig,
    PicardDivergenceError,
    TimeGrid,
    VectorField,
    alpha_from_coords,
    alpha_trajectory,
    apply_semigroup,
    combine_trajectories,
    convolve_semigroup,
    estimate_phi_norm,
    et_norm,
    modal_forcing,
    phi,
    picard_solve,
    shrink_horizon,
    smallness_gate,
    zero_trajectory,
)


@pytest.fixture(scope="module")
def grid():
    return TimeGrid.graded(0.5, 20, 6)


def _mode_field(spectrum, k, amplitude=1.0):
    u = spectrum.eigenfield(k)
    return VectorField(u.mask, amplitude * u.values)


class TestTimeGrid:
    def test_graded_layout(self):
        g = TimeGrid.graded(2.0, 8)
        assert g.nodes[0] == 0.0 and g.nodes[-1] == 2.0
        assert np.allclose(g.nodes, 2.0 * (np.arange(9) / 8.0) ** 2)
        # grading: early spacing much finer than late spacing
        assert np.diff(g.nodes)[0] < np.diff(g.nodes)[-1] / 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid.graded(1.0, 1)  # fewer than two intervals
        with pytest.raises(ValueError):
            TimeGrid(1.0, np.array([0.0, 0.5, 0.4, 1.0]))
        with pytest.raises(ValueError):
            TimeGrid(1.0, np.array([0.1, 0.5, 1.0]))
        with pytest.raises(ValueError):
            TimeGrid.graded(1.0, 8, quad_order=0)

    def test_scaled_preserves_layout(self):
        g = TimeGrid.graded(1.0, 10, 4)
        s = g.scaled(0.25)
        assert s.horizon == 0.25
        assert np.allclose(s.nodes, g.nodes * 0.25)
        assert s.quad_order == 4


class TestAlphaTrajectory:
    def test_zero_data(self, box4_spectrum, grid):
        traj = alpha_trajectory(box4_spectrum, VectorField.zeros(box4_spectrum.hodge.mask), grid)
        assert et_norm(box4_spectrum, traj).total == 0.0

    def test_single_mode_samples(self, box4_spectrum, grid):
        k = 2
        lam = box4_spectrum.eigenvalues[k]
        traj = alpha_trajectory(box4_spectrum, _mode_field(box4_spectrum, k), grid)
        coords0 = box4_spectrum.hodge.coords(_mode_field(box4_spectrum, k))
        for j in (0, 5, grid.segments):
            expected = np.exp(-lam * grid.nodes[j]) * coords0
            sample = box4_spectrum.from_modal(traj.samples[j])
            assert np.allclose(sample, expected, rtol=1e-12, atol=1e-14)
        norms = et_norm(box4_spectrum, traj)
        assert norms.sup_quarter == pytest.approx(lam**0.25, rel=1e-12)

    def test_single_mode_derivative_bound(self, box4_spectrum, grid):
        k = 5
        lam = box4_spectrum.eigenvalues[k]
        traj = alpha_trajectory(box4_spectrum, _mode_field(box4_spectrum, k), grid)
        norms = et_norm(box4_spectrum, traj)
        # scalar maximization oracle over the grid nodes
        t = grid.nodes[1:]
        manual = np.max(t * lam**1.25 * np.exp(-lam * t))
        assert norms.sup_deriv_weighted == pytest.approx(manual, rel=1e-12)
        assert norms.sup_deriv_weighted <= (1.0 / np.e) * lam**0.25 + 1e-15

    def test_samples_lift_to_semigroup_orbit(self, box4_spectrum, box4_hodge, grid):
        # modal samples lifted through the eigenfields are the semigroup
        # orbit of the Z coordinates lifted through the Hodge basis
        c = np.random.default_rng(6).standard_normal(box4_spectrum.dim)
        alpha = alpha_from_coords(box4_spectrum, c, grid)
        for j, t in enumerate(grid.nodes):
            lifted = box4_spectrum.fields @ alpha.samples[j]
            expected = box4_hodge.basis @ apply_semigroup(box4_spectrum, t)(c)
            assert np.abs(lifted - expected).max() <= 1e-12

    def test_projection_warning(self, box4_ops, box4_spectrum, grid):
        rng = np.random.default_rng(0)
        from mildflow import ScalarField

        p = ScalarField(box4_ops.mask, rng.standard_normal(box4_ops.mask.n_cells))
        u0 = box4_ops.gradient_of(p)  # pure gradient: projection removes it all
        with pytest.warns(UserWarning, match="gradient component"):
            alpha_trajectory(box4_spectrum, u0, grid)


class TestEtNorm:
    def test_zero(self, box4_spectrum, grid):
        assert et_norm(box4_spectrum, zero_trajectory(box4_spectrum, grid)).total == 0.0

    def test_naive_recompute(self, box4_spectrum, grid):
        rng = np.random.default_rng(1)
        m = box4_spectrum.dim
        traj = alpha_from_coords(box4_spectrum, rng.standard_normal(m), grid)
        norms = et_norm(box4_spectrum, traj)
        lam = box4_spectrum.eigenvalues
        vol = box4_spectrum.hodge.mask.cell_volume ** 0.5
        sup_q = sup_h = sup_d = 0.0
        for j, t in enumerate(grid.nodes):
            modal = traj.samples[j]
            sup_q = max(sup_q, vol * np.linalg.norm(lam**0.25 * modal))
            if j > 0:
                sup_h = max(sup_h, t**0.25 * vol * np.linalg.norm(lam**0.5 * modal))
                dmodal = traj.derivative_samples[j - 1]
                sup_d = max(sup_d, t * vol * np.linalg.norm(lam**0.25 * dmodal))
        assert norms.sup_quarter == pytest.approx(sup_q, rel=1e-13)
        assert norms.sup_half_weighted == pytest.approx(sup_h, rel=1e-13)
        assert norms.sup_deriv_weighted == pytest.approx(sup_d, rel=1e-13)
        assert norms.total == pytest.approx(sup_q + sup_h + sup_d, rel=1e-13)


class TestConvolution:
    def test_constant_forcing_closed_form(self, box4_spectrum, grid):
        # time-independent forcing integrates to A^{-1}(I - e^{-tA}) g
        rng = np.random.default_rng(2)
        lam = box4_spectrum.eigenvalues
        g = rng.standard_normal(lam.size)
        values = convolve_semigroup(
            box4_spectrum, grid, lambda s: np.tile(g[:, None], (1, s.size))
        )
        for j in range(1, grid.nodes.size):
            t = grid.nodes[j]
            exact = (1.0 - np.exp(-t * lam)) / lam * g
            err = np.linalg.norm(values[j] - exact) / np.linalg.norm(exact)
            assert err <= 1e-6

    def test_error_decreases_with_order(self, box4_spectrum):
        coarse = TimeGrid.graded(0.5, 20, 3)
        lam = box4_spectrum.eigenvalues
        g = np.ones(lam.size)

        def worst(order):
            values = convolve_semigroup(
                box4_spectrum, coarse, lambda s: np.tile(g[:, None], (1, s.size)), order
            )
            errs = []
            for j in range(1, coarse.nodes.size):
                t = coarse.nodes[j]
                exact = (1.0 - np.exp(-t * lam)) / lam * g
                errs.append(np.linalg.norm(values[j] - exact) / np.linalg.norm(exact))
            return max(errs)

        e3, e6 = worst(3), worst(6)
        assert e6 < e3

    @pytest.mark.parametrize("order, tol", [(6, 1e-6), (12, 1e-10)])
    def test_subinterval_constant_forcing_closed_form(self, box4_spectrum, grid, order, tol):
        # int_a^b e^{-(t-s)A} g ds = (e^{-(t-b)A} - e^{-(t-a)A}) A^{-1} g on
        # both halves [0, t/2] and [t/2, t] of every node, the panels that
        # Phi's derivative integrates over
        from mildflow.mild import _convolve

        lam = box4_spectrum.eigenvalues
        g = np.random.default_rng(14).standard_normal(lam.size)
        nodes = grid.nodes
        worst = 0.0
        for t in nodes[1:]:
            for a, b in ((0.0, 0.5 * t), (0.5 * t, t)):
                got = _convolve(lam, t, a, b, nodes, order,
                                lambda s: np.tile(g[:, None], (1, s.size)))
                exact = (np.exp(-lam * (t - b)) - np.exp(-lam * (t - a))) / lam * g
                worst = max(worst, np.linalg.norm(got - exact) / np.linalg.norm(exact))
        assert worst <= tol


class TestMoments:
    def test_against_mpmath(self):
        # mu_k(x) = int_0^1 e^{-x(1-w)} w^k dw at x = z w* for partial
        # interval fractions w*, across the series / closed-form switch
        mpmath = pytest.importorskip("mpmath")
        from mildflow.mild import _SERIES_BELOW, _moments

        cut = _SERIES_BELOW
        zs = [0.0, 1e-12, 1e-8, 1e-4, 0.1, 0.5, cut - 1e-9, cut, cut + 1e-9,
              2.0, 10.0, 100.0, 1e3]
        xs = np.array([z * w for z in zs for w in (1e-3, 0.3, 0.7, 1.0)])
        got = _moments(xs)
        with mpmath.workdps(30):
            for x, mu in zip(xs, got.T):
                for k in range(3):
                    want = float(mpmath.quad(
                        lambda y: mpmath.exp(-mpmath.mpf(x) * (1 - y)) * y**k, [0, 1]))
                    assert abs(mu[k] - want) <= 1e-14 * want


class TestPhi:
    def test_zero_operand(self, box4_spectrum, box4_hodge, grid):
        rng = np.random.default_rng(3)
        v = alpha_from_coords(box4_spectrum, rng.standard_normal(box4_spectrum.dim), grid)
        image = phi(box4_spectrum, box4_hodge, zero_trajectory(box4_spectrum, grid), v)
        assert et_norm(box4_spectrum, image).total <= 1e-14

    def test_symmetry(self, box4_spectrum, box4_hodge, grid):
        rng = np.random.default_rng(4)
        u = alpha_from_coords(box4_spectrum, rng.standard_normal(box4_spectrum.dim), grid)
        v = alpha_from_coords(box4_spectrum, rng.standard_normal(box4_spectrum.dim), grid)
        uv = phi(box4_spectrum, box4_hodge, u, v)
        vu = phi(box4_spectrum, box4_hodge, v, u)
        diff = et_norm(box4_spectrum, combine_trajectories(1.0, uv, -1.0, vu)).total
        assert diff <= 1e-10 * et_norm(box4_spectrum, uv).total

    def test_bilinearity(self, box4_spectrum, box4_hodge, grid):
        rng = np.random.default_rng(5)
        m = box4_spectrum.dim
        u = alpha_from_coords(box4_spectrum, rng.standard_normal(m), grid)
        w = alpha_from_coords(box4_spectrum, rng.standard_normal(m), grid)
        v = alpha_from_coords(box4_spectrum, rng.standard_normal(m), grid)
        a, b = 0.7, -1.3
        left = phi(box4_spectrum, box4_hodge, combine_trajectories(a, u, b, w), v)
        right = combine_trajectories(
            a,
            phi(box4_spectrum, box4_hodge, u, v),
            b,
            phi(box4_spectrum, box4_hodge, w, v),
        )
        diff = et_norm(box4_spectrum, combine_trajectories(1.0, left, -1.0, right)).total
        assert diff <= 1e-10 * max(et_norm(box4_spectrum, left).total, 1e-30)

    def test_node_pair_forcing_matches_direct_kernel(self, box4_spectrum, grid):
        # the quadratic in node-pair forcings equals the kernel evaluated on
        # the lifted linear interpolants, derivative samples held at their
        # t_1 value below t_1
        from mildflow.mild import _interpolate, _node_pair_forcings

        rng = np.random.default_rng(12)
        m = box4_spectrum.dim
        nodes = grid.nodes
        u, v = (
            MildTrajectory(grid, rng.standard_normal((nodes.size, m)),
                           rng.standard_normal((nodes.size - 1, m)))
            for _ in range(2)
        )
        scale = 0.8

        def node_fields(traj):
            held = np.vstack([traj.derivative_samples[:1], traj.derivative_samples])
            return box4_spectrum.fields @ traj.samples.T, box4_spectrum.fields @ held.T

        (nu, ndu), (nv, ndv) = node_fields(u), node_fields(v)
        value_pairs = _node_pair_forcings(box4_spectrum, [(nu, nv)], scale)
        deriv_pairs = _node_pair_forcings(box4_spectrum, [(ndu, nv), (nu, ndv)], scale)
        times = np.concatenate([rng.uniform(0.0, grid.horizon, 6), nodes[[2, 7]],
                                [0.0, 0.3 * nodes[1], grid.horizon]])

        def lifted(values, knots, s):
            return box4_spectrum.fields @ np.array([np.interp(s, knots, c) for c in values.T])

        for s in times:
            xu, xv = lifted(u.samples, nodes, s), lifted(v.samples, nodes, s)
            xdu = lifted(u.derivative_samples, nodes[1:], s)
            xdv = lifted(v.derivative_samples, nodes[1:], s)
            value = modal_forcing(box4_spectrum, xu, xv, scale)
            deriv = (modal_forcing(box4_spectrum, xdu, xv, scale)
                     + modal_forcing(box4_spectrum, xu, xdv, scale))
            for got, want in ((_interpolate(nodes, *value_pairs, s)[0], value),
                              (_interpolate(nodes, *deriv_pairs, s)[0], deriv)):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("order", [2, 8])
    def test_forcing_work_per_phi_call(self, box4_spectrum, box4_hodge, order, monkeypatch):
        # node-pair forcings: six advections (value; u'v and uv'), each on
        # 3N + 1 node pairs, whatever the quadrature
        import mildflow.mild as mild_mod

        columns = []
        real_advect = mild_mod.advect_flat

        def counting_advect(ops, xu, xv):
            columns.append(xu.shape[1])
            return real_advect(ops, xu, xv)

        monkeypatch.setattr(mild_mod, "advect_flat", counting_advect)
        segments = 20
        grid = TimeGrid.graded(0.5, segments, order)
        rng = np.random.default_rng(13)
        u = alpha_from_coords(box4_spectrum, rng.standard_normal(box4_spectrum.dim), grid)
        phi(box4_spectrum, box4_hodge, u, u)
        assert columns == [3 * segments + 1] * 6

    def test_derivative_forcing_is_projected_once(self, box4_spectrum, box4_hodge, grid,
                                                  monkeypatch):
        # f' = B(u', v) + B(u, v') sums its raw advections before its one
        # projection: two projections per Phi, and the same Phi to round-off
        # as projecting each operand pair on its own
        import mildflow.mild as mild_mod

        rng = np.random.default_rng(17)
        u, v = (alpha_from_coords(box4_spectrum, rng.standard_normal(box4_spectrum.dim), grid)
                for _ in range(2))
        real_forcing = mild_mod.modal_forcing
        calls = []

        def counting_forcing(*args, **kwargs):
            calls.append(args)
            return real_forcing(*args, **kwargs)

        monkeypatch.setattr(mild_mod, "modal_forcing", counting_forcing)
        summed = phi(box4_spectrum, box4_hodge, u, v)
        assert len(calls) == 2

        def separate_projections(spectrum, xa, xb, scale=1.0, more=()):
            return sum(real_forcing(spectrum, a, b, scale) for a, b in [(xa, xb), *more])

        monkeypatch.setattr(mild_mod, "modal_forcing", separate_projections)
        reference = phi(box4_spectrum, box4_hodge, u, v)
        for got, want in ((summed.samples, reference.samples),
                          (summed.derivative_samples, reference.derivative_samples)):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("hodge_fixture", ["box4_hodge", "lmask_hodge"])
    def test_exact_integration_matches_quadrature(self, hodge_fixture, request):
        # Phi integrates its piecewise-quadratic node-pair forcing exactly;
        # the panel quadrature of the same forcing, values and split-form
        # derivative, converges to it
        from mildflow import assemble_stokes
        from mildflow.mild import _convolve

        hodge = request.getfixturevalue(hodge_fixture)
        spectrum = assemble_stokes(hodge)
        rng = np.random.default_rng(15)
        m, lam, scale = spectrum.dim, spectrum.eigenvalues, 0.8
        grid = TimeGrid.graded(0.5, 20, 6)
        nodes = grid.nodes
        u, v = (MildTrajectory(grid, rng.standard_normal((nodes.size, m)),
                               rng.standard_normal((nodes.size - 1, m)))
                for _ in range(2))
        image = phi(spectrum, hodge, u, v, scale)

        def lift(traj):
            held = np.vstack([traj.derivative_samples[:1], traj.derivative_samples])
            return spectrum.fields @ traj.samples.T, spectrum.fields @ held.T

        def quadratic(pairs):
            diag = sum(modal_forcing(spectrum, a, b, scale) for a, b in pairs)
            cross = sum(modal_forcing(spectrum, a[:, :-1], b[:, 1:], scale)
                        + modal_forcing(spectrum, a[:, 1:], b[:, :-1], scale) for a, b in pairs)

            def forcing(s):
                i = np.clip(np.searchsorted(nodes, s, side="right") - 1, 0, nodes.size - 2)
                w = (s - nodes[i]) / (nodes[i + 1] - nodes[i])
                return (diag[:, i] * (1 - w) ** 2 + cross[:, i] * (w * (1 - w))
                        + diag[:, i + 1] * w**2)

            return forcing

        (xu, xdu), (xv, xdv) = lift(u), lift(v)
        f = quadratic([(xu, xv)])
        df = quadratic([(xdu, xv), (xu, xdv)])
        for order, tol in ((20, 1e-12), (12, 1e-10)):
            values = convolve_semigroup(spectrum, grid, f, order)
            deriv = np.array([
                np.exp(-0.5 * t * lam) * f(np.array([0.5 * t]))[:, 0]
                + _convolve(lam, t, 0.5 * t, t, nodes, order, df)
                - lam * _convolve(lam, t, 0.0, 0.5 * t, nodes, order, f)
                for t in nodes[1:]
            ])
            for got, want in ((image.samples, values), (image.derivative_samples, deriv)):
                assert np.abs(got - want).max() <= tol * np.abs(want).max()

    def test_independent_of_quad_order(self, box4_spectrum, box4_hodge, monkeypatch):
        # the quadrature order only sets the reference quadrature; Phi
        # never builds a panel
        import mildflow.mild as mild_mod

        def no_panels(*args):
            raise AssertionError("phi used the panel quadrature")

        monkeypatch.setattr(mild_mod, "_panel_quadrature", no_panels)
        rng = np.random.default_rng(16)
        coords = rng.standard_normal((2, box4_spectrum.dim))
        images = []
        for order in (2, 8):
            grid = TimeGrid.graded(0.5, 20, order)
            u, v = (alpha_from_coords(box4_spectrum, c, grid) for c in coords)
            images.append(phi(box4_spectrum, box4_hodge, u, v))
        assert np.array_equal(images[0].samples, images[1].samples)
        assert np.array_equal(images[0].derivative_samples, images[1].derivative_samples)

    def test_grid_mismatch(self, box4_spectrum, box4_hodge, grid):
        other = TimeGrid.graded(0.5, 10, 6)
        with pytest.raises(ValueError):
            phi(
                box4_spectrum,
                box4_hodge,
                zero_trajectory(box4_spectrum, grid),
                zero_trajectory(box4_spectrum, other),
            )


class TestPhiNormEstimate:
    def test_positive_and_monotone(self, box4_spectrum, box4_hodge, grid):
        small = estimate_phi_norm(box4_spectrum, box4_hodge, grid, trials=2, seed=11)
        large = estimate_phi_norm(box4_spectrum, box4_hodge, grid, trials=4, seed=11)
        assert small > 0.0
        assert large >= small

    def test_deterministic(self, box4_spectrum, box4_hodge, grid):
        a = estimate_phi_norm(box4_spectrum, box4_hodge, grid, trials=3, seed=12)
        b = estimate_phi_norm(box4_spectrum, box4_hodge, grid, trials=3, seed=12)
        assert a == b

    def test_horizon_insensitivity(self, box4_spectrum, box4_hodge, grid):
        # the continuum operator norm does not depend on the horizon; the
        # sampled estimate is checked to drift by no more than 20%
        est_full = estimate_phi_norm(box4_spectrum, box4_hodge, grid, trials=6, seed=13)
        est_half = estimate_phi_norm(
            box4_spectrum, box4_hodge, grid.scaled(grid.horizon / 2.0), trials=6, seed=13
        )
        assert abs(est_full - est_half) <= 0.2 * max(est_full, est_half)


class TestSmallnessGate:
    def test_zero_alpha_passes(self, box4_spectrum, grid):
        norms = et_norm(box4_spectrum, zero_trajectory(box4_spectrum, grid))
        assert smallness_gate(norms, 2.0)

    def test_boundary_is_strict(self):
        from mildflow import ETNorms

        norms = ETNorms(0.125, 0.0, 0.0)
        assert not smallness_gate(norms, 2.0)  # 0.125 == 1/(4*2) exactly

    def test_arithmetic(self):
        from mildflow import ETNorms

        assert smallness_gate(ETNorms(0.1, 0.0, 0.0), 2.0)  # 0.1 < 0.125

    def test_invalid_phi_norm(self):
        from mildflow import ETNorms

        with pytest.raises(ValueError):
            smallness_gate(ETNorms(0.1, 0.0, 0.0), 0.0)


class TestShrinkHorizon:
    def test_small_data_returned_unchanged(self, box4_spectrum, grid):
        u0 = _mode_field(box4_spectrum, 0, 1e-3)
        result = shrink_horizon(box4_spectrum, u0, 2.0, grid, [0.1, 0.2])
        assert result.horizon == grid.horizon
        assert result.eps == 0.0
        assert not result.attempts
        assert np.allclose(result.u0_smooth.values, u0.values)

    def test_empty_schedule_fails(self, box4_spectrum, grid):
        u0 = _mode_field(box4_spectrum, 0, 100.0)
        with pytest.raises(GateUnreachableError) as info:
            shrink_horizon(box4_spectrum, u0, 2.0, grid, [])
        assert info.value.attempts == []

    def test_large_single_mode_passes_after_smoothing(self, box4_spectrum):
        lam0 = box4_spectrum.eigenvalues[0]
        template = TimeGrid.graded(8.0 / lam0, 24, 6)
        step = 0.75 * np.log(2.0) / lam0
        schedule = [step * (k + 1) for k in range(12)]
        phi_gate = 0.008
        u0 = _mode_field(box4_spectrum, 0, 60.0)
        result = shrink_horizon(box4_spectrum, u0, phi_gate, template, schedule)
        assert result.attempts[-1].passed
        assert result.horizon < template.horizon
        assert result.eps > 0.0
        # the returned data really passes the gate on the returned grid
        traj = alpha_trajectory(box4_spectrum, result.u0_smooth, result.grid)
        assert smallness_gate(et_norm(box4_spectrum, traj), phi_gate)
        # the smoothed-orbit norms decay through the attempts
        totals = [a.alpha_eps_total for a in result.attempts]
        assert all(b < a for a, b in zip(totals, totals[1:]))

    def test_exhausted_schedule_reports_best(self, box4_spectrum, grid):
        u0 = _mode_field(box4_spectrum, 0, 1e6)
        with pytest.raises(GateUnreachableError) as info:
            shrink_horizon(box4_spectrum, u0, 2.0, grid, [1e-6], max_halvings=4)
        assert len(info.value.attempts) == 4
        assert info.value.best is not None


class TestPicard:
    def test_zero_data_immediate(self, box4_spectrum, box4_hodge, grid):
        cfg = PicardConfig(grid=grid)
        traj, log = picard_solve(
            box4_spectrum, box4_hodge, VectorField.zeros(box4_hodge.mask), cfg
        )
        assert log.converged and log.iterations == 1
        assert et_norm(box4_spectrum, traj).total == 0.0

    def test_linear_limit_returns_alpha_exactly(self, box4_spectrum, box4_hodge, grid):
        u0 = _mode_field(box4_spectrum, 1, 0.4)
        cfg = PicardConfig(grid=grid, nonlinearity_scale=0.0)
        traj, log = picard_solve(box4_spectrum, box4_hodge, u0, cfg)
        assert log.converged and log.iterations == 1
        assert log.distances[0] == 0.0
        alpha = alpha_trajectory(box4_spectrum, u0, grid)
        assert np.array_equal(traj.samples, alpha.samples)
        assert np.array_equal(traj.derivative_samples, alpha.derivative_samples)

    def test_tiny_data_contraction_bounds(self, box4_spectrum, box4_hodge, grid):
        phi_hat = estimate_phi_norm(box4_spectrum, box4_hodge, grid, trials=6, seed=21)
        phi_gate = 2.0 * phi_hat
        amp = 1e-3 / (4.0 * phi_gate)
        u0 = _mode_field(box4_spectrum, 0, amp)
        alpha = alpha_trajectory(box4_spectrum, u0, grid)
        alpha_total = et_norm(box4_spectrum, alpha).total
        assert smallness_gate(et_norm(box4_spectrum, alpha), phi_gate)
        cfg = PicardConfig(grid=grid, tol=1e-12)
        traj, log = picard_solve(box4_spectrum, box4_hodge, u0, cfg)
        assert log.converged
        # first correction bounded by the operator-norm product
        assert log.distances[0] <= phi_gate * alpha_total**2
        # observed contraction ratios within the certificate
        bound = 4.0 * phi_gate * alpha_total * 1.1
        assert all(r <= bound for r in log.ratios)

    def test_residual_bound_and_quadrature_robustness(self, box4_spectrum, box4_hodge, grid):
        u0 = _mode_field(box4_spectrum, 0, 0.05)
        tol = 1e-10
        residuals = {}
        for order in (6, 12):
            cfg = PicardConfig(grid=TimeGrid.graded(grid.horizon, grid.segments, order), tol=tol)
            _, log = picard_solve(box4_spectrum, box4_hodge, u0, cfg)
            assert log.converged
            assert log.fixed_point_residual <= tol
            residuals[order] = log.fixed_point_residual
        lo, hi = sorted(residuals.values())
        assert hi <= 5.0 * max(lo, 1e-16)

    def test_one_phi_call_per_iteration(self, box4_spectrum, box4_hodge, grid, monkeypatch):
        import mildflow.mild as mild_mod

        calls = []
        real_phi = mild_mod.phi

        def counting_phi(*args, **kwargs):
            calls.append(1)
            return real_phi(*args, **kwargs)

        monkeypatch.setattr(mild_mod, "phi", counting_phi)
        u0 = _mode_field(box4_spectrum, 0, 0.05)
        traj, log = picard_solve(box4_spectrum, box4_hodge, u0, PicardConfig(grid=grid))
        assert log.converged and log.iterations >= 2
        assert len(calls) == log.iterations
        # the returned iterate is the one whose residual was measured last
        assert log.fixed_point_residual == log.distances[-1]
        assert log.iterate_norms[-1] == et_norm(box4_spectrum, traj)

    def test_uniqueness_probe(self, box4_spectrum, box4_hodge, grid):
        u0 = _mode_field(box4_spectrum, 0, 0.05)
        tol = 1e-10
        traj_a, _ = picard_solve(
            box4_spectrum, box4_hodge, u0, PicardConfig(grid=grid, tol=tol, start="alpha")
        )
        traj_z, _ = picard_solve(
            box4_spectrum, box4_hodge, u0, PicardConfig(grid=grid, tol=tol, start="zero")
        )
        gap = et_norm(
            box4_spectrum, combine_trajectories(1.0, traj_a, -1.0, traj_z)
        ).total
        assert gap <= 10.0 * tol

    def test_divergence_detected(self, box4_spectrum, box4_hodge, grid):
        u0 = _mode_field(box4_spectrum, 0, 80.0)
        with pytest.raises(PicardDivergenceError) as info:
            picard_solve(box4_spectrum, box4_hodge, u0, PicardConfig(grid=grid))
        log = info.value.log
        assert log is not None
        assert sum(1 for r in log.ratios[-3:] if r >= 1.0) == 3
