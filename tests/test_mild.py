"""Trajectory space, semigroup convolution, smallness gate, Picard iteration."""

import warnings
from pathlib import Path

import numpy as np
import pytest

import mildflow.mild as mild_mod
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
    assemble_stokes,
    build_hodge,
    build_operators,
    combine_trajectories,
    convolve_semigroup,
    estimate_phi_norm,
    et_norm,
    load_mask,
    modal_forcing,
    phi,
    picard_solve,
    shrink_horizon,
    smallness_gate,
    zero_trajectory,
)
from conftest import mask_path

BOX4 = Path(mask_path("box4")).read_text()


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
        with pytest.raises(ValueError, match="horizon"):
            TimeGrid(2.0, np.array([0.0, 0.5, 1.0]))

    def test_scaled_preserves_layout(self):
        g = TimeGrid.graded(1.0, 10, 4)
        s = g.scaled(0.25)
        assert s.horizon == 0.25
        assert np.allclose(s.nodes, g.nodes * 0.25)
        assert s.quad_order == 4


class TestMildTrajectory:
    @pytest.mark.parametrize("samples, derivatives, message", [
        (20, 20, "one sample per grid node"),
        (21, 21, "one derivative sample"),
    ], ids=["samples", "derivatives"])
    def test_sample_counts(self, grid, samples, derivatives, message):
        with pytest.raises(ValueError, match=message):
            MildTrajectory(grid, np.zeros((samples, 4)), np.zeros((derivatives, 4)))

    def test_combine_rejects_two_grids(self, box4_spectrum, grid):
        other = zero_trajectory(box4_spectrum, TimeGrid.graded(0.5, 10, 6))
        with pytest.raises(ValueError, match="different grids"):
            combine_trajectories(1.0, zero_trajectory(box4_spectrum, grid), 1.0, other)


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

    @pytest.mark.parametrize("amplitude", [1.0, 1e200])
    def test_projection_warning_survives_huge_data(self, box4_ops, box4_spectrum, grid,
                                                   amplitude):
        # the defect is measured on u0 / max|u0|: its norm cannot overflow
        rng = np.random.default_rng(0)
        gradient = box4_ops.gradient @ rng.standard_normal(box4_ops.mask.n_cells)
        u0 = VectorField.from_flat(box4_ops.mask, amplitude * gradient)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            alpha_trajectory(box4_spectrum, u0, grid)
        assert [(w.category, str(w.message)) for w in caught] == [
            (UserWarning, "initial field had a gradient component (1.00e+00 relative); projected")]


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
        # nu_k(x) = int_0^1 e^{-x s} s^k ds at x = z w* for partial
        # interval fractions w*, across the series / closed-form switch
        mpmath = pytest.importorskip("mpmath")
        from mildflow.mild import _SERIES_BELOW, _moments

        cut = _SERIES_BELOW
        zs = [0.0, 1e-12, 1e-8, 1e-4, 0.1, 0.5, cut - 1e-9, cut, cut + 1e-9,
              2.0, 10.0, 100.0, 1e3]
        xs = np.array([z * w for z in zs for w in (1e-3, 0.3, 0.7, 1.0)])
        got = _moments(xs)
        with mpmath.workdps(30):
            for x, nu in zip(xs, got.T):
                for k in range(3):
                    want = float(mpmath.quad(
                        lambda s: mpmath.exp(-mpmath.mpf(x) * s) * s**k, [0, 1]))
                    assert abs(nu[k] - want) <= 1e-14 * want

    def test_interval_weights_against_mpmath(self):
        # e int_0^1 e^{-z(1-y)} q(w y) dy for q = (1-x)^2, x(1-x), x^2 with
        # z = lam e up to very stiff modes, from exact incomplete gammas:
        # with s = 1 - y the basis quadratics are polynomials in s, and
        # int_0^1 e^{-z s} s^k ds = gamma(k + 1, z) / z^(k + 1)
        mpmath = pytest.importorskip("mpmath")
        from mildflow.mild import _interval_weights

        zs = [0.0, 1e-12, 1e-8, 1e-4, 0.1, 0.5, 1.0, 2.0, 10.0, 1e3, 1e6, 1e8, 1e12, 1e17]
        elapsed = 0.5
        with mpmath.workdps(60):
            for w in (1e-3, 0.3, 0.7, 1.0):
                got = _interval_weights(np.array(zs) / elapsed, np.array([elapsed]),
                                        np.array([w]))
                b, a = mpmath.mpf(w), 1 - mpmath.mpf(w)
                polys = [(a * a, 2 * a * b, b * b), (b * a, b * (b - a), -b * b),
                         (b * b, -2 * b * b, b * b)]
                for j, z in enumerate(zs):
                    z = mpmath.mpf(z)
                    nu = [mpmath.gammainc(k + 1, 0, z) / z ** (k + 1) if z else
                          mpmath.mpf(1) / (k + 1) for k in range(3)]
                    for weight, poly in zip(got, polys):
                        want = elapsed * sum(c * n for c, n in zip(poly, nu))
                        assert abs(weight[0, j] - want) <= 1e-14 * want


class TestPhi:
    def test_zero_operand(self, box4_spectrum, grid):
        rng = np.random.default_rng(3)
        v = alpha_from_coords(box4_spectrum, rng.standard_normal(box4_spectrum.dim), grid)
        image = phi(box4_spectrum, zero_trajectory(box4_spectrum, grid), v)
        assert et_norm(box4_spectrum, image).total <= 1e-14

    def test_symmetry(self, box4_spectrum, grid):
        rng = np.random.default_rng(4)
        u = alpha_from_coords(box4_spectrum, rng.standard_normal(box4_spectrum.dim), grid)
        v = alpha_from_coords(box4_spectrum, rng.standard_normal(box4_spectrum.dim), grid)
        uv = phi(box4_spectrum, u, v)
        vu = phi(box4_spectrum, v, u)
        diff = et_norm(box4_spectrum, combine_trajectories(1.0, uv, -1.0, vu)).total
        assert diff <= 1e-10 * et_norm(box4_spectrum, uv).total

    def test_bilinearity(self, box4_spectrum, grid):
        rng = np.random.default_rng(5)
        m = box4_spectrum.dim
        u = alpha_from_coords(box4_spectrum, rng.standard_normal(m), grid)
        w = alpha_from_coords(box4_spectrum, rng.standard_normal(m), grid)
        v = alpha_from_coords(box4_spectrum, rng.standard_normal(m), grid)
        a, b = 0.7, -1.3
        left = phi(box4_spectrum, combine_trajectories(a, u, b, w), v)
        right = combine_trajectories(
            a,
            phi(box4_spectrum, u, v),
            b,
            phi(box4_spectrum, w, v),
        )
        diff = et_norm(box4_spectrum, combine_trajectories(1.0, left, -1.0, right)).total
        assert diff <= 1e-10 * max(et_norm(box4_spectrum, left).total, 1e-30)

    def test_node_pair_forcing_matches_direct_kernel(self, box4_spectrum, grid):
        # the quadratic in node-pair forcings equals the kernel evaluated on
        # the lifted linear interpolants
        from mildflow.mild import _node_pair_forcings

        rng = np.random.default_rng(12)
        m = box4_spectrum.dim
        nodes = grid.nodes
        fields = box4_spectrum.fields
        u, v = (rng.standard_normal((nodes.size, m)) for _ in range(2))
        scale = 0.8
        diag, cross = _node_pair_forcings(box4_spectrum, fields @ u.T, fields @ v.T, scale)
        times = np.concatenate([rng.uniform(0.0, grid.horizon, 6), nodes[[2, 7]],
                                [0.0, 0.3 * nodes[1], grid.horizon]])
        for s in times:
            i = min(np.searchsorted(nodes, s, side="right") - 1, nodes.size - 2)
            w = (s - nodes[i]) / (nodes[i + 1] - nodes[i])
            got = diag[i] * (1.0 - w) ** 2 + cross[i] * (w * (1.0 - w)) + diag[i + 1] * w**2
            xu, xv = (fields @ np.array([np.interp(s, nodes, c) for c in x.T]) for x in (u, v))
            want = modal_forcing(box4_spectrum, xu, xv, scale)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("hodge_fixture", ["box4_hodge", "lmask_hodge"])
    def test_self_pair_forcings_match_general_path(self, hodge_fixture, request, grid):
        # a is b advects the node pairs once; the general path on a copy
        # advects them twice and gives the same bits
        from mildflow import assemble_stokes
        from mildflow.mild import _node_pair_forcings

        spectrum = assemble_stokes(request.getfixturevalue(hodge_fixture))
        rng = np.random.default_rng(21)
        a = spectrum.lift(rng.standard_normal((spectrum.dim, grid.nodes.size)))
        for got, want in zip(_node_pair_forcings(spectrum, a, a, 0.7),
                             _node_pair_forcings(spectrum, a, a.copy(), 0.7)):
            assert np.array_equal(got, want)

    def test_self_pair_projects_each_distinct_pair_once(self, box4_spectrum, grid,
                                                        column_counts):
        # for a is b the cross pairs (a_i, a_{i+1}) and (a_{i+1}, a_i) are
        # one: 2N + 1 projected columns, not 3N + 1
        rng = np.random.default_rng(23)
        a = box4_spectrum.lift(rng.standard_normal((box4_spectrum.dim, grid.nodes.size)))
        projections = column_counts(box4_spectrum, "project")
        mild_mod._node_pair_forcings(box4_spectrum, a, a, 0.7)
        assert sum(projections) == 2 * grid.segments + 1

    @pytest.mark.parametrize("order", [2, 8])
    def test_forcing_work_per_phi_call(self, box4_spectrum, order, column_counts):
        # node-pair forcings of the values only, whatever the quadrature:
        # for u is v one advection of the N + 1 node samples and both orders
        # of the N neighbour pairs (3N + 1 columns); otherwise both orders
        # of every pair (6N + 2)
        columns = column_counts(mild_mod, "advect_flat")
        segments = 20
        grid = TimeGrid.graded(0.5, segments, order)
        rng = np.random.default_rng(13)
        u, v = (alpha_from_coords(box4_spectrum, rng.standard_normal(box4_spectrum.dim), grid)
                for _ in range(2))
        phi(box4_spectrum, u, u)
        assert columns == [segments + 1, segments, segments]
        columns.clear()
        phi(box4_spectrum, u, v)
        assert columns == [segments + 1] * 2 + [segments] * 4

    def test_one_lift_per_phi_call(self, box4_spectrum, grid, column_counts):
        # Phi lifts the value samples only, in one call and once for u is v;
        # the inputs' derivative samples do not enter it
        rng = np.random.default_rng(17)
        u, v = (alpha_from_coords(box4_spectrum, rng.standard_normal(box4_spectrum.dim), grid)
                for _ in range(2))
        lifts = column_counts(box4_spectrum, "lift")
        projections = column_counts(box4_spectrum, "project")
        n_nodes, n = grid.nodes.size, grid.segments
        image = phi(box4_spectrum, u, u)
        assert (lifts, projections) == ([n_nodes], [n_nodes, n])
        lifts.clear()
        projections.clear()
        phi(box4_spectrum, u, v)
        assert (lifts, projections) == ([2 * n_nodes], [n_nodes, n, n])
        other = MildTrajectory(grid, u.samples, rng.standard_normal(u.derivative_samples.shape))
        again = phi(box4_spectrum, other, other)
        assert np.array_equal(again.samples, image.samples)
        assert np.array_equal(again.derivative_samples, image.derivative_samples)

    @pytest.mark.parametrize("hodge_fixture", ["box4_hodge", "lmask_hodge"])
    def test_exact_integration_matches_quadrature(self, hodge_fixture, request):
        # Phi integrates its piecewise-quadratic node-pair forcing exactly;
        # the panel quadrature of the same forcing converges to the values,
        # and the derivatives are f(t_j) - A Phi(t_j) on those values
        from mildflow import assemble_stokes

        hodge = request.getfixturevalue(hodge_fixture)
        spectrum = assemble_stokes(hodge)
        rng = np.random.default_rng(15)
        m, lam, scale = spectrum.dim, spectrum.eigenvalues, 0.8
        grid = TimeGrid.graded(0.5, 20, 6)
        nodes = grid.nodes
        u, v = (MildTrajectory(grid, rng.standard_normal((nodes.size, m)),
                               rng.standard_normal((nodes.size - 1, m)))
                for _ in range(2))
        image = phi(spectrum, u, v, scale)
        xu, xv = spectrum.fields @ u.samples.T, spectrum.fields @ v.samples.T
        diag = modal_forcing(spectrum, xu, xv, scale)
        cross = (modal_forcing(spectrum, xu[:, :-1], xv[:, 1:], scale)
                 + modal_forcing(spectrum, xu[:, 1:], xv[:, :-1], scale))

        def forcing(s):
            i = np.clip(np.searchsorted(nodes, s, side="right") - 1, 0, nodes.size - 2)
            w = (s - nodes[i]) / (nodes[i + 1] - nodes[i])
            return diag[:, i] * (1 - w) ** 2 + cross[:, i] * (w * (1 - w)) + diag[:, i + 1] * w**2

        for order, tol in ((20, 1e-12), (12, 1e-10)):
            values = convolve_semigroup(spectrum, grid, forcing, order)
            deriv = forcing(nodes[1:]).T - lam * values[1:]
            for got, want in ((image.samples, values), (image.derivative_samples, deriv)):
                assert np.abs(got - want).max() <= tol * np.abs(want).max()

    def test_derivative_matches_central_difference(self, box4_spectrum, grid):
        # on [t_i, t_{i+1}] the closed form is
        # Phi(t_i + e) = e^{-eA} Phi(t_i) + int_{t_i}^{t_i + e} e^{-(t_i + e - s)A} f(s) ds;
        # its central difference across every interior node t_j, from the
        # intervals on either side, converges to Phi'(t_j) = f(t_j) - A Phi(t_j)
        from mildflow.mild import _interval_weights, _node_pair_forcings

        rng = np.random.default_rng(19)
        lam = box4_spectrum.eigenvalues
        u, v = (alpha_from_coords(box4_spectrum, rng.standard_normal(box4_spectrum.dim), grid)
                for _ in range(2))
        image = phi(box4_spectrum, u, v)
        diag, cross = _node_pair_forcings(box4_spectrum, box4_spectrum.lift(u.samples.T),
                                          box4_spectrum.lift(v.samples.T), 1.0)
        h = np.diff(grid.nodes)

        def closed_form(i, elapsed):
            weights = _interval_weights(lam, np.array([elapsed]), np.array([elapsed / h[i]]))
            return np.exp(-lam * elapsed) * image.samples[i] + sum(
                c[0] * f for c, f in zip(weights, (diag[i], cross[i], diag[i + 1])))

        for j in range(1, grid.segments):
            delta = 1e-6 * min(h[j - 1], h[j])
            central = (closed_form(j, delta) - closed_form(j - 1, h[j - 1] - delta)) / (2 * delta)
            want = image.derivative_samples[j - 1]
            assert np.abs(central - want).max() <= 1e-6 * np.abs(want).max()

    def test_independent_of_quad_order(self, box4_spectrum, monkeypatch):
        # the quadrature order only sets the reference quadrature; Phi
        # never builds a panel
        def no_panels(*args):
            raise AssertionError("phi used the panel quadrature")

        monkeypatch.setattr(mild_mod, "_panel_quadrature", no_panels)
        rng = np.random.default_rng(16)
        coords = rng.standard_normal((2, box4_spectrum.dim))
        images = []
        for order in (2, 8):
            grid = TimeGrid.graded(0.5, 20, order)
            u, v = (alpha_from_coords(box4_spectrum, c, grid) for c in coords)
            images.append(phi(box4_spectrum, u, v))
        assert np.array_equal(images[0].samples, images[1].samples)
        assert np.array_equal(images[0].derivative_samples, images[1].derivative_samples)

    def test_grid_mismatch(self, box4_spectrum, grid):
        other = TimeGrid.graded(0.5, 10, 6)
        with pytest.raises(ValueError):
            phi(
                box4_spectrum,
                zero_trajectory(box4_spectrum, grid),
                zero_trajectory(box4_spectrum, other),
            )


class TestPhiNormEstimate:
    def test_positive_and_monotone(self, box4_spectrum, box4_hodge, grid):
        small = estimate_phi_norm(box4_spectrum, box4_hodge, grid, trials=2, seed=11)
        large = estimate_phi_norm(box4_spectrum, box4_hodge, grid, trials=4, seed=11)
        assert small > 0.0
        assert large >= small

    def test_needs_a_trial(self, box4_spectrum, box4_hodge, grid):
        with pytest.raises(ValueError, match="at least one trial"):
            estimate_phi_norm(box4_spectrum, box4_hodge, grid, trials=0)

    def test_deterministic(self, box4_spectrum, box4_hodge, grid):
        a = estimate_phi_norm(box4_spectrum, box4_hodge, grid, trials=3, seed=12)
        b = estimate_phi_norm(box4_spectrum, box4_hodge, grid, trials=3, seed=12)
        assert a == b

    def test_reaches_the_constant_ground_mode(self, box4_spectrum, box4_hodge, grid):
        # criterion 11's settings: the time-constant ground mode scores 8.8913e-3
        assert estimate_phi_norm(box4_spectrum, box4_hodge, grid, trials=4, seed=4242) >= 8.89e-3

    def test_one_self_advection_per_trial(self, box4_spectrum, box4_hodge, grid, column_counts):
        # the forcing of a time-constant trajectory is one field's
        columns = column_counts(mild_mod, "advect_flat")
        estimate_phi_norm(box4_spectrum, box4_hodge, grid, trials=4, seed=4242)
        assert columns == [1] * 4

    def test_never_calls_phi(self, box4_spectrum, box4_hodge, grid, column_counts,
                             monkeypatch):
        # each trial forces its one constant field: one single-column
        # lift and projection, and Phi in closed form
        def no_phi(*args, **kwargs):
            raise AssertionError("the probe called phi")

        monkeypatch.setattr(mild_mod, "phi", no_phi)
        lifts = column_counts(box4_spectrum, "lift")
        projections = column_counts(box4_spectrum, "project")
        assert estimate_phi_norm(box4_spectrum, box4_hodge, grid, trials=4, seed=4242) > 0.0
        assert lifts == projections == [1] * 4

    @pytest.mark.parametrize("source, spacing", [
        (mask_path("box4"), 1.0),
        (mask_path("lshape_3x3x1"), 1.0),
        ("mask v1\n7 1 1 1.0\n1111111\n", 1.0),
        (BOX4.replace("4 4 4 1.0", "4 4 4 1e-6"), 1e-6),
        (BOX4.replace("4 4 4 1.0", "4 4 4 1e6"), 1e6),
    ], ids=["box4", "lshape", "chain", "box4_h1e-6", "box4_h1e6"])
    def test_closed_form_matches_phi(self, source, spacing, grid, monkeypatch):
        # every trial's ratio equals the one Phi gives on the tiled constant
        # trajectory; the probe passes each trial's image, then its input,
        # to et_norm.  The horizon scales with spacing^2, which keeps
        # lambda t: at lambda t >> 1 Phi's derivative f - lambda Phi is
        # round-off of f where the closed form e^{-t lambda} f is exact
        hodge = build_hodge(build_operators(load_mask(source)))
        spectrum = assemble_stokes(hodge)
        grid = grid.scaled(grid.horizon * spacing**2)
        seen = []

        def recording(spectrum, traj):
            seen.append(traj)
            return et_norm(spectrum, traj)

        monkeypatch.setattr(mild_mod, "et_norm", recording)
        best = estimate_phi_norm(spectrum, hodge, grid, trials=7, seed=4242)
        assert len(seen) == 14
        ratios = []
        for image, u in zip(seen[::2], seen[1::2]):
            assert not u.derivative_samples.any() and (u.samples == u.samples[0]).all()
            norm_u = et_norm(spectrum, u).total
            ratios.append(et_norm(spectrum, image).total / norm_u**2)
            want = et_norm(spectrum, phi(spectrum, u, u)).total / norm_u**2
            assert ratios[-1] == pytest.approx(want, rel=1e-13, abs=0.0)
        assert best == max(ratios) > 0.0

    @pytest.mark.parametrize("source, silent", [
        (mask_path("lshape_3x3x1"), slice(0, 1)),
        ("mask v1\n7 1 1 1.0\n1111111\n", slice(None)),
    ], ids=["lshape", "chain"])
    def test_positive_where_unit_modes_have_no_forcing(self, source, silent, grid):
        # the silent unit modes have a zero self-forcing: the ground mode on
        # the L-shape and all 15 modes on the chain of 7 cells
        hodge = build_hodge(build_operators(load_mask(source)))
        spectrum = assemble_stokes(hodge)
        x = spectrum.lift(np.eye(spectrum.dim))
        assert not modal_forcing(spectrum, x, x)[:, silent].any()
        assert estimate_phi_norm(spectrum, hodge, grid, trials=1, seed=4242) == 0.0
        assert estimate_phi_norm(spectrum, hodge, grid, trials=4, seed=4242) > 0.0

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
    def test_attempt_0_smooths_on_the_template_horizon(self, box4_spectrum, grid):
        # the caller has decided the gate: small data is not returned as is
        u0 = _mode_field(box4_spectrum, 0, 1e-3)
        result = shrink_horizon(box4_spectrum, u0, 2.0, grid, [0.1, 0.2])
        assert [(a.eps, a.horizon) for a in result.attempts] == [(0.1, grid.horizon)]
        assert result.eps == 0.1 and np.array_equal(result.grid.nodes, grid.nodes)
        decay = np.exp(-0.1 * box4_spectrum.eigenvalues[0])
        np.testing.assert_allclose(result.u0_smooth.values, decay * u0.values,
                                   rtol=0, atol=1e-14 * np.abs(u0.values).max())

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
            shrink_horizon(box4_spectrum, u0, 2.0, grid, [1e-6])
        assert len(info.value.attempts) == mild_mod.MAX_HALVINGS
        assert info.value.best is not None

    def test_data_smoothed_to_zero_does_not_pass(self, box4_spectrum, box4_hodge, grid):
        # e^{-eps lambda_0} underflows to 0: the zero orbit passes the gate
        # but solves nothing, and it is no best attempt either
        u0 = _mode_field(box4_spectrum, 0, 1e3)
        phi_bound = 2.0 * estimate_phi_norm(box4_spectrum, box4_hodge, grid)
        with pytest.raises(GateUnreachableError,
                           match=r"attempts \(every attempt smoothed the data to 0\)$") as info:
            shrink_horizon(box4_spectrum, u0, phi_bound, grid, [1e3])
        assert all(a.alpha_eps_total == 0.0 for a in info.value.attempts)
        assert not any(a.passed for a in info.value.attempts)
        assert info.value.best is None
        # one attempt keeps a nonzero orbit: it is the best, however large
        with pytest.raises(GateUnreachableError, match=r"\(best smoothed norm [1-9]") as info:
            shrink_horizon(box4_spectrum, u0, phi_bound, grid, [1e-3, 1e3])
        first, *rest = info.value.attempts
        assert first.alpha_eps_total > 0.0 and all(a.alpha_eps_total == 0.0 for a in rest)
        assert info.value.best is first


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
        assert sum(1 for r in log.ratios[-3:] if r >= 1.0) == 3
        assert log.fixed_point_residual is None

    def test_contracting_step_restarts_the_expansion_count(self, box4_spectrum, box4_hodge,
                                                           grid, monkeypatch):
        # the k-th Phi image is s_k d, so from zero data the distances are
        # 1, 2, 1, 2, 4, 8 times ||d||: one expansion, a contraction, then
        # three expansions in a row; a count of expansions in total would
        # stop at the fifth step
        rng = np.random.default_rng(5)
        d = MildTrajectory(grid, rng.standard_normal((grid.nodes.size, box4_spectrum.dim)),
                           rng.standard_normal((grid.segments, box4_spectrum.dim)))
        scales = iter([1, 3, 4, 6, 10, 18, 34])

        def scaled_phi(*args, **kwargs):
            s = next(scales)
            return MildTrajectory(grid, s * d.samples, s * d.derivative_samples)

        monkeypatch.setattr(mild_mod, "phi", scaled_phi)
        with pytest.raises(PicardDivergenceError,
                           match="no contraction for 3 consecutive steps") as info:
            picard_solve(box4_spectrum, box4_hodge, VectorField.zeros(box4_hodge.mask),
                         PicardConfig(grid=grid))
        log = info.value.log
        assert log.iterations == 6
        np.testing.assert_allclose(log.ratios, [2.0, 0.5, 2.0, 2.0, 2.0], rtol=1e-12)
        assert log.fixed_point_residual is None

    def test_iteration_limit_raises_with_log(self, box4_spectrum, box4_hodge, grid):
        u0 = _mode_field(box4_spectrum, 0, 0.05)
        cfg = PicardConfig(grid=grid, tol=1e-30, max_iterations=1)
        with pytest.raises(PicardDivergenceError,
                           match=r"^no convergence to tol 1e-30 in 1 iterations") as info:
            picard_solve(box4_spectrum, box4_hodge, u0, cfg)
        log = info.value.log
        assert log.converged is False and log.iterations == 1
        assert log.fixed_point_residual == log.distances[-1]
