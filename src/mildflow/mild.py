"""Mild solutions by Picard iteration in a weighted trajectory space.

A trajectory u on a time grid is measured by three sup terms,

    ||u|| = sup ||A^{1/4} u(t)||
          + sup t^{1/4} ||A^{1/2} u(t)||
          + sup t ||A^{1/4} u'(t)||,

the weighted sups taken over the positive nodes only.  The solution of
the integral equation  u = alpha + Phi(u, u)  with alpha(t) = e^{-tA} u0
is constructed by the fixed-point sequence v_{n+1} = alpha + Phi(v_n, v_n),
which contracts when  ||alpha|| < 1 / (4 ||Phi||)  (the smallness gate).

Phi is the semigroup convolution of the projected convective forcing,

    Phi(u, v)(t) = int_0^t e^{-(t-s)A} f(s) ds.

The trajectory derivative uses the split form

    Phi(u, v)(t) = int_0^{t/2} e^{-sA} f(t-s) ds
                 + int_0^{t/2} e^{-(t-s)A} f(s) ds

differentiated termwise, with the product-rule derivative f' of the
forcing in the first term; after s -> t - s there,

    Phi'(t) = e^{-tA/2} f(t/2) + int_{t/2}^t e^{-(t-s)A} f'(s) ds
            - A int_0^{t/2} e^{-(t-s)A} f(s) ds.

Phi sees f and f' only as exact quadratics in time between grid nodes
(see below), so each mode integrates them in closed form on every
interval (exponential time differencing) with the weights
mu_k(z) = int_0^1 e^{-z(1-w)} w^k dw, k = 0, 1, 2, taken from a Taylor
series where z = lambda h is small; Phi has no quadrature error on its own
interpolant, and ``grid.quad_order`` does not enter it.

``convolve_semigroup`` is the reference path: it integrates any forcing
with Gauss-Legendre panels after the substitution s = a + (b - a)
sin^2(theta), which removes the model endpoint singularities (the
(t-s)^{-1/2} s^{-1/2} behavior of the continuum estimates), with panel
breaks at the grid nodes and ``grid.quad_order`` points per panel.

Time grids are graded toward zero (t_j = T (j/N)^2) so the weighted sups
resolve the blow-up of the norm weights at t -> 0.

Trajectories are stored in Stokes-modal coordinates: a sample a holds the
field Y a with Y = ``spectrum.fields`` the ambient eigenfields, so every
operator of the calculus is a per-mode multiplier on the samples.

The forcing f = B(u, v) = -1/2 P ((u . grad) v + (v . grad) u) has one
kernel, ``modal_forcing``, which lifts nothing: it takes ambient fields
and projects with Y^T.  Phi sees only the piecewise-linear interpolants
of the node samples, so on each grid interval f is an exact quadratic in
the node-pair forcings B(u_i, v_i), B(u_i, v_{i+1}) and B(u_{i+1}, v_i),
and f' = B(u', v) + B(u, v') likewise; those are computed once per Phi
call, one kernel call for f and one for f', which sums the raw
advections of its two operand pairs before its one projection.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .convection import advect_flat
from .domain import VectorField
from .errors import GateUnreachableError, PicardDivergenceError
from .hodge import HodgeDecomposition
from .stokes import StokesSpectrum

_PROJECTION_WARN_TOL = 1e-12


# ---------------------------------------------------------------------------
# Time grids and trajectories
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class TimeGrid:
    """Strictly increasing sample times 0 = t_0 < ... < t_N = T.

    ``quad_order`` is the number of Gauss-Legendre points per panel of the
    reference quadrature ``convolve_semigroup``; ``phi`` integrates
    exactly and does not read it.
    """

    horizon: float
    nodes: np.ndarray
    quad_order: int = 6

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ValueError("need at least two intervals (three nodes)")
        if nodes[0] != 0.0 or np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must start at 0 and increase strictly")
        if not self.horizon > 0.0 or abs(nodes[-1] - self.horizon) > 1e-13 * self.horizon:
            raise ValueError("last node must equal the (positive) horizon")
        if self.quad_order < 1:
            raise ValueError("quadrature order must be at least 1")
        self.nodes = nodes

    @property
    def segments(self) -> int:
        return self.nodes.size - 1

    @classmethod
    def graded(cls, horizon: float, segments: int, quad_order: int = 6) -> "TimeGrid":
        """Quadratically graded grid t_j = T (j/N)^2."""
        j = np.arange(segments + 1, dtype=float)
        return cls(horizon, horizon * (j / segments) ** 2, quad_order)

    def scaled(self, new_horizon: float) -> "TimeGrid":
        """Same relative node layout on a different horizon."""
        return TimeGrid(new_horizon, self.nodes * (new_horizon / self.horizon), self.quad_order)

    def same_as(self, other: "TimeGrid") -> bool:
        return self is other or (
            self.nodes.size == other.nodes.size and np.array_equal(self.nodes, other.nodes)
        )


@dataclass(eq=False)
class MildTrajectory:
    """Velocity samples in Stokes-modal coordinates per grid node.

    ``samples[j]`` holds u(t_j); ``derivative_samples[j-1]`` holds
    u'(t_j) for the positive nodes t_1 .. t_N.  The ambient field of a
    sample a is ``spectrum.fields @ a``.
    """

    grid: TimeGrid
    samples: np.ndarray
    derivative_samples: np.ndarray

    def __post_init__(self):
        n_nodes = self.grid.nodes.size
        self.samples = np.asarray(self.samples, dtype=float)
        self.derivative_samples = np.asarray(self.derivative_samples, dtype=float)
        if self.samples.shape[0] != n_nodes:
            raise ValueError("one sample per grid node required")
        if self.derivative_samples.shape != (n_nodes - 1, self.samples.shape[1]):
            raise ValueError("one derivative sample per positive grid node required")


def zero_trajectory(spectrum: StokesSpectrum, grid: TimeGrid) -> MildTrajectory:
    m = spectrum.dim
    return MildTrajectory(grid, np.zeros((grid.nodes.size, m)), np.zeros((grid.segments, m)))


def combine_trajectories(a: float, u: MildTrajectory, b: float, v: MildTrajectory) -> MildTrajectory:
    if not u.grid.same_as(v.grid):
        raise ValueError("trajectories on different grids")
    return MildTrajectory(
        u.grid,
        a * u.samples + b * v.samples,
        a * u.derivative_samples + b * v.derivative_samples,
    )


@dataclass(frozen=True)
class ETNorms:
    """The three weighted sup terms of the trajectory norm."""

    sup_quarter: float
    sup_half_weighted: float
    sup_deriv_weighted: float

    @property
    def total(self) -> float:
        return self.sup_quarter + self.sup_half_weighted + self.sup_deriv_weighted


def et_terms(spectrum: StokesSpectrum, traj: MildTrajectory) -> np.ndarray:
    """Per-node terms of the trajectory norm, shape (N+1, 3).

    Row j holds ||A^{1/4} u(t_j)||, t_j^{1/4} ||A^{1/2} u(t_j)|| and
    t_j ||A^{1/4} u'(t_j)||; the two weighted terms are 0 at t_0 = 0.
    """
    lam = spectrum.eigenvalues
    scale = spectrum.hodge.mask.cell_volume ** 0.5
    t = traj.grid.nodes
    terms = np.zeros((t.size, 3))
    terms[:, 0] = scale * np.linalg.norm(traj.samples * lam**0.25, axis=1)
    half = scale * np.linalg.norm(traj.samples[1:] * lam**0.5, axis=1)
    terms[1:, 1] = t[1:] ** 0.25 * half
    terms[1:, 2] = t[1:] * (scale * np.linalg.norm(traj.derivative_samples * lam**0.25, axis=1))
    return terms


def et_norm(spectrum: StokesSpectrum, traj: MildTrajectory) -> ETNorms:
    """Evaluate the three sup terms over the grid nodes.

    The node t_0 = 0 enters only the unweighted first term.
    """
    return ETNorms(*map(float, et_terms(spectrum, traj).max(axis=0)))


# ---------------------------------------------------------------------------
# The linear part alpha(t) = e^{-tA} u0
# ---------------------------------------------------------------------------


def alpha_trajectory(spectrum: StokesSpectrum, u0: VectorField, grid: TimeGrid) -> MildTrajectory:
    """Semigroup orbit of the initial field, with exact spectral derivatives.

    The initial field is projected into the divergence-free subspace; a
    warning is emitted if that changes it by more than 1e-12 relative.
    """
    modal0 = spectrum.fields.T @ u0.flat
    scale = np.linalg.norm(u0.flat)
    if scale > 0.0:
        defect = np.linalg.norm(u0.flat - spectrum.fields @ modal0) / scale
        if defect > _PROJECTION_WARN_TOL:
            warnings.warn(
                f"initial field had a gradient component ({defect:.2e} relative); projected",
                stacklevel=2,
            )
    return _orbit(spectrum, modal0, grid)


def alpha_from_coords(spectrum: StokesSpectrum, coords: np.ndarray, grid: TimeGrid) -> MildTrajectory:
    """Semigroup orbit of Z coordinates: samples e^{-tA}c, derivatives -Ae^{-tA}c."""
    return _orbit(spectrum, spectrum.to_modal(np.asarray(coords, dtype=float)), grid)


def _orbit(spectrum: StokesSpectrum, modal0: np.ndarray, grid: TimeGrid) -> MildTrajectory:
    """Semigroup orbit of modal coordinates; row 0 is ``modal0`` exactly."""
    lam = spectrum.eigenvalues
    samples = np.exp(-np.outer(grid.nodes, lam)) * modal0
    return MildTrajectory(grid, samples, -lam * samples[1:])


# ---------------------------------------------------------------------------
# Reference quadrature of the semigroup convolution
# ---------------------------------------------------------------------------

@functools.cache
def _leggauss(order: int):
    return np.polynomial.legendre.leggauss(order)


def _panel_quadrature(lower: float, upper: float, breaks, order: int):
    """Nodes and weights for int_lower^upper g(s) ds under
    s = lower + (upper - lower) sin^2(theta).

    The ``breaks`` inside (lower, upper) are s values where the integrand
    may have kinks (trajectory interpolation nodes); panel boundaries are
    placed there so each panel sees a smooth integrand.
    """
    width = upper - lower
    rel = np.asarray(sorted(b - lower for b in breaks if lower < b < upper), dtype=float)
    if rel.size:
        keep = np.ones(rel.size, dtype=bool)
        keep[1:] = np.diff(rel) > 1e-14 * width
        keep &= rel > 1e-14 * width
        keep &= rel < (1.0 - 1e-14) * width
        rel = rel[keep]
    theta_b = np.concatenate(
        [[0.0], np.arcsin(np.sqrt(np.clip(rel / width, 0.0, 1.0))), [0.5 * np.pi]]
    )
    x, w = _leggauss(order)
    mid = 0.5 * (theta_b[1:] + theta_b[:-1])
    halfwidth = 0.5 * (theta_b[1:] - theta_b[:-1])
    theta = (mid[:, None] + halfwidth[:, None] * x[None, :]).ravel()
    wt = (halfwidth[:, None] * w[None, :]).ravel()
    s = lower + width * np.sin(theta) ** 2
    ds = width * np.sin(2.0 * theta)
    return s, wt * ds


def _convolve(lam: np.ndarray, t: float, lower: float, upper: float, breaks, order: int,
              forcing) -> np.ndarray:
    """Modal  int_lower^upper e^{-(t - s)A} f(s) ds  with f = ``forcing(s_array)`` (m, k)."""
    s, w = _panel_quadrature(lower, upper, breaks, order)
    f = forcing(s)
    decay = np.exp(-lam[:, None] * (t - s)[None, :])
    return (decay * f) @ w


def convolve_semigroup(spectrum: StokesSpectrum, grid: TimeGrid, forcing_modal,
                       quad_order: int | None = None) -> np.ndarray:
    """Per-node values of  int_0^{t_j} e^{-(t_j - s)A} f(s) ds  in modal coordinates.

    ``forcing_modal(s_array)`` must return the modal forcing samples as an
    (m, k) array.  The result has one row per grid node (row 0 is zero).
    """
    order = grid.quad_order if quad_order is None else quad_order
    lam = spectrum.eigenvalues
    nodes = grid.nodes
    out = np.zeros((nodes.size, lam.size))
    for j in range(1, nodes.size):
        out[j] = _convolve(lam, nodes[j], 0.0, nodes[j], nodes, order, forcing_modal)
    return out


# ---------------------------------------------------------------------------
# Phi: node-pair forcings, integrated exactly per mode
# ---------------------------------------------------------------------------


def modal_forcing(spectrum: StokesSpectrum, xa: np.ndarray, xb: np.ndarray,
                  scale: float = 1.0, more=()) -> np.ndarray:
    """Projected convective forcing -scale/2 Y^T ((a.grad)b + (b.grad)a), column-wise.

    ``xa`` and ``xb`` are ambient fields of shape (3n,) or (3n, k), one
    sample per column, and Y = ``spectrum.fields``; the result holds the
    Stokes-modal coordinates of the forcing, shape (m,) or (m, k).  It is
    bilinear and symmetric in (a, b), and its lift Y f is orthogonal to
    every discrete gradient.  ``more`` holds further operand pairs (a, b)
    of the same shape whose raw terms are summed in before the one
    projection, so the result is the sum of their forcings.
    """
    ops = spectrum.hodge.ops
    raw = advect_flat(ops, xa, xb) + advect_flat(ops, xb, xa)
    for a, b in more:
        raw += advect_flat(ops, a, b) + advect_flat(ops, b, a)
    return -0.5 * scale * (spectrum.fields.T @ raw)


def _node_pair_forcings(spectrum: StokesSpectrum, operand_pairs, scale: float):
    """Node-pair forcings of the summed B(a, b) over the lifted node sequences
    (a, b), each (3n, N+1), in ``operand_pairs``.

    Returns the rows ``diag[i] = B(a_i, b_i)``, shape (N+1, m), and
    ``cross[i] = B(a_i, b_{i+1}) + B(a_{i+1}, b_i)``, shape (N, m), from one
    kernel call on the 3N+1 node pairs of every operand pair (the raw
    advections are summed, then projected once).  Between nodes a
    and b are linear, so on [t_i, t_{i+1}] at weight w the bilinear B is
    the exact quadratic

        (1-w)^2 diag[i] + w(1-w) cross[i] + w^2 diag[i+1].
    """
    k = operand_pairs[0][0].shape[1]
    pairs = [(np.hstack([a, a[:, :-1], a[:, 1:]]), np.hstack([b, b[:, 1:], b[:, :-1]]))
             for a, b in operand_pairs]
    f = modal_forcing(spectrum, *pairs[0], scale, more=pairs[1:]).T
    return f[:k], f[k:2 * k - 1] + f[2 * k - 1:]


def _locate(nodes: np.ndarray, s: np.ndarray):
    """Interval index i and weight w in [0, 1] of each time s, s = t_i + w h_i."""
    i = np.clip(np.searchsorted(nodes, s, side="right") - 1, 0, nodes.size - 2)
    return i, np.clip((s - nodes[i]) / (nodes[i + 1] - nodes[i]), 0.0, 1.0)


def _interpolate(nodes: np.ndarray, diag: np.ndarray, cross: np.ndarray, s) -> np.ndarray:
    """The node-pair quadratic of ``_node_pair_forcings`` at times s, shape (len(s), m)."""
    i, w = _locate(nodes, np.atleast_1d(np.asarray(s, dtype=float)))
    w = w[:, None]
    return diag[i] * (1.0 - w) ** 2 + cross[i] * (w * (1.0 - w)) + diag[i + 1] * w**2


# mu_2(z) / 2 = sum_n (-z)^n / (n+3)! below _SERIES_BELOW; its 20 terms
# leave a relative truncation error under 1e-21 there
_SERIES_BELOW = 1.0
_SERIES = 1.0 / np.cumprod(np.arange(1.0, 23.0))[2:]


def _moments(z: np.ndarray) -> np.ndarray:
    """mu_k(z) = int_0^1 e^{-z(1-w)} w^k dw for k = 0, 1, 2 and z >= 0, shape (3, *z.shape).

    These are phi_1(-z), phi_2(-z) and 2 phi_3(-z).  At z >= 1 they come
    from mu_0 = (1 - e^{-z}) / z and the upward recurrence
    mu_k = (1 - k mu_{k-1}) / z, which cancels badly as z -> 0; below 1,
    mu_2 comes from its Taylor series and the downward recurrence
    mu_{k-1} = (1 - z mu_k) / k, which is stable there.
    """
    z = np.asarray(z, dtype=float)
    mu = np.empty((3,) + z.shape)
    small = z < _SERIES_BELOW
    zl = z[~small]
    m0 = -np.expm1(-zl) / zl
    m1 = (1.0 - m0) / zl
    mu[:, ~small] = m0, m1, (1.0 - 2.0 * m1) / zl
    zs = z[small]
    m2 = np.full(zs.shape, _SERIES[-1])
    for c in _SERIES[-2::-1]:
        m2 = c - zs * m2
    m2 *= 2.0
    m1 = 0.5 * (1.0 - zs * m2)
    mu[:, small] = 1.0 - zs * m1, m1, m2
    return mu


def _interval_weights(lam: np.ndarray, elapsed: np.ndarray, w: np.ndarray):
    """Per-mode weights (c_lo, c_mid, c_hi), each (k, m), with

        int_{t_i}^{t_i + e} e^{-(t_i + e - s)A} q(s) ds = c_lo lo + c_mid mid + c_hi hi

    for the interval quadratic q = lo (1-x)^2 + mid x(1-x) + hi x^2 in the
    interval weight x; ``elapsed`` e and its weight ``w`` = e / h_i are
    (k,).  With x = w y the integral is e int_0^1 e^{-lam e (1-y)} q(w y) dy,
    a combination of the moments mu_k(lam e).
    """
    mu0, mu1, mu2 = _moments(np.outer(elapsed, lam))
    e, w = elapsed[:, None], w[:, None]
    return e * (mu0 - 2.0 * w * mu1 + w**2 * mu2), e * w * (mu1 - w * mu2), e * w**2 * mu2


def phi(spectrum: StokesSpectrum, hodge: HodgeDecomposition, u: MildTrajectory,
        v: MildTrajectory, scale: float = 1.0) -> MildTrajectory:
    """Bilinear convolution map Phi(u, v), values and derivatives per node.

    ``scale`` multiplies the forcing (0 turns the nonlinearity off).
    Bilinear and symmetric in (u, v) by construction.  The forcing of the
    interpolated trajectories is integrated exactly per mode, so the
    result does not depend on ``grid.quad_order``.
    """
    if not u.grid.same_as(v.grid):
        raise ValueError("trajectories on different grids")
    grid = u.grid
    if scale == 0.0:
        return zero_trajectory(spectrum, grid)
    lam = spectrum.eigenvalues
    nodes = grid.nodes
    # node samples and node derivatives of both trajectories, lifted in one
    # GEMM; the t_1 derivative row is repeated at t_0, so the derivative
    # interpolants hold their t_1 value below t_1 (a region that only
    # enters integrals damped by the time weights)
    rows = [np.vstack([t.samples, t.derivative_samples[:1], t.derivative_samples])
            for t in (u, v)]
    xu, xdu, xv, xdv = np.hsplit(spectrum.fields @ np.vstack(rows).T, 4)
    f = _node_pair_forcings(spectrum, [(xu, xv)], scale)
    df = _node_pair_forcings(spectrum, [(xdu, xv), (xu, xdv)], scale)

    # node convolutions of f (the values) and of f', interval by interval
    h = np.diff(nodes)
    step = np.exp(-np.outer(h, lam))
    c_lo, c_mid, c_hi = _interval_weights(lam, h, np.ones(h.size))

    def node_convolution(diag, cross):
        gain = c_lo * diag[:-1] + c_mid * cross + c_hi * diag[1:]
        out = np.zeros((nodes.size, lam.size))
        for k in range(h.size):
            out[k + 1] = step[k] * out[k] + gain[k]
        return out

    values, dvalues = node_convolution(*f), node_convolution(*df)

    # the same convolutions at the midpoints tau = t_j / 2, from the node
    # below; with them the split-form derivative is
    # Phi'(t) = e^{-tau A} (f(tau) - W(tau) - A V(tau)) + W(t),
    # V and W the convolutions of f and f' (W(t) - e^{-tau A} W(tau) is
    # the integral of f' over [tau, t])
    half = 0.5 * nodes[1:]
    i, w = _locate(nodes, half)
    elapsed = half - nodes[i]
    carry = np.exp(-np.outer(elapsed, lam))
    p_lo, p_mid, p_hi = _interval_weights(lam, elapsed, w)

    def at_half(conv, diag, cross):
        return carry * conv[i] + p_lo * diag[i] + p_mid * cross[i] + p_hi * diag[i + 1]

    deriv = dvalues[1:] + np.exp(-np.outer(half, lam)) * (
        _interpolate(nodes, *f, half) - at_half(dvalues, *df) - lam * at_half(values, *f))
    return MildTrajectory(grid, values, deriv)


# ---------------------------------------------------------------------------
# Norm of Phi, smallness gate, horizon shrinking
# ---------------------------------------------------------------------------


def estimate_phi_norm(spectrum: StokesSpectrum, hodge: HodgeDecomposition, grid: TimeGrid,
                      trials: int = 16, seed: int = 0) -> float:
    """Randomized lower bound on ||Phi|| = sup ||Phi(u,v)|| / (||u|| ||v||).

    Trial trajectories are semigroup orbits of random modal vectors;
    the draws cycle through spectral profiles (randomly damped broadband,
    single modes, sparse mode pairs) so both spread and concentrated data
    are probed.  Deterministic given the seed; the running maximum is
    monotone in ``trials``.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    lam = spectrum.eigenvalues
    m = lam.size
    best = 0.0
    for trial in range(trials):
        pair = []
        for _ in range(2):
            if trial == 0:
                # The ground mode empirically carries the largest ratio;
                # probing it first makes small trial counts useful.
                modal = np.zeros(m)
                modal[0] = 1.0
            elif trial % 3 == 1:
                modal = rng.standard_normal(m) * lam ** (-rng.uniform(0.0, 1.0))
            elif trial % 3 == 2:
                modal = np.zeros(m)
                modal[rng.integers(m)] = 1.0
            else:
                modal = np.zeros(m)
                modal[rng.integers(m, size=2)] = rng.standard_normal(2)
                if not modal.any():
                    modal[0] = 1.0
            pair.append(_orbit(spectrum, modal / np.linalg.norm(modal), grid))
        u, v = pair
        image = phi(spectrum, hodge, u, v)
        denom = et_norm(spectrum, u).total * et_norm(spectrum, v).total
        best = max(best, et_norm(spectrum, image).total / denom)
    return best


def smallness_gate(alpha_norms: ETNorms, phi_norm: float) -> bool:
    """True iff ||alpha|| < 1 / (4 ||Phi||), the contraction condition."""
    if not phi_norm > 0.0:
        raise ValueError("phi_norm must be positive")
    return alpha_norms.total < 1.0 / (4.0 * phi_norm)


@dataclass(frozen=True)
class ShrinkAttempt:
    eps: float
    horizon: float
    alpha_eps_total: float
    remainder_total: float
    passed: bool


@dataclass(eq=False)
class ShrinkResult:
    """Outcome of the horizon search: smoothed data and a passing horizon."""

    u0_smooth: VectorField
    horizon: float
    grid: TimeGrid
    eps: float
    attempts: list


def shrink_horizon(spectrum: StokesSpectrum, u0: VectorField, phi_norm: float,
                   grid_template: TimeGrid, eps_schedule, max_halvings: int = 40) -> ShrinkResult:
    """Search smoothed initial data and a horizon passing the smallness gate.

    The raw data is smoothed to ``e^{-eps A} u0`` (always in the domain of
    the operator) and the gate is re-evaluated for the smoothed orbit.
    Smoothing strength and horizon are walked together: attempt k uses the
    k-th schedule entry (the last one repeating) on the horizon T / 2^k,
    so successive attempts record the decay of the smoothed orbit norm
    along dyadic horizons.  The first passing attempt is returned; each
    attempt also records the norm of the rest orbit e^{-tA}(u0 - u0_eps),
    which bounds the distance to the unsmoothed problem.

    Raises ``GateUnreachableError`` with the attempt log if the schedule
    never passes.
    """
    modal0 = spectrum.fields.T @ u0.flat
    alpha_plain = _orbit(spectrum, modal0, grid_template)
    if smallness_gate(et_norm(spectrum, alpha_plain), phi_norm):
        return ShrinkResult(u0, grid_template.horizon, grid_template, 0.0, [])

    eps_schedule = list(eps_schedule)
    attempts: list[ShrinkAttempt] = []
    if not eps_schedule:
        raise GateUnreachableError("gate failed and the smoothing schedule is empty", attempts)

    lam = spectrum.eigenvalues
    best = None
    for k in range(max_halvings):
        eps = float(eps_schedule[min(k, len(eps_schedule) - 1)])
        horizon = grid_template.horizon / 2.0 ** k
        grid_k = grid_template.scaled(horizon)
        modal_eps = np.exp(-eps * lam) * modal0
        alpha_eps = _orbit(spectrum, modal_eps, grid_k)
        remainder = _orbit(spectrum, modal0 - modal_eps, grid_k)
        norms = et_norm(spectrum, alpha_eps)
        attempt = ShrinkAttempt(
            eps,
            horizon,
            norms.total,
            et_norm(spectrum, remainder).total,
            smallness_gate(norms, phi_norm),
        )
        attempts.append(attempt)
        if best is None or attempt.alpha_eps_total < best.alpha_eps_total:
            best = attempt
        if attempt.passed:
            u0_eps = VectorField.from_flat(u0.mask, spectrum.fields @ modal_eps)
            return ShrinkResult(u0_eps, horizon, grid_k, eps, attempts)
    raise GateUnreachableError(
        f"smallness gate unreachable after {len(attempts)} attempts "
        f"(best smoothed norm {best.alpha_eps_total:.3e} at eps={best.eps}, T={best.horizon})",
        attempts,
        best,
    )


# ---------------------------------------------------------------------------
# Picard iteration
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class PicardConfig:
    grid: TimeGrid
    tol: float = 1e-10
    max_iterations: int = 15
    nonlinearity_scale: float = 1.0
    start: str = "alpha"  # "alpha" or "zero"


@dataclass(eq=False)
class IterationLog:
    """Per-iterate norms and contraction diagnostics of a Picard run."""

    iterate_norms: list = field(default_factory=list)
    distances: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    alpha_norms: ETNorms | None = None
    fixed_point_residual: float | None = None
    converged: bool = False
    iterations: int = 0


def picard_solve(spectrum: StokesSpectrum, hodge: HodgeDecomposition, u0: VectorField,
                 config: PicardConfig):
    """Iterate v_{n+1} = alpha + Phi(v_n, v_n) until the update is small.

    Returns ``(trajectory, log)``.  Divergence (three consecutive
    expansion steps) raises ``PicardDivergenceError`` carrying the log.
    Each Phi call measures the fixed-point residual
    ``||v - alpha - Phi(v, v)||`` of the current iterate v, so the loop
    stops as soon as that residual is at most ``tol`` (or after
    ``max_iterations`` Phi calls) and returns that v; its residual is
    ``log.fixed_point_residual``, the last entry of ``log.distances``, and
    its norms are the last entry of ``log.iterate_norms``.
    """
    grid = config.grid
    log = IterationLog()
    alpha = alpha_trajectory(spectrum, u0, grid)
    log.alpha_norms = et_norm(spectrum, alpha)
    v = alpha if config.start == "alpha" else zero_trajectory(spectrum, grid)
    log.iterate_norms.append(et_norm(spectrum, v))

    prev_dist = None
    bad_streak = 0
    while True:
        correction = phi(spectrum, hodge, v, v, scale=config.nonlinearity_scale)
        nxt = combine_trajectories(1.0, alpha, 1.0, correction)
        dist = et_norm(spectrum, combine_trajectories(1.0, nxt, -1.0, v)).total
        log.iterations += 1
        log.distances.append(dist)
        if prev_dist is not None and prev_dist > 0.0:
            ratio = dist / prev_dist
            log.ratios.append(ratio)
            bad_streak = bad_streak + 1 if ratio >= 1.0 else 0
        if bad_streak >= 3:
            raise PicardDivergenceError(
                f"no contraction for {bad_streak} consecutive steps "
                f"(last distances {log.distances[-4:]})",
                log,
            )
        log.converged = dist <= config.tol
        if log.converged or log.iterations >= config.max_iterations:
            break
        prev_dist = dist
        v = nxt
        log.iterate_norms.append(et_norm(spectrum, v))

    log.fixed_point_residual = dist
    return v, log
