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

    Phi(u, v)(t) = int_0^t e^{-(t-s)A} f(s) ds,

so it solves Phi' = f - A Phi, and its derivative samples are read off
that equation at the nodes, Phi'(t_j) = f(t_j) - A Phi(t_j), with no
second kernel call.  The inputs' derivative samples enter only their
norms.

Phi sees f only as an exact quadratic in time between grid nodes (see
below), and one map, ``_interval_map``, gives the mild form on an interval
for Phi's node steps and the strong audit's midpoints: per mode in closed
form (exponential time differencing), with weights from the moments
nu_k(z) = int_0^1 e^{-z s} s^k ds, k = 0, 1, 2, about the interval's right
end (a Taylor series where z = lambda h is small); Phi has no quadrature
error on its own interpolant, and ``grid.quad_order`` does not enter it.

``convolve_semigroup`` is the reference path: it integrates any forcing
with Gauss-Legendre panels after the substitution s = a + (b - a)
sin^2(theta), which removes the model endpoint singularities (the
(t-s)^{-1/2} s^{-1/2} behavior of the continuum estimates), with panel
breaks at the grid nodes and ``grid.quad_order`` points per panel.

Time grids are graded toward zero (t_j = T (j/N)^2) so the weighted sups
resolve the blow-up of the norm weights at t -> 0.

Trajectories are stored in Stokes-modal coordinates: a sample a holds the
field Y a, Y the ambient eigenfields, so every operator of the calculus is
a per-mode multiplier on the samples.  Y = Z Q is kept factored (see
``stokes``): ``spectrum.lift`` gives Y a and ``spectrum.project`` Y^T x,
for one sample or a batch of columns.

The forcing f = B(u, v) = -1/2 P ((u . grad) v + (v . grad) u) has one
kernel, ``modal_forcing``, which lifts nothing: it takes ambient fields
and projects with ``spectrum.project``.  Phi sees only the piecewise-linear
interpolants of the node samples, so on each grid interval f is an exact
quadratic in the node-pair forcings B(u_i, v_i), B(u_i, v_{i+1}) and
B(u_{i+1}, v_i), each distinct pair forced once (one cross pair if u is v).
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .convection import advect_flat
from .domain import VectorField
from .errors import GateUnreachableError, PicardDivergenceError, SpectrumError
from .hodge import HodgeDecomposition
from .stokes import StokesSpectrum

_PROJECTION_WARN_TOL = 1e-12
MAX_HALVINGS = 40  # attempts of ``shrink_horizon``, on the horizons T / 2^k


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
        return self is other or np.array_equal(self.nodes, other.nodes)


@dataclass(eq=False)
class MildTrajectory:
    """Velocity samples in Stokes-modal coordinates per grid node.

    ``samples[j]`` holds u(t_j); ``derivative_samples[j-1]`` holds
    u'(t_j) for the positive nodes t_1 .. t_N.  The ambient field of a
    sample a is ``spectrum.lift(a)``.  Orbits carry -A u and Phi images
    f - A Phi, the derivatives their equations give at the nodes.
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
    The change is measured on u0 / max|u0|, whose norm cannot overflow.
    """
    modal0 = spectrum.project(u0.flat)
    peak = np.abs(u0.flat).max()
    if peak > 0.0:
        defect = (np.linalg.norm((u0.flat - spectrum.lift(modal0)) / peak)
                  / np.linalg.norm(u0.flat / peak))
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
                  scale: float = 1.0) -> np.ndarray:
    """Projected convective forcing -scale/2 Y^T ((a.grad)b + (b.grad)a), column-wise.

    ``xa`` and ``xb`` are ambient fields of shape (3n,) or (3n, k), one
    sample per column, and Y the eigenfields; the result holds the
    Stokes-modal coordinates of the forcing, shape (m,) or (m, k).  It is
    bilinear and symmetric in (a, b), and its lift Y f is orthogonal to
    every discrete gradient.  It advects once for ``xa is xb``.
    """
    ops = spectrum.hodge.ops
    raw = advect_flat(ops, xa, xb)
    raw += raw if xa is xb else advect_flat(ops, xb, xa)
    return -0.5 * scale * spectrum.project(raw)


def _node_pair_forcings(spectrum: StokesSpectrum, a: np.ndarray, b: np.ndarray, scale: float):
    """Node-pair forcings of B(a, b) over the lifted node sequences a and b,
    each (3n, N+1).

    Returns the rows ``diag[i] = B(a_i, b_i)``, shape (N+1, m), and
    ``cross[i] = B(a_i, b_{i+1}) + B(a_{i+1}, b_i)``, shape (N, m); for
    ``a is b`` that is 2 B(a_i, a_{i+1}), so 2N + 1 columns are projected,
    not 3N + 1.  Between nodes a and b are linear, so on [t_i, t_{i+1}] at
    weight w the bilinear B is the exact quadratic

        (1-w)^2 diag[i] + w(1-w) cross[i] + w^2 diag[i+1].
    """
    diag = modal_forcing(spectrum, a, b, scale).T
    if a is b:
        return diag, 2.0 * modal_forcing(spectrum, a[:, :-1], a[:, 1:], scale).T
    return diag, (modal_forcing(spectrum, a[:, :-1], b[:, 1:], scale)
                  + modal_forcing(spectrum, a[:, 1:], b[:, :-1], scale)).T


# nu_2(z) = sum_n (-z)^n / (n! (n + 3)) below _SERIES_BELOW; its 22 terms
# leave a relative truncation error under 1e-21 there
_SERIES_BELOW = 1.0
_SERIES = 1.0 / (np.cumprod(np.arange(22.0).clip(1.0)) * np.arange(3.0, 25.0))


def _moments(z: np.ndarray) -> np.ndarray:
    """nu_k(z) = int_0^1 e^{-z s} s^k ds for k = 0, 1, 2 and z >= 0, shape (3, *z.shape).

    At z >= 1 they come from nu_0 = (1 - e^{-z}) / z and the upward
    recurrence nu_k = (k nu_{k-1} - e^{-z}) / z, which cancels badly as
    z -> 0; below 1, nu_2 comes from its Taylor series and the downward
    recurrence nu_{k-1} = (z nu_k + e^{-z}) / k, which adds positive terms.
    """
    z = np.asarray(z, dtype=float)
    nu = np.empty((3,) + z.shape)
    small = z < _SERIES_BELOW
    zl, zs = z[~small], z[small]
    el, es = np.exp(-zl), np.exp(-zs)
    n0 = (1.0 - el) / zl
    n1 = (n0 - el) / zl
    nu[:, ~small] = n0, n1, (2.0 * n1 - el) / zl
    n2 = np.full(zs.shape, _SERIES[-1])
    for c in _SERIES[-2::-1]:
        n2 = c - zs * n2
    n1 = 0.5 * (zs * n2 + es)
    nu[:, small] = zs * n1 + es, n1, n2
    return nu


def _interval_map(lam, elapsed, w, diag, cross, start=None):
    """The mild form on grid intervals: the decay e^{-eA} and, per interval i,

        e^{-eA} start[i] + int_{t_i}^{t_i + e} e^{-(t_i + e - s)A} q_i(s) ds,

    each (k, m), for the node-pair quadratic q_i of ``diag`` (k+1, m) and
    ``cross`` (k, m) (see ``_node_pair_forcings``), without the first term
    when ``start`` is None; ``elapsed`` e and its weight ``w`` = e / h_i are
    (k,).  With x = w (1 - s) the integral is e int_0^1 e^{-lam e s} q ds in
    the moments nu_k(lam e) about the right end; the weights of diag[i] and
    cross[i] sum nonnegative terms, which keeps them accurate on stiff modes.
    """
    z, e, w = np.outer(elapsed, lam), elapsed[:, None], w[:, None]
    nu0, nu1, nu2 = _moments(z)
    decay, v = np.exp(-z), 1.0 - w
    values = e * (v**2 * nu0 + 2.0 * w * v * nu1 + w**2 * nu2) * diag[:-1]
    if start is not None:
        values = decay * start + values
    values += e * w * (v * (nu0 - nu1) + w * (nu1 - nu2)) * cross
    values += e * w**2 * (nu0 - 2.0 * nu1 + nu2) * diag[1:]
    return decay, values


def phi(spectrum: StokesSpectrum, u: MildTrajectory, v: MildTrajectory,
        scale: float = 1.0) -> MildTrajectory:
    """Bilinear convolution map Phi(u, v), values and derivatives per node.

    ``scale`` multiplies the forcing (0 turns the nonlinearity off).
    Bilinear and symmetric in (u, v) by construction.  The forcing of the
    interpolated value samples is integrated exactly per mode, so the
    result does not depend on ``grid.quad_order``; the derivative at each
    positive node is f(t_j) - A Phi(t_j).  Only value samples are read,
    and they are lifted once when ``u is v``.
    """
    if not u.grid.same_as(v.grid):
        raise ValueError("trajectories on different grids")
    grid = u.grid
    if scale == 0.0:
        return zero_trajectory(spectrum, grid)
    lam = spectrum.eigenvalues
    if u is v:
        xu = xv = spectrum.lift(u.samples.T)
    else:
        xu, xv = np.hsplit(spectrum.lift(np.vstack([u.samples, v.samples]).T), 2)
    diag, cross = _node_pair_forcings(spectrum, xu, xv, scale)

    # the node convolution, interval by interval
    h = np.diff(grid.nodes)
    step, gain = _interval_map(lam, h, np.ones(h.size), diag, cross)
    values = np.zeros((grid.nodes.size, lam.size))
    for k in range(h.size):
        values[k + 1] = step[k] * values[k] + gain[k]
    return MildTrajectory(grid, values, diag[1:] - lam * values[1:])


# ---------------------------------------------------------------------------
# Norm of Phi, smallness gate, horizon shrinking
# ---------------------------------------------------------------------------


def estimate_phi_norm(spectrum: StokesSpectrum, hodge: HodgeDecomposition, grid: TimeGrid,
                      trials: int = 16, seed: int = 0) -> float:
    """Randomized lower bound on ||Phi|| = sup ||Phi(u,v)|| / (||u|| ||v||).

    Each trial scores ||Phi(u, u)|| / ||u||^2 on one time-constant
    trajectory u(t) = a / |a|, whose forcing f = B(u, u) is constant: per
    mode Phi(u, u) has the values (1 - e^{-t lambda}) / lambda f and the
    derivatives e^{-t lambda} f, from one single-column kernel call
    (``phi`` is not called and ``hodge`` not read).  Trial 0 is the ground
    mode; later draws cycle through randomly damped broadband, single-mode
    and sparse-pair profiles, which degenerate masks need (on a chain of
    cells no unit mode has a self-forcing).  Deterministic given the seed,
    monotone in ``trials``.  Raises ``SpectrumError`` on a non-finite
    ratio (a zero draw, or norms overflowing at the spectrum's scale).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    lam = spectrum.eigenvalues
    m = lam.size
    t_lam = np.outer(grid.nodes, lam)
    best = 0.0
    for trial in range(trials):
        modal = np.zeros(m)
        if trial == 0:
            modal[0] = 1.0
        elif trial % 3 == 1:
            modal = rng.standard_normal(m) * lam ** (-rng.uniform(0.0, 1.0))
        elif trial % 3 == 2:
            modal[rng.integers(m)] = 1.0
        else:
            modal[rng.integers(m, size=2)] = rng.standard_normal(2)
        modal /= np.linalg.norm(modal)
        x = spectrum.lift(modal)
        f = modal_forcing(spectrum, x, x)
        u = MildTrajectory(grid, np.tile(modal, (grid.nodes.size, 1)), np.zeros((grid.segments, m)))
        image = MildTrajectory(grid, -np.expm1(-t_lam) / lam * f, np.exp(-t_lam[1:]) * f)
        ratio = et_norm(spectrum, image).total / et_norm(spectrum, u).total ** 2
        if not np.isfinite(ratio):
            raise SpectrumError(f"||Phi|| probe trial {trial} gave the non-finite ratio {ratio}")
        best = max(best, ratio)
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
    eps_lambda_min: float  # dimensionless: the smoothing of the slowest mode is e^{-this}


@dataclass(eq=False)
class ShrinkResult:
    """Outcome of the horizon search: smoothed data and a passing horizon."""

    u0_smooth: VectorField
    horizon: float
    grid: TimeGrid
    eps: float
    attempts: list


def shrink_horizon(spectrum: StokesSpectrum, u0: VectorField, phi_norm: float,
                   grid_template: TimeGrid, eps_schedule) -> ShrinkResult:
    """Search smoothed initial data and a horizon passing the smallness gate.

    Call it after the gate failed on ``grid_template``.  Attempt k smooths
    the data to ``e^{-eps A} u0`` (always in the domain of the operator)
    with the k-th schedule entry (the last one repeating) on the horizon
    T / 2^k, so attempt 0 smooths with ``eps_schedule[0]`` on T, and
    successive attempts record the decay of the smoothed orbit norm along
    dyadic horizons.  The first attempt whose smoothed orbit passes the
    gate is returned; one that is exactly 0 (stiff data smoothed away)
    does not pass.  Each attempt also records the norm of the rest orbit
    e^{-tA}(u0 - u0_eps), which bounds the distance to the unsmoothed problem.

    Raises ``GateUnreachableError`` with the attempt log if none of the
    ``MAX_HALVINGS`` attempts passes.
    """
    modal0 = spectrum.project(u0.flat)
    eps_schedule = list(eps_schedule)
    attempts: list[ShrinkAttempt] = []
    if not eps_schedule:
        raise GateUnreachableError("gate failed and the smoothing schedule is empty", attempts)

    lam = spectrum.eigenvalues
    for k in range(MAX_HALVINGS):
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
            smallness_gate(norms, phi_norm) and norms.total > 0.0,
            float(eps * lam[0]),
        )
        attempts.append(attempt)
        if attempt.passed:
            u0_eps = VectorField.from_flat(u0.mask, spectrum.lift(modal_eps))
            return ShrinkResult(u0_eps, horizon, grid_k, eps, attempts)
    # an attempt smoothed to 0 is no candidate, however small its norm
    best = min((a for a in attempts if a.alpha_eps_total > 0.0),
               key=lambda a: a.alpha_eps_total, default=None)
    detail = ("every attempt smoothed the data to 0" if best is None else
              f"best smoothed norm {best.alpha_eps_total:.3e} at eps={best.eps}, T={best.horizon}")
    raise GateUnreachableError(
        f"smallness gate unreachable after {len(attempts)} attempts ({detail})", attempts, best
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

    def __post_init__(self):
        if self.start not in ("alpha", "zero"):
            raise ValueError(f"Picard start must be 'alpha' or 'zero', not {self.start!r}")


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

    Returns ``(trajectory, log)``.  Each Phi call measures the fixed-point
    residual ``||v - alpha - Phi(v, v)||`` of the current iterate v, so the
    loop stops as soon as that residual is at most ``tol`` and returns that
    v; its residual is ``log.fixed_point_residual``, the last entry of
    ``log.distances``, and its norms are the last entry of
    ``log.iterate_norms``.  ``PicardDivergenceError`` carries the log of
    a run that expanded for three consecutive steps, or that made
    ``max_iterations`` Phi calls without converging (then with its last
    residual).  u0 is projected into the divergence-free subspace
    silently: ``alpha_trajectory`` is the one place that warns about a
    gradient part.  ``hodge`` is not read: the spectrum carries the basis.
    """
    grid = config.grid
    log = IterationLog()
    alpha = _orbit(spectrum, spectrum.project(u0.flat), grid)
    log.alpha_norms = et_norm(spectrum, alpha)
    v = alpha if config.start == "alpha" else zero_trajectory(spectrum, grid)
    while True:
        log.iterate_norms.append(et_norm(spectrum, v))
        nxt = combine_trajectories(1.0, alpha, 1.0,
                                   phi(spectrum, v, v, scale=config.nonlinearity_scale))
        dist = et_norm(spectrum, combine_trajectories(1.0, nxt, -1.0, v)).total
        log.iterations += 1
        if log.distances and log.distances[-1] > 0.0:
            log.ratios.append(dist / log.distances[-1])
        log.distances.append(dist)
        # NaN is not >= 1: a NaN ratio ends a run of expansions
        if len(log.ratios) >= 3 and all(r >= 1.0 for r in log.ratios[-3:]):
            raise PicardDivergenceError(
                f"no contraction for 3 consecutive steps (last distances {log.distances[-4:]})",
                log,
            )
        log.converged = dist <= config.tol
        if log.converged or log.iterations >= config.max_iterations:
            break
        v = nxt

    log.fixed_point_residual = dist
    if not log.converged:
        raise PicardDivergenceError(f"no convergence to tol {config.tol:g} in {log.iterations} "
                                    f"iterations (last distance {dist:.3e})", log)
    return v, log
