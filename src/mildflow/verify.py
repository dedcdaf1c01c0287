"""Strong-solution checks: residuals, pressure recovery, independent oracle.

A converged trajectory is audited in one batched pass, one column per
audited time: every positive node t_j and every interval midpoint
s_i = (t_i + t_{i+1}) / 2.  At a node the sample and its derivative are
read from the trajectory.  At a midpoint they follow from the mild form
on the interval, u(s) = e^{-(s - t_i)A} u(t_i) + int_{t_i}^s e^{-(s-r)A}
f(r) dr with f the trajectory's own node-pair forcing quadratic, and
u'(s) = f(s) - A u(s).  The node residual of a Picard iterate thus
measures its fixed-point distance, and the midpoint residual
f(s) - B(u(s), u(s)) the interpolation error of the forcing.  Per column:

* divergence of the lifted sample (zero up to round-off by construction),
* the momentum residual  w = u' - Lap u + (u . grad) u  projected onto the
  divergence-free subspace, relative to ||u'|| + ||Lap u||,
* the pressure recovered as the minimum-norm potential with
  grad pi = -(gradient part of w), plus the match residual of that
  identity,

and once, the initial-value error at t_0.

An independent semi-implicit time stepper (exact integrating factor for
the linear part, explicit ``modal_forcing``, first order in dt) serves as
a cross-check of the fixed-point solution, and a cumulative energy
balance provides a coarse integral diagnostic.  The stepper's recurrence
is sequential, but it is solved a window of steps at a time by sweeps
that force all of the window's states in one batch, so the eigenbasis
factors are read once per sweep rather than twice per step.  The sweeps
are a discrete Picard (waveform-relaxation) iteration (Gander & Vandewalle,
SIAM J. Sci. Comput. 29, 2007) whose moves shrink by a measurable factor,
so a window is accepted once its predicted next move, not a confirming
sweep, is below the sweeps' tolerance.  The sweeps force in float32,
through the one forcing kernel on a float32 view of the spectrum
(``StokesSpectrum.astype``), while the recurrence and the states stay
float64 (mixed precision, Higham & Mary, Acta Numerica 31, 2022); they
stop at eps32 relative, the floor this puts under the oracle's deviation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .convection import advect_flat
from .domain import DiscreteOperators, ScalarField, VectorField, vector_lp_norm
from .errors import OracleInstabilityError
from .hodge import HodgeDecomposition
from .mild import MildTrajectory, TimeGrid, _interval_weights, _node_pair_forcings, modal_forcing
from .stokes import StokesSpectrum

#: Norm growth over the initial norm at which ``imex_oracle`` gives up.
GROWTH_LIMIT = 1e3
#: Steps per window of ``imex_oracle``: each sweep lifts and projects all of
#: a window's states in one batch, one read of the eigenbasis factors.
WINDOW_STEPS = 64
#: The dtype in which a sweep lifts, advects and projects the window's states;
#: the recurrence and the states stay float64.
SWEEP_DTYPE = np.float32
#: A window's sweeps stop once the predicted next move, the last move times
#: its contraction factor q (at most 1), is at most this times the machine
#: epsilon of ``SWEEP_DTYPE`` times the window's largest |entry|; q = 1 stops
#: after a sweep that moved no state that far.
SWEEP_TOLERANCE = 1.0


@dataclass(eq=False)
class StrongCheckReport:
    """Audit of the momentum equation, one column per audited time.

    ``times`` holds the positive nodes t_1 .. t_N followed by the interval
    midpoints, and every array and ``pressures`` follow that order.
    ``residual_rels`` comes from projecting the momentum residual
    directly; ``h_component_norms`` is the part the recovered pressure
    gradient could not represent.  ``pressure_consistency_rels`` is the
    gap between those two routes (orthogonal bookkeeping check), all
    relative to ||u'|| + ||Lap u||.
    """

    times: np.ndarray
    divergence_norms: np.ndarray
    residual_rels: np.ndarray
    pressures: list
    gradient_match_rels: np.ndarray
    h_component_norms: np.ndarray
    pressure_consistency_rels: np.ndarray
    convective_l32: np.ndarray
    initial_value_error: float


def _recover_pressures(hodge: HodgeDecomposition, w_flat: np.ndarray):
    """Minimum-norm least-squares solutions p of grad p = -w, one per column
    w of a (3n, k) array.

    Returns the potentials, the mismatch grad p + w (what the gradient
    cannot explain) and the norms of its H components (the part of w no
    potential represents), read off the coordinates: Z has orthonormal
    columns, so ||Z Z^T m|| = ||Z^T m||.
    """
    p = -hodge.potentials(w_flat)
    mismatch = hodge.ops.gradient @ p + w_flat
    vol = hodge.mask.cell_volume ** 0.5
    return p, mismatch, vol * np.linalg.norm(hodge.coords(mismatch), axis=0)


def strong_residual(spectrum: StokesSpectrum, hodge: HodgeDecomposition,
                    ops: DiscreteOperators, traj: MildTrajectory, u0: VectorField,
                    scale: float = 1.0) -> StrongCheckReport:
    """Audit the momentum equation at the positive nodes and the interval
    midpoints of a trajectory.

    ``scale`` must match the nonlinearity scale the trajectory was
    solved with (0 audits the purely linear evolution).
    """
    nodes = traj.grid.nodes
    lam = spectrum.eigenvalues
    vol = ops.mask.cell_volume ** 0.5
    # the midpoint samples from the mild form on [t_i, s_i]
    half = 0.5 * np.diff(nodes)
    x = spectrum.lift(traj.samples.T)
    diag, cross = _node_pair_forcings(spectrum, x, x, scale)
    c_lo, c_mid, c_hi = _interval_weights(lam, half, np.full(half.size, 0.5))
    mid = (np.exp(-np.outer(half, lam)) * traj.samples[:-1]
           + c_lo * diag[:-1] + c_mid * cross + c_hi * diag[1:])
    dmid = 0.25 * (diag[:-1] + cross + diag[1:]) - lam * mid
    x_mid, du = np.hsplit(spectrum.lift(np.vstack([mid, traj.derivative_samples, dmid]).T),
                          [half.size])
    u = np.hstack([x[:, 1:], x_mid])
    times = np.concatenate([nodes[1:], nodes[:-1] + half])
    lap_u = ops.laplacian @ u
    conv = scale * advect_flat(ops, u, u)
    w = du + lap_u + conv
    denom = vol * (np.linalg.norm(du, axis=0) + np.linalg.norm(lap_u, axis=0))
    denom = np.maximum(denom, np.finfo(float).tiny)
    residual_num = vol * np.linalg.norm(spectrum.project(w), axis=0)  # direct projection route
    potentials, mismatch, h_components = _recover_pressures(hodge, w)
    # the eigenfields are orthonormal: the field error is the modal error
    init_err = vol * float(np.linalg.norm(traj.samples[0] - spectrum.project(u0.flat)))
    return StrongCheckReport(
        times,
        vol * np.linalg.norm(ops.divergence @ u, axis=0),
        residual_num / denom,
        [ScalarField(ops.mask, p) for p in potentials.T],
        # || grad pi + w || with grad pi = the recovered gradient part
        vol * np.linalg.norm(mismatch, axis=0) / denom,
        h_components,
        np.abs(h_components - residual_num) / denom,
        times ** 0.5 * np.array([vector_lp_norm(VectorField.from_flat(ops.mask, c), 1.5)
                                 for c in conv.T]),
        init_err,
    )


def oracle_times(grid: TimeGrid, dt: float) -> np.ndarray:
    """The times ``imex_oracle`` lands on, ascending: every grid node and
    every multiple of dt below the horizon more than 1e-9 dt from a node
    (a closer one differs from that node by round-off)."""
    n_whole = int(np.ceil(grid.horizon / dt - 1e-12))
    multiples = np.minimum(dt * np.arange(n_whole + 1), grid.horizon)
    i = np.searchsorted(grid.nodes, multiples).clip(1, grid.nodes.size - 1)
    gap = np.minimum(multiples - grid.nodes[i - 1], grid.nodes[i] - multiples)
    return np.union1d(multiples[gap > 1e-9 * dt], grid.nodes)


def imex_oracle(spectrum: StokesSpectrum, hodge: HodgeDecomposition, u0: VectorField,
                grid: TimeGrid, dt: float, scale: float = 1.0) -> MildTrajectory:
    """Independent semi-implicit stepper sampled on the given grid.

    Stepping happens in eigencoordinates with the exact integrating
    factor e^{-h lambda} for the linear part and the projected
    convection handled explicitly (exponential-Euler weights), first
    order in dt:

        a_{n+1} = e^{-h_n lambda} a_n + (1 - e^{-h_n lambda}) / lambda * f(a_n).

    Steps are split so the march lands exactly on every grid node (see
    ``oracle_times``); otherwise the O(dt^2) placement error would mask
    the stepping order being measured.

    The recurrence is solved window by window, ``WINDOW_STEPS`` steps at
    a time, from the window's first state and the linear orbit as the
    first guess.  Each sweep casts the window's states to ``SWEEP_DTYPE``
    and forces them all as columns of one ``modal_forcing`` call on the
    spectrum cast to that dtype, built once per call; it then reruns the
    elementwise recurrence in float64 with those forcings.  The states
    are divided by a power of two near their largest |entry| and the
    gradient multiplied by one near the spacing before the cast, and the
    forcings scaled back in float64 (exactly: powers of two), so
    ``SWEEP_DTYPE`` neither overflows nor goes subnormal at any spacing
    or amplitude.  Sweep s makes
    the window's first s states exact (the iteration is nilpotent), so at
    most one sweep per step gives the solution of the recurrence with
    forcings in ``SWEEP_DTYPE``.  The sweeps stop earlier, once the
    predicted next move delta_s * min(q, 1) is at most ``SWEEP_TOLERANCE``
    times the machine epsilon of ``SWEEP_DTYPE`` times the window's largest
    |entry|: the accuracy of the solve, not of the oracle, which is first
    order in dt.  Here delta_s is the largest state change of
    sweep s and q the contraction factor, delta_s / delta_{s-1} from
    sweep 2 on.  For sweep 1, q is delta_2 / delta_1 of the last window
    that swept twice, scaled up by the growth of the relative first move
    delta_1 / max|entry| since (a bilinear forcing contracts less at
    larger amplitude).  q starts at 1, the rule "stop after a sweep that
    moved no state beyond the tolerance", and no window sweeps longer than
    under that rule.  A state whose norm is not within ``GROWTH_LIMIT``
    times the initial norm ends its window there, so no sweep forces it;
    once it is exact, it raises ``OracleInstabilityError`` at its time.
    The initial projection of u0 and the node derivatives are computed in
    float64 on the given spectrum, so linear mode (``scale`` 0) stays the
    exact orbit.
    """
    if dt <= 0.0:
        raise ValueError(f"step size must be positive, got {dt}")
    lam = spectrum.eigenvalues
    if dt * lam[-1] > 2.0:
        warnings.warn(
            f"oracle step dt={dt} is coarse against the stiffest mode "
            f"(dt * lambda_max = {dt * lam[-1]:.2f})",
            stacklevel=2,
        )
    times = oracle_times(grid, dt)
    # the weights e^{-h lambda} and (1 - e^{-h lambda}) / lambda per step length h
    lengths, which = np.unique(np.diff(times), return_inverse=True)
    decay = np.exp(-np.outer(lengths, lam))
    weight = (1.0 - decay) / lam
    # the forcing is bilinear and scales as 1/h: the sweeps force a / 2^t with
    # the gradient times 2^unit ~ h, and the kicks are scaled back by 2^(2t - unit)
    unit = math.frexp(spectrum.hodge.mask.spacing)[1]
    low = spectrum.astype(SWEEP_DTYPE, math.ldexp(1.0, unit))
    tolerance = SWEEP_TOLERANCE * np.finfo(SWEEP_DTYPE).eps
    buffer = np.empty((WINDOW_STEPS + 1, lam.size))
    buffer[0] = spectrum.project(u0.flat)
    limit = GROWTH_LIMIT * max(np.linalg.norm(buffer[0]), np.finfo(float).tiny)
    node_modal = np.empty((grid.nodes.size, lam.size))
    node_modal[0] = buffer[0]
    node_pos = np.searchsorted(times, grid.nodes)
    carried = (1.0, np.inf)  # (delta_2 / delta_1, delta_1 / top), last window to sweep twice
    start = 0
    while start < which.size:
        steps = which[start:start + WINDOW_STEPS]
        a = buffer[:steps.size + 1]
        for n, k in enumerate(steps):  # the linear orbit
            a[n + 1] = decay[k] * a[n]
        for sweep in range(1, WINDOW_STEPS + 1):  # ends by the cap at the latest
            previous = a[1:].copy()
            t = math.frexp(np.abs(a[:-1]).max())[1]
            flat = low.lift(np.ldexp(a[:-1].T, -t).astype(SWEEP_DTYPE))
            kicks = scale * np.ldexp(weight[steps] * modal_forcing(low, flat, flat).T, 2 * t - unit)
            for n, k in enumerate(steps):
                a[n + 1] = decay[k] * a[n] + kicks[n]
            norms = np.linalg.norm(a[1:], axis=1)
            over = np.flatnonzero(~(norms <= limit))  # NaN counts as over
            move, top = np.abs(a[1:] - previous).max(), np.abs(a).max()
            if sweep == 1:
                first = move / top if top else 0.0
                ratio = carried[0] * max(1.0, first / carried[1])
            else:
                ratio = move / last if last else 1.0
                if sweep == 2:
                    carried = (ratio, first)
            last = move
            converged = move * min(ratio, 1.0) <= tolerance * top
            if over.size and (over[0] < sweep or converged):
                raise OracleInstabilityError(
                    f"oracle norm grew beyond {GROWTH_LIMIT:.0e} x initial "
                    f"at t={times[start + over[0] + 1]:.3g}"
                )
            if over.size:  # not yet exact: end the window at that state
                steps = steps[:over[0] + 1]
                a = buffer[:steps.size + 1]
            elif converged or sweep >= steps.size:
                break
        end = start + steps.size
        here = (node_pos > start) & (node_pos <= end)
        node_modal[here] = a[node_pos[here] - start]
        buffer[0] = a[-1]
        start = end

    states = node_modal[1:]
    flat = spectrum.lift(states.T)
    deriv_modal = -lam * states + modal_forcing(spectrum, flat, flat, scale).T
    return MildTrajectory(grid, node_modal, deriv_modal)


def energy_audit(spectrum: StokesSpectrum, traj: MildTrajectory) -> np.ndarray:
    """Cumulative balance ||u(t)||^2 + 2 int_0^t <Lap u, u> ds - ||u0||^2.

    Trapezoidal in time; for the linear evolution, alpha, the balance is
    pure quadrature error, its floor.  Returns one value per grid node.
    The eigenfields Y are orthonormal with Y^T Lap Y = Lambda, so a sample
    a has ||Y a||^2 = h^3 |a|^2 and <Lap Y a, Y a> = h^3 sum lambda a^2,
    h^3 the cell volume: nothing is lifted.
    """
    nodes = traj.grid.nodes
    vol = spectrum.hodge.mask.cell_volume
    squares = traj.samples**2
    energies = vol * squares.sum(axis=1)
    dissipation = vol * (squares @ spectrum.eigenvalues)
    cumulative = np.concatenate(
        [[0.0], np.cumsum(0.5 * np.diff(nodes) * (dissipation[1:] + dissipation[:-1]))]
    )
    return energies + 2.0 * cumulative - energies[0]
