"""Strong-solution checks: residuals, pressure recovery, independent oracle.

A converged trajectory is audited at every positive node, one column each:

* divergence of the lifted sample (zero up to round-off by construction),
* the momentum residual  w = u' - Lap u + (u . grad) u  projected onto the
  divergence-free subspace, relative to ||u'|| + ||Lap u||,
* the pressure recovered as the minimum-norm potential with
  grad pi = -(gradient part of w), plus the match residual of that
  identity,
* the initial-value error at t_0.

An independent semi-implicit time stepper (exact integrating factor for
the linear part, explicit projected convection, first order in dt) serves
as a cross-check of the fixed-point solution, and a cumulative energy
balance provides a coarse integral diagnostic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .convection import advect_flat
from .domain import DiscreteOperators, ScalarField, VectorField, vector_lp_norm
from .errors import OracleInstabilityError
from .hodge import HodgeDecomposition
from .mild import MildTrajectory, TimeGrid
from .stokes import StokesSpectrum


@dataclass(eq=False)
class StrongCheckReport:
    """Per-node audit of the momentum equation at the positive nodes.

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

    @property
    def max_residual(self) -> float:
        return float(self.residual_rels.max())


@dataclass(eq=False)
class PressureRecovery:
    """Minimum-norm potential p with grad p = -(gradient part of w).

    ``gradient_residual`` is the least-squares defect within the gradient
    subspace; ``h_component`` is the magnitude of the divergence-free part
    of w, which the potential cannot represent.
    """

    potential: ScalarField
    gradient_residual: float
    h_component: float


def _recover_pressures(hodge: HodgeDecomposition, ops: DiscreteOperators,
                       w_flat: np.ndarray):
    """``recover_pressure`` on the columns of a (3n, k) array.

    Returns the potentials, the mismatch grad p + w (what the gradient
    cannot explain), the gradient residuals and the H components.
    """
    p = -hodge.potentials(w_flat)
    mismatch = ops.gradient @ p + w_flat
    mismatch_h = hodge.basis @ (hodge.basis.T @ mismatch)
    vol = ops.mask.cell_volume ** 0.5
    return (p, mismatch, vol * np.linalg.norm(mismatch - mismatch_h, axis=0),
            vol * np.linalg.norm(mismatch_h, axis=0))


def recover_pressure(hodge: HodgeDecomposition, ops: DiscreteOperators,
                     w: VectorField) -> PressureRecovery:
    """Solve grad p = -w in the least-squares sense with the canonical p."""
    p, _, gradient_residual, h_component = _recover_pressures(hodge, ops, w.flat[:, None])
    return PressureRecovery(
        ScalarField(ops.mask, p[:, 0]), float(gradient_residual[0]), float(h_component[0])
    )


def strong_residual(spectrum: StokesSpectrum, hodge: HodgeDecomposition,
                    ops: DiscreteOperators, traj: MildTrajectory, u0: VectorField,
                    scale: float = 1.0) -> StrongCheckReport:
    """Audit the momentum equation at every positive node of a trajectory.

    ``scale`` must match the nonlinearity scale the trajectory was
    solved with (0 audits the purely linear evolution).
    """
    nodes = traj.grid.nodes
    fields = spectrum.fields
    vol = ops.mask.cell_volume ** 0.5
    lifted = fields @ np.concatenate([traj.samples[1:], traj.derivative_samples]).T
    u, du = np.split(lifted, 2, axis=1)
    lap_u = ops.laplacian @ u
    conv = scale * advect_flat(ops, u, u)
    w = du + lap_u + conv
    denom = vol * (np.linalg.norm(du, axis=0) + np.linalg.norm(lap_u, axis=0))
    denom = np.maximum(denom, np.finfo(float).tiny)
    residual_num = vol * np.linalg.norm(fields.T @ w, axis=0)  # direct projection route
    potentials, mismatch, _, h_components = _recover_pressures(hodge, ops, w)
    # the eigenfields are orthonormal: the field error is the modal error
    init_err = vol * float(np.linalg.norm(traj.samples[0] - fields.T @ u0.flat))
    return StrongCheckReport(
        nodes[1:],
        vol * np.linalg.norm(ops.divergence @ u, axis=0),
        residual_num / denom,
        [ScalarField(ops.mask, p) for p in potentials.T],
        # || grad pi + w || with grad pi = the recovered gradient part
        vol * np.linalg.norm(mismatch, axis=0) / denom,
        h_components,
        np.abs(h_components - residual_num) / denom,
        nodes[1:] ** 0.5 * np.array([vector_lp_norm(VectorField.from_flat(ops.mask, c), 1.5)
                                     for c in conv.T]),
        init_err,
    )


def imex_oracle(spectrum: StokesSpectrum, hodge: HodgeDecomposition, u0: VectorField,
                grid: TimeGrid, dt: float, scale: float = 1.0,
                growth_limit: float = 1e3) -> MildTrajectory:
    """Independent semi-implicit stepper sampled on the given grid.

    Stepping happens in eigencoordinates with the exact integrating
    factor e^{-dt lambda} for the linear part and the projected
    convection handled explicitly (exponential-Euler weights), first
    order in dt.  Steps are split so the march lands exactly on every
    grid node; otherwise the O(dt^2) placement error would mask the
    stepping order being measured.  Norm growth beyond ``growth_limit``
    times the initial norm raises ``OracleInstabilityError``.
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
    ops = hodge.ops
    fields = spectrum.fields
    horizon = grid.horizon
    n_whole = int(np.ceil(horizon / dt - 1e-12))
    times = np.union1d(np.minimum(dt * np.arange(n_whole + 1), horizon), grid.nodes)

    def forcing_modal(modal_state: np.ndarray) -> np.ndarray:
        flat = fields @ modal_state
        raw = advect_flat(ops, flat, flat)
        return -scale * (fields.T @ raw)

    a = fields.T @ u0.flat
    norm0 = max(np.linalg.norm(a), np.finfo(float).tiny)
    node_modal = np.empty((grid.nodes.size, lam.size))
    node_modal[0] = a
    node_pos = np.searchsorted(times, grid.nodes)
    next_node = 1
    for n in range(times.size - 1):
        step = times[n + 1] - times[n]
        d = np.exp(-step * lam)
        a = d * a + (1.0 - d) / lam * forcing_modal(a)
        if next_node < node_pos.size and n + 1 == node_pos[next_node]:
            node_modal[next_node] = a
            next_node += 1
        if np.linalg.norm(a) > growth_limit * norm0:
            raise OracleInstabilityError(
                f"oracle norm grew beyond {growth_limit:.0e} x initial at t={times[n + 1]:.3g}"
            )

    states = node_modal[1:]
    deriv_modal = -lam * states + forcing_modal(states.T).T
    return MildTrajectory(grid, node_modal, deriv_modal)


def energy_audit(spectrum: StokesSpectrum, ops: DiscreteOperators,
                 traj: MildTrajectory) -> np.ndarray:
    """Cumulative balance ||u(t)||^2 + 2 int_0^t <Lap u, u> ds - ||u0||^2.

    Trapezoidal in time; for the linear evolution the balance is pure
    quadrature error.  Returns one value per grid node.
    """
    nodes = traj.grid.nodes
    vol = ops.mask.cell_volume
    u = spectrum.fields @ traj.samples.T
    energies = vol * np.einsum("ij,ij->j", u, u)
    dissipation = vol * np.einsum("ij,ij->j", u, ops.laplacian @ u)
    cumulative = np.concatenate(
        [[0.0], np.cumsum(0.5 * np.diff(nodes) * (dissipation[1:] + dissipation[:-1]))]
    )
    return energies + 2.0 * cumulative - energies[0]
