"""Mild and strong solutions of incompressible flow on voxel domains.

The pipeline: a boolean voxel mask defines the domain; centered-difference
operators with exact adjointness give a discrete Hodge decomposition; the
Dirichlet Laplacian compressed to the divergence-free subspace is the
Stokes operator, whose dense eigendecomposition powers an exact functional
calculus (fractional powers, shifts, semigroup).  Mild solutions are
constructed by a Picard iteration on the semigroup convolution of the
projected convective forcing (one kernel, ``modal_forcing``, evaluated on
pairs of grid-node samples), guarded by the smallness condition
||alpha|| < 1/(4 ||Phi||), and verified against the momentum equation with
pressure recovery and an independent time-stepping oracle.

Built objects (masks, operators, decompositions, spectra, trajectories)
are immutable after construction and all operations are pure, so sharing
across threads needs no synchronization.
"""

__version__ = "0.1.0"

from .convection import advect
from .domain import (
    DiscreteOperators,
    DomainMask,
    ScalarField,
    VectorField,
    build_operators,
    field_dot,
    field_norm,
    format_mask,
    load_mask,
    vector_lp_norm,
)
from .errors import (
    ConfigError,
    FieldMismatchError,
    GateUnreachableError,
    MaskCharacterError,
    MaskDimensionError,
    MaskEmptyError,
    MaskError,
    MaskHeaderError,
    MildflowError,
    OracleInstabilityError,
    PicardDivergenceError,
    SpectrumError,
)
from .hodge import HodgeDecomposition, build_hodge, decompose
from .mild import (
    ETNorms,
    IterationLog,
    MildTrajectory,
    PicardConfig,
    ShrinkAttempt,
    ShrinkResult,
    TimeGrid,
    alpha_from_coords,
    alpha_trajectory,
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
from .stokes import (
    StokesSpectrum,
    apply_frac_power,
    apply_semigroup,
    assemble_stokes,
    smoothing_bound,
    smoothing_envelope,
)
from .verify import (
    PressureRecovery,
    StrongCheckReport,
    energy_audit,
    imex_oracle,
    recover_pressure,
    strong_residual,
)
