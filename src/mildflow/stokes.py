"""The Stokes operator on the divergence-free subspace and its calculus.

The operator is the vector Dirichlet Laplacian compressed to the
divergence-free subspace: in the orthonormal basis Z it is the symmetric
positive definite matrix  S = Z^T L Z.  A dense eigendecomposition
S = Q diag(lambda) Q^T turns every function of the operator into a
spectral multiplier, so fractional powers, shifts and the semigroup are
exact up to round-off:

    f(S) c = Q (f(lambda) * (Q^T c)).

The operator applications ``apply_frac_power`` and ``apply_semigroup`` act
on coordinate vectors in the Z basis (``hodge.coords`` / ``hodge.lift``
convert to and from ambient fields).  Trajectories live in modal
coordinates Q^T c instead; the ambient eigenfields Y = Z Q lift them
(``fields @ a``) and project onto them (``fields.T @ u``) in one product.
The shift ``delta`` supports the shifted calculus (delta + S)^s; it is
optional here because the discrete spectrum is strictly positive, which
also makes negative powers legal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import VectorField
from .errors import SpectrumError
from .hodge import HodgeDecomposition

#: exp argument beyond which a spectral multiplier would overflow
_EXP_LIMIT = 700.0


@dataclass(eq=False)
class StokesSpectrum:
    """Eigenpairs of the reduced operator Z^T L Z plus the shift delta.

    ``eigenvalues`` are ascending and strictly positive; ``modes`` holds
    the orthonormal eigenvectors (in Z coordinates) as columns and
    ``fields`` the same eigenvectors as ambient fields, the (3n, m)
    matrix Y = Z Q with orthonormal columns.
    """

    hodge: HodgeDecomposition
    eigenvalues: np.ndarray
    modes: np.ndarray
    fields: np.ndarray
    delta: float = 0.0

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.size)

    def to_modal(self, coords: np.ndarray) -> np.ndarray:
        return self.modes.T @ coords

    def from_modal(self, modal: np.ndarray) -> np.ndarray:
        return self.modes @ modal

    def eigenfield(self, k: int) -> VectorField:
        """k-th eigenmode as a vector field, normalized in the field norm."""
        flat = self.fields[:, k] / self.hodge.mask.cell_volume ** 0.5
        return VectorField.from_flat(self.hodge.mask, flat)


def assemble_stokes(hodge: HodgeDecomposition, delta: float = 0.0) -> StokesSpectrum:
    """Eigendecompose the reduced operator Z^T L Z.

    Raises ``SpectrumError`` if an eigenvalue is not strictly positive
    beyond round-off, which would signal broken adjointness upstream.
    """
    if delta < 0.0:
        raise ValueError(f"shift delta must be nonnegative, got {delta}")
    z = hodge.basis
    reduced = z.T @ (hodge.ops.laplacian @ z)
    reduced = 0.5 * (reduced + reduced.T)
    eigenvalues, modes = np.linalg.eigh(reduced)
    if eigenvalues.size == 0:
        raise SpectrumError("divergence-free subspace is trivial")
    tol = 1e-12 * max(abs(eigenvalues[-1]), 1.0)
    if eigenvalues[0] <= tol:
        raise SpectrumError(
            f"reduced operator is not positive definite: min eigenvalue {eigenvalues[0]:.3e}"
        )
    return StokesSpectrum(hodge, eigenvalues, modes, z @ modes, float(delta))


def _power_factors(spectrum: StokesSpectrum, s: float, shifted: bool) -> np.ndarray:
    base = spectrum.eigenvalues + spectrum.delta if shifted else spectrum.eigenvalues
    if s != 0.0:
        worst = max(abs(s * math.log(base[0])), abs(s * math.log(base[-1])))
        if worst > _EXP_LIMIT:
            raise OverflowError(
                f"power {s} of eigenvalues in [{base[0]:.3e}, {base[-1]:.3e}] overflows"
            )
    return base ** s


def _multiplier(spectrum: StokesSpectrum, factors: np.ndarray):
    """Operator ``c -> Q (factors * (Q^T c))`` on Z coordinates."""
    modes = spectrum.modes

    def apply(coords: np.ndarray) -> np.ndarray:
        modal = modes.T @ np.asarray(coords, dtype=float)
        return modes @ (factors * modal if modal.ndim == 1 else factors[:, None] * modal)

    return apply


def apply_frac_power(spectrum: StokesSpectrum, s: float, shifted: bool = False):
    """Operator ``c -> (delta? + A)^s c`` on Z coordinates.

    The returned callable accepts a coordinate vector (or a stack of them
    in the last axes) of fields already in the divergence-free subspace;
    project first if in doubt.
    """
    return _multiplier(spectrum, _power_factors(spectrum, s, shifted))


def apply_semigroup(spectrum: StokesSpectrum, t: float):
    """Operator ``c -> e^{-tA} c`` on Z coordinates; requires t >= 0."""
    if t < 0.0:
        raise ValueError(f"semigroup time must be nonnegative, got {t}")
    return _multiplier(spectrum, np.exp(-t * spectrum.eigenvalues))


def smoothing_bound(spectrum: StokesSpectrum, s: float, t_grid) -> np.ndarray:
    """Exact operator norms ``|| t^s A^s e^{-tA} ||`` for each t in the grid.

    Each value is ``max_k (t lambda_k)^s e^{-t lambda_k}`` and is bounded
    by the scalar calculus maximum (s/e)^s of x^s e^{-x}.
    """
    if s < 0.0:
        raise ValueError(f"smoothing exponent must be nonnegative, got {s}")
    x = np.outer(t_grid, spectrum.eigenvalues)
    return np.max(x**s * np.exp(-x), axis=1) if s > 0 else np.exp(-x[:, 0])


def smoothing_envelope(s: float) -> float:
    """The calculus maximum of x^s e^{-x} over x > 0, i.e. (s/e)^s."""
    return 1.0 if s == 0.0 else (s / math.e) ** s
