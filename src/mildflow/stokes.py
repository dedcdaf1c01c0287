"""The Stokes operator on the divergence-free subspace and its calculus.

The operator is the vector Dirichlet Laplacian compressed to the
divergence-free subspace: in the orthonormal basis Z it is the symmetric
positive definite matrix  S = Z^T L Z.  An eigendecomposition
S = Q diag(lambda) Q^T turns every function of the operator into a
spectral multiplier, so fractional powers and the semigroup are exact up
to round-off:

    f(S) c = Q (f(lambda) * (Q^T c)).

The spectrum comes from one SVD.  The 7-point Laplacian has the constant
diagonal 6/h^2 and couples only parity blocks (see ``hodge``) whose
classes differ in one bit, so with Z = [Z_e | Z_o] split by the parity
of popcount(k),

    S = (6/h^2) I - (1/h^2) [[0, C], [C^T, 0]],   C = -h^2 Z_e^T L Z_o,

and the SVD C = U diag(sigma) V^T gives the eigenvalues (6 -+ sigma)/h^2
with eigenvectors [u; +-v]/sqrt(2), plus |m_e - m_o| eigenvalues exactly
6/h^2.  ``assemble_stokes`` checks that structure on the sparse L.

Canonical clusters.  Inside a degenerate eigenspace any orthonormal basis
is an eigenbasis, so ascending eigenvalues whose relative gap is at most
``CLUSTER_TOLERANCE`` form one cluster, and each cluster's eigenvectors
are rotated to a basis that depends only on the eigenspace (the
orthonormalized projection of a fixed seeded Gaussian draw).  Every
result is then independent of the basis Z, of the factorization and of
the BLAS thread count, up to round-off.

The operator applications ``apply_frac_power`` and ``apply_semigroup`` act
on coordinate vectors in the Z basis (``hodge.coords`` / ``hodge.lift``
convert to and from ambient fields).  Trajectories live in modal
coordinates Q^T c instead; the ambient eigenfields Y = Z Q lift them
(``fields @ a``) and project onto them (``fields.T @ u``) in one product.
The discrete spectrum is strictly positive, which makes negative powers
legal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import VectorField
from .errors import SpectrumError
from .hodge import HodgeDecomposition

#: exp argument beyond which a spectral multiplier would overflow
_EXP_LIMIT = 700.0
#: Relative eigenvalue gap (over lambda_max) up to which eigenvalues share a cluster.
CLUSTER_TOLERANCE = 1e-9
#: Seed of the Gaussian draw that fixes the eigenvector basis inside each cluster.
CLUSTER_SEED = 0


@dataclass(eq=False)
class StokesSpectrum:
    """Eigenpairs of the reduced operator Z^T L Z.

    ``eigenvalues`` are ascending and strictly positive; ``modes`` holds
    the orthonormal eigenvectors (in Z coordinates) as columns and
    ``fields`` the same eigenvectors as ambient fields, the (3n, m)
    matrix Y = Z Q with orthonormal columns.  ``margins`` records how close
    the clustering and the positivity check came to their thresholds.
    """

    hodge: HodgeDecomposition
    eigenvalues: np.ndarray
    modes: np.ndarray
    fields: np.ndarray
    margins: dict = field(default_factory=dict)

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


def assemble_stokes(hodge: HodgeDecomposition) -> StokesSpectrum:
    """Eigendecompose the reduced operator Z^T L Z from the parity blocks.

    With Z = [Z_e | Z_o] split by block parity,

        Z^T L Z = (6/h^2) I - (1/h^2) [[0, C], [C^T, 0]],   C = -h^2 Z_e^T L Z_o,

    so one SVD C = U diag(sigma) V^T gives every eigenpair: (6 -+ sigma)/h^2
    with modes [u; +-v]/sqrt(2), and |m_e - m_o| eigenvalues 6/h^2 with
    modes [u; 0] or [0; v] from the unpaired singular vectors.  Raises
    ``SpectrumError`` if L breaks that structure, or if an eigenvalue is not
    strictly positive beyond round-off, which would signal broken
    adjointness upstream.
    """
    if hodge.dim == 0:
        raise SpectrumError("divergence-free subspace is trivial")
    h2 = hodge.mask.spacing ** 2
    _check_block_structure(hodge, 6.0 / h2)
    z, m_e = hodge.basis, hodge.n_even
    fields = np.empty((z.shape[0], hodge.dim))
    # C is formed in the storage of the fields, which the block loop below
    # overwrites whole.  The SVD factors (about m^2 / 2 doubles) stay
    # referenced until that loop has run: freed before it, they would sit
    # free at the top of the process heap while the fields are written, and
    # whether malloc hands that memory back to the system first depends on
    # the mask, so peak memory would swing by their size from mask to mask.
    c = fields.reshape(-1)[:m_e * (hodge.dim - m_e)].reshape(m_e, hodge.dim - m_e)
    _coupling(hodge, h2, c)
    factors = np.linalg.svd(c, full_matrices=True)
    eigenvalues, vectors = _coupled_eigenpairs(*factors, h2)
    tol = 1e-12 * max(abs(eigenvalues[-1]), 1.0)
    if eigenvalues[0] <= tol:
        raise SpectrumError(
            f"reduced operator is not positive definite: min eigenvalue {eigenvalues[0]:.3e}"
        )
    gaps, starts, sizes, draw = _clusters(eigenvalues, z.shape[0])
    draw_coords = np.empty((hodge.dim, draw.shape[1]))
    for b in hodge.blocks:
        draw_coords[b.span] = z[b.rows, b.span].T @ draw[b.rows]
    _canonical_clusters(starts, sizes, vectors, draw_coords)
    for b in hodge.blocks:
        fields[b.rows] = z[b.rows, b.span] @ vectors[:, b.span].T
    merged, split = gaps[gaps <= CLUSTER_TOLERANCE], gaps[gaps > CLUSTER_TOLERANCE]
    margins = {
        "cluster_tolerance": CLUSTER_TOLERANCE,
        "max_merged_gap_rel": float(merged.max()) if merged.size else None,
        "min_split_gap_rel": float(split.min()) if split.size else None,
        "lambda_min_over_positivity_tol": float(eigenvalues[0] / tol),
    }
    return StokesSpectrum(hodge, eigenvalues, vectors.T, fields, margins)


def _check_block_structure(hodge: HodgeDecomposition, diagonal: float):
    """Raise ``SpectrumError`` unless L has the constant ``diagonal`` and every
    off-diagonal entry joins parity blocks whose classes differ in one bit."""
    lap = hodge.ops.laplacian
    if not np.all(lap.diagonal() == diagonal):
        raise SpectrumError("Laplacian diagonal is not the constant 6/h^2")
    block = np.empty(lap.shape[0], dtype=np.int64)
    for b in hodge.blocks:
        block[b.rows] = b.klass
    entries = lap.tocoo()
    off = (entries.row != entries.col) & (entries.data != 0.0)
    flipped = block[entries.row[off]] ^ block[entries.col[off]]
    if not np.all((flipped == 1) | (flipped == 2) | (flipped == 4)):
        raise SpectrumError("Laplacian couples parity blocks that differ in more than one bit")


def _coupling(hodge: HodgeDecomposition, h2: float, c: np.ndarray):
    """Write C = -h^2 Z_e^T L Z_o into the (m_e, m_o) array ``c``, from the
    12 block pairs whose classes differ in one bit."""
    lap, z, m_e = hodge.ops.laplacian, hodge.basis, hodge.n_even
    c[:] = 0.0
    for be in hodge.blocks:
        for bo in hodge.blocks:
            if be.even and bin(be.klass ^ bo.klass).count("1") == 1:
                coupled = lap[be.rows][:, bo.rows] @ z[bo.rows, bo.span]
                cols = slice(bo.span.start - m_e, bo.span.stop - m_e)
                c[be.span, cols] = -h2 * (z[be.rows, be.span].T @ coupled)


def _coupled_eigenpairs(u_mat: np.ndarray, sigma: np.ndarray, vt: np.ndarray, h2: float):
    """Ascending eigenvalues of (6 I - [[0, C], [C^T, 0]]) / h^2, and its
    orthonormal eigenvectors as the rows of an (m, m) array, from the full
    SVD C = U diag(sigma) V^T.  Scales and negates U and V^T in place."""
    m_e, m_o, p = u_mat.shape[0], vt.shape[0], sigma.size
    m = m_e + m_o
    eigenvalues = np.concatenate([6.0 - sigma, np.full(m - 2 * p, 6.0), 6.0 + sigma]) / h2
    order = np.argsort(eigenvalues, kind="stable")
    # eigenvector j of the unsorted list goes to row where[j]
    where = np.empty(m, dtype=np.int64)
    where[order] = np.arange(m)
    lo, mid, hi = where[:p], where[p:m - p], where[m - p:]
    u_mat[:, :p] *= 0.5 ** 0.5
    vt[:p] *= 0.5 ** 0.5
    vectors = np.zeros((m, m))
    vectors[lo, :m_e] = vectors[hi, :m_e] = u_mat[:, :p].T
    vectors[lo, m_e:] = vt[:p]
    np.negative(vt[:p], out=vt[:p])
    vectors[hi, m_e:] = vt[:p]
    vectors[mid[:m_e - p], :m_e] = u_mat[:, p:].T
    vectors[mid[m_e - p:], m_e:] = vt[p:]
    return eigenvalues[order], vectors


def _clusters(eigenvalues: np.ndarray, n3: int):
    """Relative gaps of the ascending eigenvalues, the first index and size
    of each cluster (gaps at most ``CLUSTER_TOLERANCE``), and the seeded
    Gaussian draw R, (n3, largest cluster size), that fixes their bases."""
    gaps = np.diff(eigenvalues) / eigenvalues[-1]
    starts = np.flatnonzero(np.concatenate([[True], gaps > CLUSTER_TOLERANCE]))
    sizes = np.diff(np.append(starts, eigenvalues.size))
    draw = np.random.default_rng(CLUSTER_SEED).standard_normal((n3, sizes.max()))
    return gaps, starts, sizes, draw


def _canonical_clusters(starts, sizes, vectors: np.ndarray, draw_coords: np.ndarray):
    """Rotate the eigenvectors of each cluster to a basis fixed by its eigenspace.

    ``vectors`` holds the eigenvectors in Z coordinates as rows (Q^T) and
    ``draw_coords`` = Z^T R for the draw R of ``_clusters``.  A cluster's
    eigenfields Y_C = Z Q_C become Y_C q, q the Q factor (with a positive
    diagonal in R) of Y_C^T R_C = Q_C^T Z^T R_C, R_C the first |C| columns
    of R; Y_C q = P_C R_C r^{-1} depends on the cluster's subspace only.
    Single eigenvectors get the sign of g^T y, g the first column of R.
    The rows are rotated in place, all clusters of one size in one batch.
    """
    single = np.zeros(vectors.shape[0], dtype=bool)
    single[starts[sizes == 1]] = True
    vectors *= np.where(single & (vectors @ draw_coords[:, 0] < 0.0), -1.0, 1.0)[:, None]
    for size in np.unique(sizes[sizes > 1]):
        first = starts[sizes == size]
        rows = (first[:, None] + np.arange(size)).ravel()
        stacked = vectors[rows].reshape(first.size, size, -1)
        q, r = np.linalg.qr(stacked @ draw_coords[:, :size])
        q *= np.where(np.diagonal(r, axis1=1, axis2=2) < 0.0, -1.0, 1.0)[:, None, :]
        vectors[rows] = (q.transpose(0, 2, 1) @ stacked).reshape(rows.size, -1)


def _multiplier(spectrum: StokesSpectrum, factors: np.ndarray):
    """Operator ``c -> Q (factors * (Q^T c))`` on Z coordinates."""
    modes = spectrum.modes

    def apply(coords: np.ndarray) -> np.ndarray:
        modal = modes.T @ np.asarray(coords, dtype=float)
        return modes @ (factors * modal if modal.ndim == 1 else factors[:, None] * modal)

    return apply


def apply_frac_power(spectrum: StokesSpectrum, s: float):
    """Operator ``c -> A^s c`` on Z coordinates.

    The returned callable accepts a coordinate vector (or a stack of them
    in the last axes) of fields already in the divergence-free subspace;
    project first if in doubt.
    """
    lam = spectrum.eigenvalues
    if s != 0.0 and max(abs(s * math.log(lam[0])), abs(s * math.log(lam[-1]))) > _EXP_LIMIT:
        raise OverflowError(f"power {s} of eigenvalues in [{lam[0]:.3e}, {lam[-1]:.3e}] overflows")
    return _multiplier(spectrum, lam ** s)


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
